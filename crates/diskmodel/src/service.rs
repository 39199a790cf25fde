//! First-order mechanical service-time model.
//!
//! Stands in for DiskSim's detailed mechanical simulation: a square-root
//! seek curve between cylinders, deterministic pseudo-random rotational
//! latency, and bandwidth-proportional transfer time. Energy results in the
//! reproduced experiments are dominated by power-mode residency, so this
//! level of fidelity suffices (see DESIGN.md §2).

use pc_units::{BlockNo, SimDuration};

/// One request to be serviced by a disk: a starting block and a length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceRequest {
    /// First block of the transfer.
    pub block: BlockNo,
    /// Transfer length in blocks (≥ 1).
    pub blocks: u64,
}

impl ServiceRequest {
    /// Creates a single-block request.
    #[must_use]
    pub const fn single(block: BlockNo) -> Self {
        ServiceRequest { block, blocks: 1 }
    }
}

/// One zone of a multi-zone (zoned-bit-recording) disk: a contiguous
/// range of cylinders sharing a sectors-per-track count. Outer zones
/// pack more blocks per track and therefore transfer faster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Zone {
    /// First block of the zone.
    pub first_block: u64,
    /// First cylinder of the zone.
    pub first_cylinder: u64,
    /// Blocks per cylinder inside this zone.
    pub blocks_per_cylinder: u64,
    /// Blocks that pass under the head per rotation inside this zone.
    pub blocks_per_track: u64,
}

/// Mechanical timing parameters of one disk.
///
/// # Examples
///
/// ```
/// use pc_diskmodel::{ServiceModel, ServiceRequest};
/// use pc_units::BlockNo;
///
/// let m = ServiceModel::ultrastar_36z15();
/// let t = m.service_time(None, ServiceRequest::single(BlockNo::new(1_000)));
/// // A random single-block access takes a few milliseconds.
/// assert!(t.total.as_millis_f64() > 0.1 && t.total.as_millis_f64() < 15.0);
/// assert!(t.seek < t.total);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceModel {
    /// Size of one block, in bytes.
    pub block_bytes: u64,
    /// Sustained transfer rate, in bytes per second (used when `zones`
    /// is empty; zoned models derive per-zone rates instead).
    pub transfer_rate: f64,
    /// Track-to-track (minimum non-zero) seek time.
    pub track_seek: SimDuration,
    /// Full-stroke (maximum) seek time.
    pub full_seek: SimDuration,
    /// Number of cylinders.
    pub cylinders: u64,
    /// Blocks per cylinder (derived from capacity; for zoned models this
    /// is the mean, used only as a fallback).
    pub blocks_per_cylinder: u64,
    /// Time of one full platter rotation at full speed.
    pub rotation: SimDuration,
    /// Zoned-bit-recording table, outermost (fastest) zone first. Empty =
    /// the flat single-zone model.
    pub zones: Vec<Zone>,
}

impl ServiceModel {
    /// Timing parameters approximating the IBM Ultrastar 36Z15:
    /// 8 KiB blocks, 52 MB/s sustained transfer, 0.5 ms track-to-track and
    /// 6.9 ms full-stroke seeks, 15 000 RPM (4 ms rotation), 18.4 GB.
    #[must_use]
    pub fn ultrastar_36z15() -> Self {
        let capacity_blocks = 18_400_000_000u64 / 8_192;
        let cylinders = 18_000;
        ServiceModel {
            block_bytes: 8_192,
            transfer_rate: 52_000_000.0,
            track_seek: SimDuration::from_micros(500),
            full_seek: SimDuration::from_micros(6_900),
            cylinders,
            blocks_per_cylinder: capacity_blocks.div_ceil(cylinders),
            rotation: SimDuration::from_micros(4_000),
            zones: Vec::new(),
        }
    }

    /// Timing parameters approximating a laptop-class (Travelstar-like)
    /// drive: 4 200 RPM (14.3 ms rotation), 25 MB/s sustained transfer,
    /// 1.5 ms track-to-track and 22 ms full-stroke seeks, 30 GB.
    #[must_use]
    pub fn travelstar_laptop() -> Self {
        let capacity_blocks = 30_000_000_000u64 / 8_192;
        let cylinders = 30_000;
        ServiceModel {
            block_bytes: 8_192,
            transfer_rate: 25_000_000.0,
            track_seek: SimDuration::from_micros(1_500),
            full_seek: SimDuration::from_micros(22_000),
            cylinders,
            blocks_per_cylinder: capacity_blocks.div_ceil(cylinders),
            rotation: SimDuration::from_micros(14_286),
            zones: Vec::new(),
        }
    }

    /// An Ultrastar-like model with `zone_count` recording zones: the
    /// outermost zone packs ~1.4× the mean linear density, the innermost
    /// ~0.65×, declining linearly — so low block numbers (outer tracks)
    /// transfer roughly twice as fast as high ones, as on real drives.
    ///
    /// # Panics
    ///
    /// Panics if `zone_count` is zero.
    #[must_use]
    pub fn zoned_ultrastar(zone_count: u64) -> Self {
        assert!(zone_count > 0, "need at least one zone");
        let mut model = ServiceModel::ultrastar_36z15();
        let capacity = model.blocks_per_cylinder * model.cylinders;
        let cylinders_per_zone = model.cylinders / zone_count;
        // Density weights decline linearly from 1.4 to 0.65, normalized so
        // the total capacity is preserved.
        let weights: Vec<f64> = (0..zone_count)
            .map(|z| {
                let f = if zone_count == 1 {
                    0.5
                } else {
                    z as f64 / (zone_count - 1) as f64
                };
                1.4 - f * 0.75
            })
            .collect();
        let weight_sum: f64 = weights.iter().sum();
        let mut zones = Vec::with_capacity(zone_count as usize);
        let mut first_block = 0u64;
        for (z, w) in weights.iter().enumerate() {
            let zone_blocks = (capacity as f64 * w / weight_sum).round() as u64;
            let bpc = (zone_blocks / cylinders_per_zone.max(1)).max(1);
            // Five recording surfaces: calibrated so the capacity-mean
            // zone rate matches the flat model's 52 MB/s.
            let bpt = (bpc / 5).max(1);
            zones.push(Zone {
                first_block,
                first_cylinder: z as u64 * cylinders_per_zone,
                blocks_per_cylinder: bpc,
                blocks_per_track: bpt,
            });
            first_block += zone_blocks;
        }
        model.zones = zones;
        model
    }

    /// The zone holding a block (zoned models only).
    #[must_use]
    pub fn zone_of(&self, block: BlockNo) -> Option<&Zone> {
        if self.zones.is_empty() {
            return None;
        }
        let idx = self
            .zones
            .partition_point(|z| z.first_block <= block.number())
            .saturating_sub(1);
        Some(&self.zones[idx])
    }

    /// Returns the cylinder holding a block.
    #[must_use]
    pub fn cylinder_of(&self, block: BlockNo) -> u64 {
        match self.zone_of(block) {
            Some(zone) => {
                let offset = (block.number() - zone.first_block) / zone.blocks_per_cylinder;
                (zone.first_cylinder + offset).min(self.cylinders - 1)
            }
            None => (block.number() / self.blocks_per_cylinder).min(self.cylinders - 1),
        }
    }

    /// Seek time between two cylinders: zero for the same cylinder,
    /// otherwise `track + (full − track)·√(distance/cylinders)`.
    #[must_use]
    pub fn seek_time(&self, from: u64, to: u64) -> SimDuration {
        if from == to {
            return SimDuration::ZERO;
        }
        let distance = from.abs_diff(to);
        let frac = (distance as f64 / self.cylinders as f64).sqrt();
        self.track_seek + (self.full_seek - self.track_seek).mul_f64(frac)
    }

    /// Rotational latency for a block: deterministic pseudo-random in
    /// `[0, rotation)`, derived by hashing the block number so simulations
    /// are exactly reproducible.
    #[must_use]
    pub fn rotational_latency(&self, block: BlockNo) -> SimDuration {
        // SplitMix64 finalizer — cheap, well-distributed.
        let mut z = block.number().wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let micros = self.rotation.as_micros();
        SimDuration::from_micros(if micros == 0 { 0 } else { z % micros })
    }

    /// Pure data-transfer time for `blocks` blocks starting at `at`
    /// (zone-dependent for zoned models: outer tracks stream faster).
    #[must_use]
    pub fn transfer_time_at(&self, at: BlockNo, blocks: u64) -> SimDuration {
        match self.zone_of(at) {
            Some(zone) => {
                // One rotation moves `blocks_per_track` blocks past the
                // head.
                self.rotation
                    .mul_f64(blocks as f64 / zone.blocks_per_track as f64)
            }
            None => SimDuration::from_secs_f64(
                blocks as f64 * self.block_bytes as f64 / self.transfer_rate,
            ),
        }
    }

    /// Pure data-transfer time for `blocks` blocks (flat-model rate; for
    /// zoned models prefer [`ServiceModel::transfer_time_at`]).
    #[must_use]
    pub fn transfer_time(&self, blocks: u64) -> SimDuration {
        SimDuration::from_secs_f64(blocks as f64 * self.block_bytes as f64 / self.transfer_rate)
    }

    /// Mechanical service time of a request: seek from the previous head
    /// position (or an average-length seek if unknown), rotational
    /// latency, and (zone-aware) transfer. The seek is returned on its
    /// own too, since it is drawn at seek power rather than active power.
    #[must_use]
    pub fn service_time(&self, head_at: Option<BlockNo>, request: ServiceRequest) -> ServiceTime {
        let to = self.cylinder_of(request.block);
        let seek = match head_at {
            Some(prev) => self.seek_time(self.cylinder_of(prev), to),
            // Unknown head position: average seek over one third of the
            // stroke, the standard random-workload approximation.
            None => self.seek_time(0, self.cylinders / 3),
        };
        ServiceTime {
            seek,
            total: seek
                + self.rotational_latency(request.block)
                + self.transfer_time_at(request.block, request.blocks),
        }
    }
}

/// One request's mechanical service time, with its seek portion split
/// out for energy accounting (see [`ServiceModel::service_time`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceTime {
    /// Seek from the previous head position.
    pub seek: SimDuration,
    /// Seek + rotational latency + transfer.
    pub total: SimDuration,
}

impl Default for ServiceModel {
    fn default() -> Self {
        ServiceModel::ultrastar_36z15()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ServiceModel {
        ServiceModel::ultrastar_36z15()
    }

    #[test]
    fn same_cylinder_has_no_seek() {
        let m = model();
        assert_eq!(m.seek_time(100, 100), SimDuration::ZERO);
    }

    #[test]
    fn seek_grows_sublinearly_with_distance() {
        let m = model();
        let short = m.seek_time(0, 100);
        let long = m.seek_time(0, 10_000);
        assert!(short < long);
        assert!(long < m.full_seek + SimDuration::from_micros(1));
        // √ curve: 100x distance should be well under 100x time.
        assert!(long.as_micros() < short.as_micros() * 100);
    }

    #[test]
    fn full_stroke_is_the_maximum() {
        let m = model();
        assert_eq!(m.seek_time(0, m.cylinders - 1).as_micros(), {
            // frac ≈ 1
            let frac = ((m.cylinders - 1) as f64 / m.cylinders as f64).sqrt();
            (m.track_seek + (m.full_seek - m.track_seek).mul_f64(frac)).as_micros()
        });
    }

    #[test]
    fn rotational_latency_is_deterministic_and_bounded() {
        let m = model();
        for b in 0..1_000u64 {
            let block = BlockNo::new(b);
            let lat = m.rotational_latency(block);
            assert!(lat < m.rotation);
            assert_eq!(lat, m.rotational_latency(block));
        }
    }

    #[test]
    fn rotational_latency_averages_half_rotation() {
        let m = model();
        let n = 10_000u64;
        let total: u64 = (0..n)
            .map(|b| m.rotational_latency(BlockNo::new(b)).as_micros())
            .sum();
        let mean = total as f64 / n as f64;
        let half = m.rotation.as_micros() as f64 / 2.0;
        assert!((mean - half).abs() < half * 0.05, "mean {mean} vs {half}");
    }

    #[test]
    fn transfer_time_is_linear_in_length() {
        let m = model();
        let one = m.transfer_time(1);
        let eight = m.transfer_time(8);
        assert!((eight.as_secs_f64() - 8.0 * one.as_secs_f64()).abs() < 1e-5);
        // 8 KiB at 52 MB/s ≈ 158 µs.
        assert!((one.as_micros() as i64 - 158).abs() <= 2);
    }

    #[test]
    fn service_time_uses_head_position() {
        let m = model();
        let near = ServiceRequest::single(BlockNo::new(0));
        let seq = m.service_time(Some(BlockNo::new(1)), near).total;
        let far = m
            .service_time(Some(BlockNo::new(m.blocks_per_cylinder * 17_000)), near)
            .total;
        assert!(seq < far);
    }

    #[test]
    fn cylinder_of_clamps_to_capacity() {
        let m = model();
        assert_eq!(m.cylinder_of(BlockNo::new(u64::MAX)), m.cylinders - 1);
        assert_eq!(m.cylinder_of(BlockNo::new(0)), 0);
    }

    #[test]
    fn zoned_model_covers_capacity_with_monotone_cylinders() {
        let m = ServiceModel::zoned_ultrastar(8);
        assert_eq!(m.zones.len(), 8);
        let capacity = model().blocks_per_cylinder * model().cylinders;
        // Zone boundaries are increasing and roughly cover the capacity.
        for w in m.zones.windows(2) {
            assert!(w[0].first_block < w[1].first_block);
            assert!(w[0].first_cylinder < w[1].first_cylinder);
            assert!(
                w[0].blocks_per_track > w[1].blocks_per_track,
                "outer zones are denser"
            );
        }
        let last = m.zones.last().unwrap();
        let covered =
            last.first_block + last.blocks_per_cylinder * (m.cylinders - last.first_cylinder);
        let coverage_error = (covered as f64 - capacity as f64).abs() / capacity as f64;
        assert!(coverage_error < 0.05, "covered {covered} of {capacity}");
        // Cylinder mapping is monotone in the block number.
        let mut prev = 0;
        for b in (0..capacity).step_by((capacity / 500) as usize) {
            let c = m.cylinder_of(BlockNo::new(b));
            assert!(c >= prev, "cylinder map must be monotone");
            assert!(c < m.cylinders);
            prev = c;
        }
    }

    #[test]
    fn outer_zones_transfer_faster() {
        let m = ServiceModel::zoned_ultrastar(8);
        let capacity = model().blocks_per_cylinder * model().cylinders;
        let outer = m.transfer_time_at(BlockNo::new(0), 64);
        let inner = m.transfer_time_at(BlockNo::new(capacity - 1), 64);
        assert!(
            inner.as_secs_f64() > outer.as_secs_f64() * 1.5,
            "inner {inner} vs outer {outer}"
        );
        // The flat model sits in between.
        let flat = model().transfer_time(64);
        assert!(outer < flat && flat < inner);
    }

    #[test]
    fn flat_model_is_unchanged_by_the_zone_machinery() {
        let m = model();
        assert!(m.zone_of(BlockNo::new(123)).is_none());
        assert_eq!(m.transfer_time_at(BlockNo::new(123), 8), m.transfer_time(8));
    }

    #[test]
    fn zoned_service_time_is_seek_plus_latency_plus_zone_transfer() {
        let m = ServiceModel::zoned_ultrastar(4);
        let req = ServiceRequest {
            block: BlockNo::new(100),
            blocks: 32,
        };
        let t = m.service_time(Some(BlockNo::new(100)), req);
        let expected =
            m.rotational_latency(BlockNo::new(100)) + m.transfer_time_at(BlockNo::new(100), 32);
        assert_eq!(t.seek, SimDuration::ZERO, "same cylinder: no seek");
        assert_eq!(t.total, expected);
    }
}
