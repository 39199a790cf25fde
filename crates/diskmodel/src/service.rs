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
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceModel {
    /// Size of one block, in bytes.
    pub block_bytes: u64,
    /// Sustained transfer rate, in bytes per second.
    pub transfer_rate: f64,
    /// Track-to-track (minimum non-zero) seek time.
    pub track_seek: SimDuration,
    /// Full-stroke (maximum) seek time.
    pub full_seek: SimDuration,
    /// Number of cylinders.
    pub cylinders: u64,
    /// Blocks per cylinder (derived from capacity).
    pub blocks_per_cylinder: u64,
    /// Time of one full platter rotation at full speed.
    pub rotation: SimDuration,
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
        }
    }

    /// Returns the cylinder holding a block.
    #[must_use]
    pub fn cylinder_of(&self, block: BlockNo) -> u64 {
        (block.number() / self.blocks_per_cylinder).min(self.cylinders - 1)
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

    /// Pure data-transfer time for `blocks` blocks.
    #[must_use]
    pub fn transfer_time(&self, blocks: u64) -> SimDuration {
        SimDuration::from_secs_f64(blocks as f64 * self.block_bytes as f64 / self.transfer_rate)
    }

    /// Mechanical service time of a request: seek from the previous head
    /// position (or an average-length seek if unknown), rotational
    /// latency, and transfer. The seek is returned on its
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
                + self.transfer_time(request.blocks),
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
}
