//! Known-answer pins for the disk state machine's books.
//!
//! Each pin replays one seeded arrival sequence through one `DiskSim`
//! configuration and folds everything the disk reports into one 64-bit
//! value: every `Served`, every `DiskReport` field (joules by their
//! `f64` bit patterns) and the whole power `Timeline`. The sequence
//! mixes gaps from a microsecond to 1000 s, so it covers queued
//! arrivals, every rung of the demotion ladder, standby, and arrivals
//! that land mid-spin-down. Speed work on `DiskSim::service` and
//! `DiskSim::finish` must leave every pin where it is: a failure here
//! means the simulated energy, time or counts moved.

use pc_diskmodel::{DiskPowerSpec, PowerModel, ServiceModel, ServiceRequest};
use pc_disksim::{DiskSim, DpmPolicy, PowerEvent, Served};
use pc_units::{BlockNo, DiskId, SimDuration, SimTime};

/// SplitMix64: a self-contained seeded source, so the pins depend on
/// nothing outside this file.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Word-wise FNV-1a. Each step is a bijection of the running state, so
/// changing any one word changes the result.
struct Fold(u64);

impl Fold {
    fn new() -> Self {
        Fold(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn duration(&mut self, d: SimDuration) {
        self.word(d.as_micros());
    }
}

const REQUESTS: usize = 10_000;

/// Idle gaps to aim arrivals just past, so that some land while the disk
/// is still spinning down: every rung of the model's ladder, plus the
/// `FixedThreshold` pins' 20 s.
fn thresholds(power: &PowerModel) -> Vec<SimDuration> {
    let mut t: Vec<SimDuration> = power.ladder()[1..].iter().map(|s| s.at_idle).collect();
    t.push(SimDuration::from_secs(20));
    t
}

/// The next arrival after `last`, whose request completed at
/// `completion`.
fn next_arrival(
    rng: &mut SplitMix,
    thresholds: &[SimDuration],
    last: SimTime,
    completion: SimTime,
) -> SimTime {
    match rng.below(16) {
        // Up to 1.6 s past a demotion threshold: mostly inside the
        // spin-down it starts (a full one takes 1.5 s).
        0..=2 => {
            let t = thresholds[rng.below(thresholds.len() as u64) as usize];
            completion + t + SimDuration::from_micros(rng.below(1_600_000))
        }
        // Exactly at the previous completion: no idle time at all.
        3 => completion,
        // A short idle period: log-uniform from 1 µs to 1 s.
        4..=5 => completion + log_uniform_micros(rng, 6.0),
        // Log-uniform from 1 µs to 1000 s after the previous arrival;
        // the short end queues behind the request in service.
        _ => last + log_uniform_micros(rng, 9.0),
    }
}

/// Log-uniform from 1 µs to `10^decades` µs.
fn log_uniform_micros(rng: &mut SplitMix, decades: f64) -> SimDuration {
    SimDuration::from_micros(10f64.powf(decades * rng.unit()) as u64)
}

/// Offers the seeded sequence to `disk`, handing each request's arrival,
/// the disk's busy horizon just before it, and its outcome to `observe`;
/// then finishes the disk after a long trailing idle period, so `finish`
/// walks the ladder to standby.
fn drive(seed: u64, disk: &mut DiskSim, mut observe: impl FnMut(SimTime, SimTime, Served)) {
    let mut rng = SplitMix(seed);
    let thresholds = thresholds(disk.power_model());
    let mut arrival = SimTime::from_micros(rng.below(1_000_000));
    for _ in 0..REQUESTS {
        let request = ServiceRequest {
            block: BlockNo::new(rng.below(2_000_000)),
            blocks: 1 + rng.below(16),
        };
        let busy_until = disk.ready_at();
        let served = disk.service(arrival, request);
        observe(arrival, busy_until, served);
        arrival = next_arrival(&mut rng, &thresholds, arrival, served.completion);
    }
    let end = disk.ready_at().max(arrival) + SimDuration::from_secs(700);
    disk.finish(end);
}

/// Replays the seeded sequence through `disk` and folds its books.
fn replay(seed: u64, mut disk: DiskSim) -> u64 {
    let mut fold = Fold::new();
    drive(seed, &mut disk, |_, _, served| {
        fold.duration(served.wait);
        fold.duration(served.service);
        fold.duration(served.response);
        fold.word(served.completion.as_micros());
    });

    let r = disk.report();
    for d in [
        r.service_time,
        r.spin_down_time,
        r.spin_up_time,
        r.response_total,
        r.response_max,
        r.interarrival_total,
    ] {
        fold.duration(d);
    }
    for j in [r.service_energy, r.spin_down_energy, r.spin_up_energy] {
        fold.word(j.as_joules().to_bits());
    }
    for w in [r.requests, r.spin_downs, r.spin_ups, r.interarrival_count] {
        fold.word(w);
    }
    for (t, e) in r.mode_time.iter().zip(&r.mode_energy) {
        fold.duration(*t);
        fold.word(e.as_joules().to_bits());
    }

    let timeline = disk.timeline().expect("recording on");
    fold.word(timeline.len() as u64);
    for entry in timeline {
        fold.word(entry.at.as_micros());
        let (tag, mode) = match entry.event {
            PowerEvent::Rest { mode } => (0, mode.index()),
            PowerEvent::SpinDown { to } => (1, to.index()),
            PowerEvent::SpinUp => (2, 0),
            PowerEvent::ServiceStart => (3, 0),
            PowerEvent::ServiceEnd => (4, 0),
        };
        fold.word(tag);
        fold.word(mode as u64);
    }
    fold.0
}

fn disk(power: &PowerModel, policy: DpmPolicy, serve_at_speed: bool) -> DiskSim {
    let d = DiskSim::new(
        DiskId::new(0),
        power.clone(),
        ServiceModel::ultrastar_36z15(),
        policy,
    )
    .with_timeline();
    if serve_at_speed {
        d.with_serve_at_speed()
    } else {
        d
    }
}

const FIXED_20S: DpmPolicy = DpmPolicy::FixedThreshold(SimDuration::from_secs(20));

/// Every policy at full-speed service, then serve-at-speed on the causal
/// ones, each pinned at seeds 42 and 7.
const CASES: [(DpmPolicy, bool); 7] = [
    (DpmPolicy::AlwaysOn, false),
    (DpmPolicy::Practical, false),
    (DpmPolicy::Oracle, false),
    (FIXED_20S, false),
    (DpmPolicy::AlwaysOn, true),
    (DpmPolicy::Practical, true),
    (FIXED_20S, true),
];

fn check(model: &str, power: &PowerModel, pins: [[u64; 2]; 7]) {
    let mut failures = Vec::new();
    for ((policy, at_speed), pin) in CASES.into_iter().zip(pins) {
        for (seed, want) in [42, 7].into_iter().zip(pin) {
            let got = replay(seed, disk(power, policy, at_speed));
            if got != want {
                failures.push(format!(
                    "{model} {policy:?} serve_at_speed={at_speed} seed {seed}: fold {got:#018x}"
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The sequence reaches every regime the pins are meant to cover.
#[test]
fn the_sequence_covers_queueing_spin_down_and_long_gaps() {
    let power = PowerModel::multi_speed(&DiskPowerSpec::ultrastar_36z15());
    let spin_ups: Vec<SimDuration> = power.modes().map(|(_, m)| m.spin_up.time).collect();
    let (mut queued, mut short, mut mid_spin_down, mut long) = (0, 0, 0, 0);
    let mut d = disk(&power, DpmPolicy::Practical, false);
    drive(42, &mut d, |arrival, busy_until, served| {
        if arrival < busy_until {
            queued += 1;
            return;
        }
        let idle = arrival - busy_until;
        if !idle.is_zero() && idle < SimDuration::from_millis(1) {
            short += 1;
        }
        if idle >= SimDuration::from_secs(500) {
            long += 1;
        }
        // A wait that is not exactly one mode's spin-up includes the rest
        // of a spin-down the arrival interrupted.
        if !served.wait.is_zero() && !spin_ups.contains(&served.wait) {
            mid_spin_down += 1;
        }
    });
    for (regime, count) in [
        ("queued", queued),
        ("sub-millisecond idle", short),
        ("mid-spin-down", mid_spin_down),
        ("idle of 500 s or more", long),
    ] {
        assert!(count >= 50, "only {count} {regime} arrivals");
    }
    assert!(d.report().mode_time[power.standby().index()] > SimDuration::ZERO);
}

#[test]
fn multi_speed_books_are_pinned() {
    check(
        "multi_speed",
        &PowerModel::multi_speed(&DiskPowerSpec::ultrastar_36z15()),
        [
            [0x2a97_0906_cf7f_27ef, 0xda30_37ee_9c10_9984],
            [0x164a_19ea_02cc_7dfa, 0x9c01_3580_cb33_0165],
            [0x25bc_8dfe_cf8c_257c, 0xba4d_e1e4_0f1f_23b2],
            [0x39d7_0546_4997_5fb6, 0x4186_1207_305a_5486],
            // An always-on disk never leaves full speed, so serving at
            // speed changes nothing, `finish` included.
            [0x2a97_0906_cf7f_27ef, 0xda30_37ee_9c10_9984],
            [0xd20d_1c51_baa3_3532, 0x1a65_f92a_1743_d4b7],
            [0x4cf1_ea7c_17db_5d52, 0xe1aa_d0de_c80f_1a67],
        ],
    );
}

#[test]
fn two_mode_books_are_pinned() {
    check(
        "two_mode",
        &PowerModel::two_mode(&DiskPowerSpec::ultrastar_36z15()),
        [
            [0xee94_ee84_1bb5_c41e, 0x3962_97c7_90c2_8495],
            [0xd760_3144_6a4a_7122, 0xd5e2_7d8c_ea50_3e91],
            [0x4df0_1638_c67a_390c, 0xb5db_e920_0a34_9419],
            [0x7c51_c112_4c39_ffae, 0x8203_1ed6_f747_8c99],
            // Always-on: as on the multi-speed disk, serving at speed
            // changes nothing.
            [0xee94_ee84_1bb5_c41e, 0x3962_97c7_90c2_8495],
            // On a 2-mode disk serving at speed changes nothing: the only
            // spinning mode is full speed, so the partial spin-up from
            // standby is the full one.
            [0xd760_3144_6a4a_7122, 0xd5e2_7d8c_ea50_3e91],
            [0x7c51_c112_4c39_ffae, 0x8203_1ed6_f747_8c99],
        ],
    );
}
