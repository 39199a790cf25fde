//! Known-answer pins for every trace generator.
//!
//! Each pin folds the first N records a generator yields at a fixed seed
//! into one 64-bit value. The constants were computed before the
//! generators moved onto `RecencyStack` and the division-free
//! `gen_range`, and those changes must not move them: a seed names one
//! exact trace, forever. A failure here means every simulation result
//! downstream of that generator changed too.

use pc_trace::{CelloConfig, NonStationaryConfig, OltpConfig, Record, Scenario, SyntheticConfig};

/// Word-wise FNV-1a over every field of every record. Each step is a
/// bijection of the running state, so changing any one field of any one
/// record changes the result.
fn fold(records: &[Record]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let words = records.iter().flat_map(|r| {
        [
            r.time.as_micros(),
            u64::from(r.block.disk().index()),
            r.block.block().number(),
            r.blocks,
            u64::from(r.op.is_write()),
        ]
    });
    for w in std::iter::once(records.len() as u64).chain(words) {
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The benchmark's seed and its held-back seed; every pin covers both.
const SEEDS: [u64; 2] = [42, 7];

fn check(name: &str, pins: [u64; 2], generate: impl Fn(u64) -> Vec<Record>) {
    for (seed, want) in SEEDS.into_iter().zip(pins) {
        let got = fold(&generate(seed));
        assert_eq!(got, want, "{name} at seed {seed}: fold {got:#018x}");
    }
}

#[test]
fn cello_first_60k_records_are_pinned() {
    check(
        "cello96",
        [0x8c5d_40b7_c77e_4bb3, 0xa1e7_f4a1_121e_7d65],
        |seed| {
            CelloConfig::default()
                .with_requests(60_000)
                .generate(seed)
                .into_records()
        },
    );
}

#[test]
fn synthetic_first_50k_records_are_pinned() {
    check(
        "synthetic",
        [0x62e9_2c42_1e3e_c003, 0x0a46_4246_8fe6_36c5],
        |seed| {
            SyntheticConfig::default()
                .with_requests(50_000)
                .generate(seed)
                .into_records()
        },
    );
}

#[test]
fn nonstationary_first_50k_records_are_pinned() {
    let pins: [(Scenario, [u64; 2]); 4] = [
        (
            Scenario::Diurnal,
            [0xb4bf_6877_f559_36db, 0x5888_89ef_78ad_2d2f],
        ),
        (
            Scenario::FlashCrowd,
            [0xc767_3122_0765_8a91, 0x7bd0_2413_1bfe_d184],
        ),
        (
            Scenario::Churn,
            [0x5bb1_e9f9_7388_6342, 0x0df5_ad02_5ee9_022a],
        ),
        (
            Scenario::PhaseChange,
            [0x3127_4ddd_ad38_cfc9, 0x475a_ce31_a9ea_3c56],
        ),
    ];
    for (scenario, pin) in pins {
        check(scenario.name(), pin, |seed| {
            NonStationaryConfig::new(scenario)
                .with_requests(50_000)
                .generate(seed)
                .into_records()
        });
    }
}

#[test]
fn oltp_first_30k_records_are_pinned() {
    check(
        "oltp",
        [0xa2f7_3650_e3ad_7286, 0x6e23_1619_33da_03e7],
        |seed| {
            OltpConfig::default()
                .with_requests(30_000)
                .generate(seed)
                .into_records()
        },
    );
}
