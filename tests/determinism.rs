//! Reproducibility: the whole stack is deterministic given a seed, and
//! distinct seeds genuinely vary the workload.

use pc_sim::{run_replacement, PolicySpec, SimConfig};
use pc_trace::{CelloConfig, OltpConfig, SyntheticConfig};

#[test]
fn identical_seeds_give_identical_reports() {
    for policy in [PolicySpec::Lru, PolicySpec::PaLru, PolicySpec::Belady] {
        let run = |seed| {
            let trace = OltpConfig::default().with_requests(4_000).generate(seed);
            run_replacement(&trace, &policy, &SimConfig::default())
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "{} must be deterministic", a.policy);
    }
}

#[test]
fn different_seeds_change_the_workload_but_not_the_shape() {
    let energies: Vec<f64> = (0..3)
        .map(|seed| {
            let trace = OltpConfig::default().with_requests(4_000).generate(seed);
            run_replacement(&trace, &PolicySpec::Lru, &SimConfig::default())
                .total_energy()
                .as_joules()
        })
        .collect();
    assert!(energies[0] != energies[1] || energies[1] != energies[2]);
    // Same order of magnitude: the generator is stable across seeds.
    let min = energies.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = energies.iter().cloned().fold(0.0, f64::max);
    assert!(max / min < 1.5, "energies vary too wildly: {energies:?}");
}

/// The sweep executor's contract: the worker count is invisible in the
/// results. Serialized reports (which exclude self-timing) from a
/// `--jobs 1` run must be byte-identical to a `--jobs 8` run.
#[test]
fn sweep_results_are_identical_for_any_job_count() {
    use pc_experiments::{sweep, Params};

    let trace = OltpConfig::default().with_requests(4_000).generate(42);
    let specs = vec![
        PolicySpec::Lru,
        PolicySpec::PaLru,
        PolicySpec::online("fifo").unwrap(),
        PolicySpec::Belady,
    ];
    let reports_at = |jobs: usize| {
        let params = Params::quick().with_jobs(jobs);
        sweep::over(&params, specs.clone(), |spec| {
            run_replacement(&trace, spec, &SimConfig::default()).to_json()
        })
    };
    let serial: Vec<String> = reports_at(1);
    let parallel: Vec<String> = reports_at(8);
    assert_eq!(
        serial, parallel,
        "jobs=1 and jobs=8 must serialize identically"
    );
}

/// The determinism bridge for the binary trace format: exporting a
/// workload to a `.pct` file and replaying it through the simulator
/// must serialize byte-identically to the in-memory path, for every
/// family. This is what makes `pc-server --capture` output (and any
/// exported file) a faithful stand-in for the generator it recorded.
#[test]
fn file_backed_replay_matches_the_in_memory_path_byte_for_byte() {
    use pc_experiments::{traceio, Params, TraceKind};
    use pc_trace::{Trace, Workload};

    for name in ["synthetic", "oltp", "cello96"] {
        let workload = Workload::parse(name).unwrap().with_requests(3_000);
        let in_memory: Trace =
            Trace::from_records(workload.disk_count(), workload.stream(42).collect());
        let path =
            std::env::temp_dir().join(format!("pc-bridge-{name}-{}.pct", std::process::id()));
        traceio::export(&workload, 42, &path).unwrap();
        let from_file = pc_tracefile::read_trace(&path).unwrap();

        for policy in [PolicySpec::Lru, PolicySpec::PaLru] {
            let a = run_replacement(&in_memory, &policy, &SimConfig::default());
            let b = run_replacement(&from_file, &policy, &SimConfig::default());
            assert_eq!(
                a.to_json(),
                b.to_json(),
                "{name}/{} file-backed replay must match in-memory",
                a.policy
            );
        }

        // The Params override routes every TraceKind to the file.
        let via_params = Params::quick().with_trace_file(path.clone());
        assert_eq!(via_params.trace(TraceKind::Oltp), from_file);
        assert_eq!(via_params.trace(TraceKind::Cello), from_file);
        std::fs::remove_file(&path).unwrap();
    }
}

/// The zero-copy ingest contract: simulating straight off a memory map
/// (`run_replacement_stream`, no materialized `Trace`, no sort) must
/// serialize byte-identically to materializing the file through
/// `read_trace`, for every family and for both an on-line and the
/// power-aware policy. The committed capture fixture
/// (`tests/data/corpus.pct`, 3 988 records off a live multi-connection
/// `pc-server`) rides along as the one input no generator wrote; its
/// connections interleave, so the map's records take the stable time
/// sort `read_trace` applies before they stream.
#[test]
fn streaming_off_the_map_matches_the_materialized_path_byte_for_byte() {
    use pc_experiments::traceio;
    use pc_sim::run_replacement_stream;
    use pc_trace::{Record, Workload};
    use pc_tracefile::MappedTrace;

    for name in ["synthetic", "oltp", "cello96", "corpus.pct"] {
        let exported = name != "corpus.pct";
        let path = if exported {
            let workload = Workload::parse(name).unwrap().with_requests(3_000);
            let path =
                std::env::temp_dir().join(format!("pc-stream-{name}-{}.pct", std::process::id()));
            traceio::export(&workload, 42, &path).unwrap();
            path
        } else {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/corpus.pct")
        };
        let materialized = pc_tracefile::read_trace(&path).unwrap();
        let map = MappedTrace::open(&path).unwrap();
        assert_eq!(map.len(), if exported { 3_000 } else { 3_988 }, "{name}");
        assert_eq!(map.is_time_sorted(), exported, "{name}");
        let resorted: Option<Vec<Record>> = (!exported).then(|| {
            let mut records: Vec<Record> = map.records().map(Result::unwrap).collect();
            records.sort_by_key(|r| r.time);
            records
        });

        for policy in [PolicySpec::Lru, PolicySpec::PaLru] {
            let a = run_replacement(&materialized, &policy, &SimConfig::default());
            let records: Box<dyn Iterator<Item = Record>> = match &resorted {
                None => Box::new(map.records().map(Result::unwrap)),
                Some(sorted) => Box::new(sorted.iter().copied()),
            };
            let b =
                run_replacement_stream(map.disk_count(), records, &policy, &SimConfig::default());
            assert_eq!(
                a.to_json(),
                b.to_json(),
                "{name}/{} streaming must match materialized",
                a.policy
            );
        }
        if exported {
            std::fs::remove_file(&path).unwrap();
        }
    }
}

/// `TraceSource` picks the streaming path for on-line policies and
/// falls back to one shared materialization for off-line ones — and
/// both routes must serialize identically to the plain in-memory run.
#[test]
fn trace_source_streams_online_and_falls_back_for_offline_policies() {
    use pc_experiments::{traceio, TraceSource};
    use pc_trace::Workload;
    use pc_tracefile::MappedTrace;

    let workload = Workload::parse("oltp").unwrap().with_requests(3_000);
    let path = std::env::temp_dir().join(format!("pc-source-{}.pct", std::process::id()));
    traceio::export(&workload, 42, &path).unwrap();
    let materialized = pc_tracefile::read_trace(&path).unwrap();
    let source = TraceSource::from_map(MappedTrace::open(&path).unwrap());

    // Belady needs the whole future: the source must not stream it.
    assert!(source.streams(&PolicySpec::Lru));
    assert!(!source.streams(&PolicySpec::Belady));

    for policy in [PolicySpec::Lru, PolicySpec::Belady] {
        let a = run_replacement(&materialized, &policy, &SimConfig::default());
        let b = source.run_replacement(&policy, &SimConfig::default());
        assert_eq!(a.to_json(), b.to_json(), "{} via TraceSource", a.policy);
    }
    std::fs::remove_file(&path).unwrap();
}

/// `read_trace`'s sorted fast path: a file written in time order (the
/// common case — every export and finalized capture) must produce
/// exactly the same `Trace` as one whose records arrive shuffled and
/// need the sorting fallback.
#[test]
fn read_trace_sorted_fast_path_is_an_identity() {
    use pc_trace::Workload;

    let workload = Workload::parse("cello96").unwrap().with_requests(2_000);
    let mut records: Vec<pc_trace::Record> = workload.clone().stream(17).collect();
    // Make every timestamp unique so the comparison is insensitive to
    // how the fallback's stable sort breaks ties.
    for (i, r) in records.iter_mut().enumerate() {
        r.time = pc_units::SimTime::from_micros(i as u64 * 5);
    }
    let mut shuffled = records.clone();
    shuffled.reverse();

    let dir = std::env::temp_dir();
    let sorted_path = dir.join(format!("pc-sorted-{}.pct", std::process::id()));
    let shuffled_path = dir.join(format!("pc-shuffled-{}.pct", std::process::id()));
    pc_tracefile::write_records(&sorted_path, workload.disk_count(), records.iter().copied())
        .unwrap();
    pc_tracefile::write_records(
        &shuffled_path,
        workload.disk_count(),
        shuffled.iter().copied(),
    )
    .unwrap();

    let fast = pc_tracefile::read_trace(&sorted_path).unwrap();
    let fallback = pc_tracefile::read_trace(&shuffled_path).unwrap();
    assert_eq!(fast, fallback, "sort-skipping must not change the trace");
    std::fs::remove_file(&sorted_path).unwrap();
    std::fs::remove_file(&shuffled_path).unwrap();
}

#[test]
fn all_generators_are_seed_deterministic() {
    assert_eq!(
        OltpConfig::default().with_requests(1_000).generate(1),
        OltpConfig::default().with_requests(1_000).generate(1)
    );
    assert_eq!(
        CelloConfig::default().with_requests(1_000).generate(1),
        CelloConfig::default().with_requests(1_000).generate(1)
    );
    assert_eq!(
        SyntheticConfig::default().with_requests(1_000).generate(1),
        SyntheticConfig::default().with_requests(1_000).generate(1)
    );
}
