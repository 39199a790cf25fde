//! End-to-end tests of the serving layer: a real `pc-server` on a
//! loopback socket driven by the real load generator — including the
//! overload protocol (bounded queues, `BUSY`, retry/backoff) under
//! fault injection — plus the deterministic in-process cluster.

use std::sync::atomic::Ordering;
use std::time::Duration;

use pc_server::{
    parse_stats_json, run_tcp, ClusterSnapshot, EngineConfig, InProcCluster, LoadgenConfig, Server,
    SlowShard,
};
use pc_sim::PolicySpec;
use pc_trace::Workload;
use pc_units::Joules;

#[test]
fn loadgen_drives_a_sharded_server_end_to_end() {
    let shards = 4;
    let engine = EngineConfig::new(shards, 4).with_policy(PolicySpec::PaLru);
    let server = Server::bind("127.0.0.1:0", engine).expect("bind loopback");
    let addr = server.local_addr().unwrap().to_string();
    let stop = server.stop_flag();
    let daemon = std::thread::spawn(move || server.run().expect("server run"));

    let report = run_tcp(&LoadgenConfig {
        conns: 4,
        secs: 0.5,
        ..LoadgenConfig::new(addr)
    })
    .expect("load generation");

    assert!(report.responses > 0, "no responses came back");
    // Every send is answered exactly once: an I/O reply or a BUSY.
    assert_eq!(
        report.sent,
        report.responses + report.busy_rejects,
        "responses were lost"
    );
    assert!(report.hit_ratio() > 0.0, "zipf traffic must hit sometimes");

    // The STATS snapshot parsed and covers every shard with real energy.
    let summary = parse_stats_json(&report.stats_json).expect("stats JSON parses");
    assert_eq!(summary.shard_energy_j.len(), shards);
    assert!(
        summary.shard_energy_j.iter().all(|&e| e > 0.0),
        "every active shard accounts energy: {:?}",
        summary.shard_energy_j
    );
    assert!(summary.requests >= report.responses);

    // Graceful drain: flag, join, closed books in the final snapshot.
    stop.store(true, Ordering::Relaxed);
    let run = daemon.join().expect("daemon thread");
    assert_eq!(run.snapshot.total_requests(), report.responses);
    assert!(run.snapshot.total_energy() > Joules::ZERO);
    // Final (closed-books) energy is at least the live STATS energy.
    assert!(run.snapshot.total_energy().as_joules() >= summary.energy_j - 1e-9);
}

#[test]
fn shutdown_opcode_drains_the_server() {
    let server = Server::bind("127.0.0.1:0", EngineConfig::new(2, 2)).expect("bind");
    let addr = server.local_addr().unwrap().to_string();
    let daemon = std::thread::spawn(move || server.run().expect("server run"));
    pc_server::loadgen::send_shutdown(&addr).expect("shutdown handshake");
    let run = daemon.join().expect("daemon thread");
    assert_eq!(run.snapshot.total_requests(), 0);
}

/// Serves `seed`'s stream of `workload` through an in-process cluster:
/// the hits it saw and the closed books.
fn in_process(engine: &EngineConfig, workload: &Workload, seed: u64) -> (u64, ClusterSnapshot) {
    let mut cluster = InProcCluster::new(engine);
    let hits = workload
        .stream(seed)
        .map(|record| u64::from(cluster.submit(&record).hit))
        .sum();
    (hits, cluster.into_snapshot())
}

#[test]
fn in_process_mode_matches_itself_across_runs_for_every_workload() {
    for name in ["synthetic", "oltp", "cello96"] {
        let workload = Workload::parse(name).unwrap().with_requests(3_000);
        let engine = EngineConfig::new(3, workload.disk_count());
        let (hits1, snap1) = in_process(&engine, &workload, 11);
        let (hits2, snap2) = in_process(&engine, &workload, 11);
        assert_eq!(snap1.total_requests(), 3_000, "{name}: every record served");
        assert_eq!(hits1, hits2, "{name}");
        assert_eq!(
            snap1.to_json(),
            snap2.to_json(),
            "{name}: snapshots diverged"
        );
        assert!(snap1.total_energy() > Joules::ZERO, "{name}");
    }
}

#[test]
fn tcp_overload_bounces_busy_and_closes_the_books() {
    // Fault injection on the real TCP path: shard 0 sleeps 300 µs per
    // request behind an 8-deep queue, so a paced flood must observe
    // BUSY; backoff retries deliver what the budget allows, and the
    // server's closing books cover exactly the I/O replies.
    let engine = EngineConfig::new(4, 4)
        .with_queue_bound(8)
        .with_slow_shard(SlowShard {
            shard: 0,
            micros: 300,
        });
    let server = Server::bind("127.0.0.1:0", engine).expect("bind loopback");
    let addr = server.local_addr().unwrap().to_string();
    let stop = server.stop_flag();
    let daemon = std::thread::spawn(move || server.run().expect("server run"));

    let report = run_tcp(&LoadgenConfig {
        conns: 4,
        secs: 0.6,
        rate: Some(20_000.0),
        ..LoadgenConfig::new(addr)
    })
    .expect("load generation");

    assert!(report.busy_rejects > 0, "a full queue must answer BUSY");
    assert!(report.retries > 0, "BUSY must trigger backoff retries");
    assert_eq!(
        report.sent,
        report.responses + report.busy_rejects,
        "every send must be answered exactly once (IO or BUSY)"
    );
    assert!(
        report.stats.busy_rejects >= report.busy_rejects,
        "server-side reject counter must cover client-observed BUSYs"
    );
    assert!(report.stats.queue_high_water > 0);

    stop.store(true, Ordering::Relaxed);
    let run = daemon.join().expect("daemon thread");
    assert_eq!(
        run.snapshot.total_requests(),
        report.responses,
        "books must close over exactly the admitted requests"
    );
    assert!(run.snapshot.total_energy() > Joules::ZERO);
}

#[test]
fn the_client_window_converges_on_what_the_server_admits() {
    // Two shards admitting 64 requests each, far below the 32 k a
    // connection may keep in flight: an unpaced closed loop must learn
    // the server's admission from BUSY, so that backing off absorbs
    // every bounce and no request runs out of retries.
    let engine = EngineConfig::new(2, 4).with_queue_bound(64);
    let server = Server::bind("127.0.0.1:0", engine).expect("bind loopback");
    let addr = server.local_addr().unwrap().to_string();
    let stop = server.stop_flag();
    let daemon = std::thread::spawn(move || server.run().expect("server run"));

    let report = run_tcp(&LoadgenConfig {
        conns: 4,
        secs: 0.5,
        ..LoadgenConfig::new(addr)
    })
    .expect("load generation");

    assert_eq!(
        report.exhausted,
        0,
        "backoff must absorb every BUSY: {}",
        report.render()
    );
    assert_eq!(
        report.sent,
        report.responses + report.busy_rejects,
        "every send must be answered exactly once (IO or BUSY)"
    );
    assert!(report.responses > 0, "no responses came back");
    assert!(
        report.window_min >= 1 && report.window_max < 32 * 1024,
        "every window must end below the cap: {}..{}",
        report.window_min,
        report.window_max
    );

    stop.store(true, Ordering::Relaxed);
    let run = daemon.join().expect("daemon thread");
    assert_eq!(
        run.snapshot.total_requests(),
        report.responses,
        "books must close over exactly the admitted requests"
    );
}

#[test]
fn payload_mode_round_trips_verified_block_contents() {
    // The protocol-v2 data plane end to end: WRITE_DATA carries real
    // block contents into the slab store, READ_DATA serves CRC-verified
    // frames back, and the load generator checks every DATA reply
    // against the deterministic disk image byte for byte.
    let engine = EngineConfig::new(2, 4)
        .with_policy(PolicySpec::PaLru)
        .with_block_bytes(512);
    let server = Server::bind("127.0.0.1:0", engine).expect("bind loopback");
    let addr = server.local_addr().unwrap().to_string();
    let stop = server.stop_flag();
    let daemon = std::thread::spawn(move || server.run().expect("server run"));

    let report = run_tcp(&LoadgenConfig {
        conns: 2,
        secs: 0.4,
        payload: true,
        block_bytes: 512,
        ..LoadgenConfig::new(addr)
    })
    .expect("payload load generation");

    assert!(report.responses > 0, "no responses came back");
    assert!(
        report.payload_bytes > 0,
        "payload mode must move actual block contents"
    );
    assert_eq!(
        report.verify_failures, 0,
        "every DATA reply must match the disk image exactly"
    );
    assert_eq!(report.corrupt, 0, "no fault injection, no CORRUPT replies");
    assert_eq!(
        report.stats.crc_failures, 0,
        "a healthy slab never fails CRC verification"
    );
    assert!(report.hit_ratio() > 0.0, "zipf traffic must hit sometimes");
    let rendered = report.render();
    assert!(
        rendered.contains("payload:"),
        "payload runs must print the payload accounting line:\n{rendered}"
    );

    stop.store(true, Ordering::Relaxed);
    let run = daemon.join().expect("daemon thread");
    assert_eq!(run.snapshot.total_requests(), report.responses);
    assert!(run.snapshot.total_energy() > Joules::ZERO);
}

#[test]
fn injected_slab_corruption_surfaces_as_corrupt_replies_and_stats() {
    // CRC fault injection: `corrupt_every = 1` damages one slab byte
    // before every verified read, so resident reads must answer
    // CORRUPT (never silently serve damaged bytes), the STATS snapshot
    // must count every failure, and the store must recover the frame —
    // the DATA replies that do come back still match the image.
    let engine = EngineConfig::new(2, 4)
        .with_block_bytes(512)
        .with_corrupt_every(1);
    let server = Server::bind("127.0.0.1:0", engine).expect("bind loopback");
    let addr = server.local_addr().unwrap().to_string();
    let stop = server.stop_flag();
    let daemon = std::thread::spawn(move || server.run().expect("server run"));

    let report = run_tcp(&LoadgenConfig {
        conns: 2,
        secs: 0.4,
        payload: true,
        block_bytes: 512,
        ..LoadgenConfig::new(addr)
    })
    .expect("payload load generation");

    assert!(
        report.corrupt > 0,
        "every verified resident read is damaged, so CORRUPT must surface"
    );
    assert!(
        report.stats.crc_failures >= report.corrupt,
        "server-side crc_failures ({}) must cover client-observed CORRUPTs ({})",
        report.stats.crc_failures,
        report.corrupt
    );
    assert_eq!(
        report.verify_failures, 0,
        "damaged frames answer CORRUPT; served DATA must still be pristine"
    );
    assert!(
        report.payload_bytes > 0,
        "non-resident reads still serve the disk image"
    );

    stop.store(true, Ordering::Relaxed);
    daemon.join().expect("daemon thread");
}

#[test]
fn capture_records_a_live_run_and_the_file_replays_over_the_wire() {
    // The full capture → replay loop: a server with --capture records
    // every admitted request into a .pct trace; the file must hold
    // exactly the admitted requests (recorded + dropped accounting),
    // live STATS must surface the capture gauges, and replaying the
    // file through a fresh server via `--trace` must serve every
    // record it contains.
    let dir = std::env::temp_dir();
    let path = dir.join(format!("pc-e2e-capture-{}.pct", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let engine = EngineConfig::new(2, 4).with_policy(PolicySpec::PaLru);
    let server = Server::bind("127.0.0.1:0", engine)
        .expect("bind loopback")
        .with_capture(path.clone());
    let addr = server.local_addr().unwrap().to_string();
    let stop = server.stop_flag();
    let daemon = std::thread::spawn(move || server.run().expect("server run"));

    let report = run_tcp(&LoadgenConfig {
        conns: 2,
        secs: 0.4,
        ..LoadgenConfig::new(addr)
    })
    .expect("load generation");
    assert!(report.responses > 0);
    assert!(
        report.stats.capture_recorded > 0,
        "live STATS must surface the capture gauges"
    );

    stop.store(true, Ordering::Relaxed);
    let run = daemon.join().expect("daemon thread");
    let cap = run.capture.expect("capturing run must report the capture");
    assert_eq!(cap.path, path);
    assert_eq!(
        cap.written + cap.dropped,
        run.snapshot.total_requests(),
        "every admitted request is either in the file or drop-counted"
    );

    let trace = pc_tracefile::read_trace(&path).expect("captured file parses");
    assert_eq!(trace.len() as u64, cap.written);
    assert!(
        trace.records().windows(2).all(|w| w[0].time <= w[1].time),
        "read_trace returns a time-sorted trace"
    );

    // Replay the captured file against a fresh server.
    let replay_server =
        Server::bind("127.0.0.1:0", EngineConfig::new(2, 4)).expect("bind replay server");
    let replay_addr = replay_server.local_addr().unwrap().to_string();
    let replay_stop = replay_server.stop_flag();
    let replay_daemon = std::thread::spawn(move || replay_server.run().expect("replay run"));

    let replay = run_tcp(&LoadgenConfig {
        conns: 2,
        secs: 30.0, // Finite trace: the run ends when the records do.
        trace: Some(path.clone()),
        ..LoadgenConfig::new(replay_addr)
    })
    .expect("trace replay");
    assert_eq!(
        replay.sent - replay.retries,
        cap.written,
        "replay must first-send exactly the captured records"
    );
    assert_eq!(replay.sent, replay.responses + replay.busy_rejects);

    replay_stop.store(true, Ordering::Relaxed);
    replay_daemon.join().expect("replay daemon");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn a_server_that_never_replies_cannot_hang_the_client() {
    // A listener that accepts and then goes silent: the load
    // generator's socket timeouts must surface an error instead of
    // blocking forever.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap().to_string();
    let _keep_alive = std::thread::spawn(move || {
        let mut held = Vec::new();
        while let Ok((sock, _)) = listener.accept() {
            held.push(sock); // Accept, hold open, never read or write.
        }
    });

    let started = std::time::Instant::now();
    let result = run_tcp(&LoadgenConfig {
        conns: 1,
        secs: 0.2,
        io_timeout: Duration::from_millis(300),
        ..LoadgenConfig::new(addr)
    });
    assert!(result.is_err(), "a silent server must surface as an error");
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "the client must give up long before a human does"
    );
}

#[test]
fn a_pipelined_batch_straddling_queue_capacity_splits_into_io_then_busy() {
    use pc_server::protocol::{encode_request, FrameBuf, Request, Response};
    use std::io::Write;

    // One shard, 4-deep queue, 5 ms service delay: a 32-request batch
    // written in a single syscall lands as one readable event, so the
    // event loop's single `try_reserve` must split it — head admitted,
    // tail bounced BUSY — with every request answered exactly once.
    let engine = EngineConfig::new(1, 4)
        .with_queue_bound(4)
        .with_slow_shard(SlowShard {
            shard: 0,
            micros: 5_000,
        });
    let server = Server::bind("127.0.0.1:0", engine).expect("bind loopback");
    let addr = server.local_addr().unwrap();
    let stop = server.stop_flag();
    let daemon = std::thread::spawn(move || server.run().expect("server run"));

    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    const BATCH: u32 = 32;
    let mut wire = Vec::new();
    for seq in 0..BATCH {
        encode_request(
            &Request::Io {
                seq,
                write: false,
                disk: 0,
                block: u64::from(seq) * 13,
                blocks: 1,
            },
            &mut wire,
        );
    }
    stream.write_all(&wire).expect("one-shot batch write");

    let mut fb = FrameBuf::new();
    let (mut served, mut busy) = (0u64, 0u64);
    let mut answered = std::collections::HashSet::new();
    while answered.len() < BATCH as usize {
        match fb.next_response().expect("well-formed response stream") {
            Some(Response::Io { seq, .. }) => {
                assert!(answered.insert(seq), "seq {seq} answered twice");
                served += 1;
            }
            Some(Response::Busy { seq, .. }) => {
                assert!(answered.insert(seq), "seq {seq} answered twice");
                busy += 1;
            }
            Some(other) => panic!("unexpected response {other:?}"),
            None => {
                let n = fb.read_from(&mut stream).expect("read responses");
                assert!(
                    n > 0,
                    "server closed with {} unanswered",
                    BATCH as usize - answered.len()
                );
            }
        }
    }
    assert_eq!(served + busy, u64::from(BATCH), "IO-or-BUSY, exactly once");
    assert!(served > 0, "the queue admits the head of the batch");
    assert!(busy > 0, "the tail past capacity must bounce BUSY");
    drop(stream);

    stop.store(true, Ordering::Relaxed);
    let run = daemon.join().expect("daemon thread");
    assert_eq!(
        run.snapshot.total_requests(),
        served,
        "books must close over exactly the admitted half of the batch"
    );
}

#[cfg(target_os = "linux")]
#[test]
fn event_loop_holds_hundreds_of_mostly_idle_connections() {
    // A scaled-down CI-shape of the high-count mode: 2 hot streams plus
    // ~300 mostly-idle sockets held through the run. The final STATS
    // snapshot must see the idle population on the IO-thread gauges,
    // and the books must still balance exactly.
    const TOTAL: usize = 300;
    let engine = EngineConfig::new(2, 4).with_policy(PolicySpec::PaLru);
    let server = Server::bind("127.0.0.1:0", engine).expect("bind loopback");
    let addr = server.local_addr().unwrap().to_string();
    let stop = server.stop_flag();
    let daemon = std::thread::spawn(move || server.run().expect("server run"));

    let report = run_tcp(&LoadgenConfig {
        conns: 2,
        connections: TOTAL,
        secs: 0.4,
        ..LoadgenConfig::new(addr)
    })
    .expect("high-count load generation");

    let idle = (TOTAL - 2) as u64;
    assert_eq!(
        report.idle_conns, idle,
        "every idle socket answered its probe"
    );
    assert_eq!(
        report.sent,
        report.responses + report.busy_rejects,
        "idle probes are in the books too"
    );
    assert!(
        report.stats.io_connections >= idle,
        "the snapshot must observe the idle population: io_connections={} < {idle}",
        report.stats.io_connections
    );
    let rendered = report.render();
    assert!(
        rendered.contains("conn-scale:"),
        "high-count runs must print the conn-scale accounting line:\n{rendered}"
    );

    stop.store(true, Ordering::Relaxed);
    let run = daemon.join().expect("daemon thread");
    assert_eq!(run.snapshot.total_requests(), report.responses);
    assert!(run.snapshot.total_energy() > Joules::ZERO);
}
