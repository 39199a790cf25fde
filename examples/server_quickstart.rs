//! Quickstart for the serving layer: boot a sharded `pc-server` on a
//! loopback port, replay a short synthetic burst through `pc-loadgen`'s
//! library entry point, then drain the daemon and print both sides'
//! reports; finally serve a synthetic stream through the deterministic
//! in-process cluster. Run with:
//!
//! ```text
//! cargo run --release --example server_quickstart
//! ```

use pc_server::{run_tcp, EngineConfig, InProcCluster, LoadgenConfig, Server};
use pc_sim::PolicySpec;
use pc_trace::Workload;

fn main() -> std::io::Result<()> {
    // --- TCP mode: the real daemon on an ephemeral loopback port. ---
    let engine = EngineConfig::new(4, 4).with_policy(PolicySpec::PaLru);
    let server = Server::bind("127.0.0.1:0", engine.clone())?;
    let addr = server.local_addr()?.to_string();
    let stop = server.stop_flag();
    let daemon = std::thread::spawn(move || server.run());

    let load = LoadgenConfig {
        conns: 4,
        secs: 1.0,
        ..LoadgenConfig::new(addr)
    };
    let report = run_tcp(&load)?;
    println!("--- load generator ---");
    print!("{}", report.render());

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let summary = daemon.join().expect("daemon thread")?;
    println!("--- server closing report ---");
    print!("{}", summary.snapshot.render_table());

    // --- In-process mode: same path, no sockets, fully deterministic. ---
    let workload = Workload::parse("synthetic").unwrap().with_requests(50_000);
    let mut cluster = InProcCluster::new(&engine);
    let mut hits = 0u64;
    for record in workload.stream(42) {
        hits += u64::from(cluster.submit(&record).hit);
    }
    let snapshot = cluster.into_snapshot();
    println!("--- in-process (deterministic) ---");
    println!(
        "served={} hits={} energy_j={:.2}",
        snapshot.total_requests(),
        hits,
        snapshot.total_energy().as_joules()
    );
    Ok(())
}
