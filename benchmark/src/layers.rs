//! The traced run's layer replays: each layer's captured input is
//! replayed through that layer's public functions alone, every batch of
//! calls inside a span, with counts taken at the same boundaries.
//!
//! Every replay takes the workload's own records, so the whole
//! layer × workload matrix is measured; `README.md` says which cells an
//! optimisation is predicted to move. Each pass starts from a fresh
//! layer (empty modelled cache), as the end-to-end cells do.

use std::hint::black_box;
use std::path::Path;

use pc_cache::policy::PaLruConfig;
use pc_cache::{BlockCache, BloomFilter, CacheStats, Effect, WritePolicy};
use pc_diskmodel::ServiceRequest;
use pc_disksim::DiskArray;
use pc_server::protocol::{
    encode_data_request, encode_request, encode_response, max_request_frame, FrameBuf, Request,
    Response,
};
use pc_server::{
    fill_block, queue, shard_of, BlockStore, EngineConfig, InProcCluster, ShardEngine,
};
use pc_sim::{run_replacement_stream, OnlineStepper, PolicySpec, SimConfig, SimReport};
use pc_trace::{Record, Trace, Workload};
use pc_tracefile::MappedTrace;
use pc_units::{DiskId, Joules, SimDuration, SimTime};

use crate::span::Tracer;
use crate::stats::median;
use crate::{sim, Checks};

/// Calls per span.
pub const BATCH: usize = 8192;

/// Requests the server-side replays take from the head of the trace.
const SERVER_HEAD: usize = 400_000;

/// Requests the payload replays take (each moves up to 32 KiB).
const PAYLOAD_HEAD: usize = 20_000;

const BLOCK_BYTES: usize = 4096;

pub struct Inputs<'a> {
    pub trace: &'a Trace,
    /// The trace exported as `.pct`.
    pub pct: &'a Path,
    pub gen_s: f64,
    pub export_s: f64,
    /// The generator behind the trace, for the streaming replay.
    pub stream: Workload,
    pub seed: u64,
}

pub struct Replay {
    pub metrics: Vec<(&'static str, f64)>,
    pub notes: Vec<String>,
    /// Wall seconds of the off-line (OPG) cell as the benchmark stepped
    /// it, `PolicySpec::build` included.
    pub offline_wall_s: f64,
}

impl Replay {
    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("layer replay did not measure {name}"))
            .1
    }
}

/// Runs `f` over `items` in span-wrapped batches; returns the summed
/// span time in ns.
fn timed<T>(tracer: &mut Tracer, name: &'static str, items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let mut ns = 0u64;
    for (batch, chunk) in items.chunks(BATCH).enumerate() {
        let span = tracer.open(name, None, batch as u64);
        for item in chunk {
            f(item);
        }
        ns += tracer.close(span);
    }
    ns as f64
}

/// One span around one call; returns `(result, ns)`.
fn once<T>(tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let span = tracer.open(name, None, 0);
    let value = f();
    (value, tracer.close(span) as f64)
}

/// One disk-side transfer as the stepper would issue it.
#[derive(Debug, Clone, Copy)]
struct Service {
    disk: DiskId,
    at: SimTime,
    request: ServiceRequest,
}

/// Merges an access's per-block effects into transfers exactly as
/// `OnlineStepper::step` does (contiguous, same disk, same direction),
/// so the recorded stream is the stepper's own call sequence.
fn record_services(effects: &[Effect], at: SimTime, out: &mut Vec<Service>) {
    let side = |e: &Effect| match *e {
        Effect::ReadDisk(b) => Some((b, true)),
        Effect::WriteDisk(b) => Some((b, false)),
        Effect::WriteLog(_) => None,
    };
    let mut i = 0;
    while i < effects.len() {
        let Some((first, read)) = side(&effects[i]) else {
            i += 1;
            continue;
        };
        let mut blocks = 1u64;
        while let Some((next, next_read)) = effects.get(i + blocks as usize).and_then(side) {
            if next_read != read
                || next.disk() != first.disk()
                || next.block().number() != first.block().number() + blocks
            {
                break;
            }
            blocks += 1;
        }
        out.push(Service {
            disk: first.disk(),
            at,
            request: ServiceRequest {
                block: first.block(),
                blocks,
            },
        });
        i += blocks as usize;
    }
}

struct Core {
    ns_per_access: f64,
    stats: CacheStats,
    /// The disk-side stream the pass emitted (when asked to record it).
    services: Vec<Service>,
}

/// `BlockCache::access` alone over the trace. With `record`, an untimed
/// first pass captures the effect stream; the timed pass never does.
fn core_pass(
    tracer: &mut Tracer,
    span: &'static str,
    trace: &Trace,
    spec: &PolicySpec,
    cfg: &SimConfig,
    record: bool,
) -> Core {
    let fresh = || {
        let policy = spec.build(trace, &cfg.power_model(), cfg.dpm, cfg.cache_blocks);
        BlockCache::new(cfg.cache_blocks, policy, cfg.write_policy)
    };
    let mut effects = Vec::new();
    let mut services = Vec::new();
    if record {
        let mut cache = fresh();
        for r in trace {
            cache.access(r, |_| false, &mut effects);
            record_services(&effects, r.time, &mut services);
        }
    }
    let mut cache = fresh();
    let ns = timed(tracer, span, trace.records(), |r| {
        black_box(cache.access(r, |_| false, &mut effects));
    });
    Core {
        ns_per_access: ns / trace.len() as f64,
        stats: cache.stats(),
        services,
    }
}

struct Disks {
    ns_per_service: f64,
    energy: Joules,
}

/// `DiskArray::service` over a recorded stream, books closed at the
/// stepper's horizon.
fn disksim_pass(
    tracer: &mut Tracer,
    span: &'static str,
    trace: &Trace,
    services: &[Service],
    cfg: &SimConfig,
) -> Disks {
    let mut array = DiskArray::new_configured(
        trace.disk_count(),
        cfg.power_model(),
        cfg.service.clone(),
        cfg.dpm,
        cfg.serve_at_speed,
    );
    let ns = timed(tracer, span, services, |s| {
        black_box(array.service(s.disk, s.at, s.request));
    });
    let last = trace.records().last().map_or(SimTime::ZERO, |r| r.time);
    array.finish(last.max(array.latest_completion()));
    Disks {
        ns_per_service: ns / services.len().max(1) as f64,
        energy: array.total_energy(),
    }
}

struct Stepped {
    step_ns: f64,
    build_ns: f64,
    report: SimReport,
}

/// The benchmark's own `OnlineStepper` loop: what `run_replacement` and
/// `run_write_policy` do, under spans.
fn step_pass(
    tracer: &mut Tracer,
    build_span: &'static str,
    step_span: &'static str,
    trace: &Trace,
    spec: &PolicySpec,
    cfg: &SimConfig,
) -> Stepped {
    let (policy, build_ns) = once(tracer, build_span, || {
        spec.build(trace, &cfg.power_model(), cfg.dpm, cfg.cache_blocks)
    });
    let mut stepper = OnlineStepper::new(trace.disk_count(), policy, cfg);
    let ns = timed(tracer, step_span, trace.records(), |r| {
        black_box(stepper.step(r));
    });
    Stepped {
        step_ns: ns / trace.len() as f64,
        build_ns,
        report: stepper.into_report(),
    }
}

/// What the spans themselves cost: the benchmark's stepper loop over
/// one cell with the tracer off and on, alternating, three reps each.
pub fn tracing_overhead_pct(trace: &Trace, spec: &PolicySpec, cfg: &SimConfig) -> f64 {
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        for (enabled, walls) in [(false, &mut off), (true, &mut on)] {
            let t0 = std::time::Instant::now();
            black_box(step_pass(
                &mut Tracer::new(enabled),
                "sim.build",
                "sim.step",
                trace,
                spec,
                cfg,
            ));
            walls.push(t0.elapsed().as_secs_f64());
        }
    }
    100.0 * (median(&on) / median(&off) - 1.0)
}

fn gb_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / ns.max(1.0)
}

fn per_s(count: usize, ns: f64) -> f64 {
    count as f64 / (ns.max(1.0) / 1e9)
}

/// Replays every layer over `inputs`.
pub fn replay_all(
    inputs: &Inputs<'_>,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> std::io::Result<Replay> {
    assert!(tracer.enabled(), "layer replays are timed by their spans");
    let trace = inputs.trace;
    let n = trace.len();
    let cfg = SimConfig::default();
    let power = cfg.power_model();
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let mut notes = Vec::new();
    let opg = PolicySpec::Opg {
        epsilon: Joules::ZERO,
    };

    // ---- core: BlockCache::access alone -------------------------------
    let lru_core = core_pass(tracer, "core.lru", trace, &PolicySpec::Lru, &cfg, true);
    let palru_core = core_pass(tracer, "core.palru", trace, &PolicySpec::PaLru, &cfg, true);
    let meta_core = core_pass(tracer, "core.meta", trace, &PolicySpec::Meta, &cfg, false);
    let opg_core = core_pass(tracer, "core.opg", trace, &opg, &cfg, false);
    let (_, opg_build_ns) = once(tracer, "core.opg_build", || {
        black_box(opg.build(trace, &power, cfg.dpm, cfg.cache_blocks));
    });
    m.push(("core.lru_ns_per_access", lru_core.ns_per_access));
    m.push(("core.palru_ns_per_access", palru_core.ns_per_access));
    m.push(("core.meta_ns_per_access", meta_core.ns_per_access));
    m.push(("core.opg_ns_per_access", opg_core.ns_per_access));
    m.push(("core.opg_build_s", opg_build_ns / 1e9));
    m.push(("core.hit_ratio", lru_core.stats.hit_ratio()));
    m.push(("core.evictions", lru_core.stats.evictions as f64));
    m.push((
        "core.disk_ops_per_req",
        (lru_core.stats.disk_reads + lru_core.stats.disk_writes) as f64 / n as f64,
    ));

    let bloom_cfg = PaLruConfig::default();
    let mut bloom = BloomFilter::new(bloom_cfg.bloom_bits, bloom_cfg.bloom_hashes);
    let ns = timed(tracer, "core.bloom", trace.records(), |r| {
        black_box(bloom.insert_check(r.block));
    });
    m.push(("core.bloom_ns_per_op", ns / n as f64));

    // ---- diskmodel: pricing over the recorded idle gaps ---------------
    let mut last_at = vec![None::<SimTime>; trace.disk_count() as usize];
    let gaps: Vec<SimDuration> = lru_core
        .services
        .iter()
        .filter_map(|s| {
            last_at[s.disk.as_usize()]
                .replace(s.at)
                .map(|prev| s.at - prev)
        })
        .collect();
    let mut joules = 0.0;
    let ns = timed(tracer, "diskmodel.pricing", &gaps, |gap| {
        joules +=
            power.lower_envelope(*gap).as_joules() + power.practical_idle_energy(*gap).as_joules();
    });
    black_box(joules);
    m.push((
        "diskmodel.pricing_ns_per_lookup",
        ns / (2 * gaps.len()).max(1) as f64,
    ));

    // ---- disksim: DiskArray::service over the recorded effects --------
    let lru_disks = disksim_pass(tracer, "disksim.lru", trace, &lru_core.services, &cfg);
    let palru_disks = disksim_pass(tracer, "disksim.palru", trace, &palru_core.services, &cfg);
    m.push(("disksim.ns_per_service", lru_disks.ns_per_service));

    // ---- sim: OnlineStepper::step, per policy and write policy --------
    let lru = step_pass(
        tracer,
        "sim.lru.build",
        "sim.lru",
        trace,
        &PolicySpec::Lru,
        &cfg,
    );
    let palru = step_pass(
        tracer,
        "sim.palru.build",
        "sim.palru",
        trace,
        &PolicySpec::PaLru,
        &cfg,
    );
    let opg_step = step_pass(tracer, "sim.opg.build", "sim.opg", trace, &opg, &cfg);
    let with = |w: WritePolicy| cfg.clone().with_write_policy(w);
    let wt = step_pass(
        tracer,
        "sim.wt.build",
        "sim.wt",
        trace,
        &PolicySpec::Lru,
        &with(WritePolicy::WriteThrough),
    );
    let wb = step_pass(
        tracer,
        "sim.wb.build",
        "sim.wb",
        trace,
        &PolicySpec::Lru,
        &with(WritePolicy::WriteBack),
    );
    let wbeu = step_pass(
        tracer,
        "sim.wbeu.build",
        "sim.wbeu",
        trace,
        &PolicySpec::Lru,
        &with(WritePolicy::Wbeu { dirty_limit: 64 }),
    );
    let wtdu = step_pass(
        tracer,
        "sim.wtdu.build",
        "sim.wtdu",
        trace,
        &PolicySpec::Lru,
        &with(WritePolicy::Wtdu),
    );
    m.push(("sim.lru_step_ns", lru.step_ns));
    m.push(("sim.palru_step_ns", palru.step_ns));
    m.push(("sim.opg_step_ns", opg_step.step_ns));
    m.push(("sim.wt_step_ns", wt.step_ns));
    m.push(("sim.wb_step_ns", wb.step_ns));
    m.push(("sim.wbeu_step_ns", wbeu.step_ns));
    m.push(("sim.wtdu_step_ns", wtdu.step_ns));
    m.push(("sim.log_writes", wtdu.report.cache.log_writes as f64));
    m.push((
        "sim.dirty_evictions",
        wb.report.cache.dirty_evictions as f64,
    ));
    m.push(("disksim.spin_ups", lru.report.total_spin_ups() as f64));
    let mut array_total = pc_disksim::DiskReport::new(power.mode_count());
    for d in &lru.report.disks {
        array_total.merge(d);
    }
    let standby = array_total.time_fractions().per_mode[power.mode_count() - 1];
    m.push(("disksim.standby_share", standby));

    // The replays must be the stepper's own work, or the decomposition
    // below decomposes something else.
    for (name, core, disks, stepped) in [
        ("lru", &lru_core, &lru_disks, &lru),
        ("pa-lru", &palru_core, &palru_disks, &palru),
    ] {
        let want = stepped.report.total_energy().as_joules();
        checks.require(core.stats == stepped.report.cache, || {
            format!("{name}: core replay counters differ from the stepper's")
        });
        checks.require(
            (disks.energy.as_joules() - want).abs() <= 1e-9 * want,
            || {
                format!(
                    "{name}: disksim replay books {} J, the stepper {want} J",
                    disks.energy.as_joules()
                )
            },
        );
        let disk_ns = disks.ns_per_service * core.services.len() as f64 / n as f64;
        let glue = (stepped.step_ns - core.ns_per_access - disk_ns).max(0.0);
        let accounted = (core.ns_per_access + disk_ns + glue) / stepped.step_ns;
        notes.push(format!(
            "{name}: step {:.1} ns = core {:.1} + disksim {:.1} + glue {:.1} (accounts for {:.0}% of the step; {:.3} services/request)",
            stepped.step_ns,
            core.ns_per_access,
            disk_ns,
            glue,
            100.0 * accounted,
            core.services.len() as f64 / n as f64
        ));
        if name == "lru" {
            m.push(("sim.glue_ns_per_req", glue));
        }
    }

    // ---- tracefile: mapped ingest, streaming sim, reader --------------
    m.push(("trace.gen_rec_per_s", n as f64 / inputs.gen_s));
    m.push(("tracefile.write_rec_per_s", n as f64 / inputs.export_s));
    let (pass, _) = once(tracer, "tracefile.mapped", || sim::ingest_pass(inputs.pct));
    let (count, fold, crcs, secs) = pass?;
    checks.require(
        count == n as u64 && fold == trace.iter().fold(0, sim::fold_record),
        || format!("mapped pass read {count} records (fold {fold:#x}) of {n}"),
    );
    m.push(("tracefile.mapped_rec_per_s", count as f64 / secs));
    m.push(("tracefile.crc_computations", crcs as f64));
    let (read, ns) = once(tracer, "tracefile.reader", || {
        pc_tracefile::read_trace(inputs.pct)
    });
    checks.require(read?.records() == trace.records(), || {
        "read_trace returned different records".to_owned()
    });
    m.push(("tracefile.reader_rec_per_s", per_s(n, ns)));
    let map = MappedTrace::open(inputs.pct)?;
    let (streamed, ns) = once(tracer, "sim.stream", || {
        run_replacement_stream(
            map.disk_count(),
            map.records()
                .map(|r| r.expect("the mapped pass above verified every chunk")),
            &PolicySpec::Lru,
            &cfg,
        )
    });
    checks.require(streamed == lru.report, || {
        "streaming off the map and stepping the trace disagree".to_owned()
    });
    m.push(("sim.stream_req_per_s", per_s(n, ns)));

    // ---- trace: the generator's streaming face ------------------------
    let head = &trace.records()[..n.min(SERVER_HEAD)];
    let mut stream = inputs
        .stream
        .clone()
        .with_requests(head.len())
        .stream(inputs.seed);
    let ns = timed(tracer, "trace.stream", head, |_| {
        black_box(stream.next());
    });
    m.push(("trace.stream_ns_per_rec", ns / head.len() as f64));

    // ---- crc ----------------------------------------------------------
    let mut blocks = vec![0u8; 1024 * BLOCK_BYTES];
    for (i, chunk) in blocks.chunks_exact_mut(BLOCK_BYTES).enumerate() {
        fill_block(0, i as u64, chunk);
    }
    let rounds = [(); 8];
    let ns = timed(tracer, "crc", &rounds, |()| {
        for chunk in blocks.chunks_exact(BLOCK_BYTES) {
            black_box(pc_crc::crc32c(black_box(chunk)));
        }
    });
    m.push(("crc.gb_per_s", gb_per_s(rounds.len() * blocks.len(), ns)));

    server_layers(head, trace.disk_count(), tracer, checks, &mut m);

    Ok(Replay {
        metrics: m,
        notes,
        offline_wall_s: (opg_step.build_ns + opg_step.step_ns * n as f64) / 1e9,
    })
}

fn wire_parts(r: &Record) -> (u32, u64, u16, bool) {
    (
        r.block.disk().index(),
        r.block.block().number(),
        u16::try_from(r.blocks).unwrap_or(u16::MAX),
        r.op.is_write(),
    )
}

/// Feeds `wire` through a `FrameBuf` as a socket would and decodes
/// every request; returns `(frames, ns)`.
fn decode_all(
    tracer: &mut Tracer,
    span: &'static str,
    wire: &[u8],
    mut frames: FrameBuf,
) -> (usize, f64) {
    let mut source = wire;
    let mut count = 0usize;
    let mut ns = 0u64;
    let mut batch = 0u64;
    loop {
        let id = tracer.open(span, None, batch);
        let read = frames
            .read_from(&mut source)
            .expect("reading a slice cannot fail");
        while let Some(request) = frames
            .next_request()
            .expect("the benchmark encoded these frames")
        {
            black_box(request);
            count += 1;
        }
        ns += tracer.close(id);
        batch += 1;
        if read == 0 {
            return (count, ns as f64);
        }
    }
}

/// The serving layers in isolation, over the head of the trace.
fn server_layers(
    head: &[Record],
    disks: u32,
    tracer: &mut Tracer,
    checks: &mut Checks,
    m: &mut Vec<(&'static str, f64)>,
) {
    // protocol: frame reassembly + decode, metadata and payload frames.
    let mut wire = Vec::with_capacity(head.len() * 23);
    for (seq, r) in head.iter().enumerate() {
        let (disk, block, blocks, write) = wire_parts(r);
        encode_request(
            &Request::Io {
                seq: seq as u32,
                write,
                disk,
                block,
                blocks,
            },
            &mut wire,
        );
    }
    let (count, ns) = decode_all(tracer, "server.protocol.decode", &wire, FrameBuf::new());
    checks.require(count == head.len(), || {
        format!("decoded {count} of {} frames", head.len())
    });
    m.push((
        "server.protocol.decode_ns_per_frame",
        ns / head.len() as f64,
    ));

    let data_head = &head[..head.len().min(2048)];
    let mut payload = Vec::new();
    wire.clear();
    for (seq, r) in data_head.iter().enumerate() {
        let (disk, block, blocks, _) = wire_parts(r);
        payload.resize(usize::from(blocks) * BLOCK_BYTES, 0);
        for (i, chunk) in payload.chunks_exact_mut(BLOCK_BYTES).enumerate() {
            fill_block(disk, block + i as u64, chunk);
        }
        encode_data_request(seq as u32, true, disk, block, blocks, &payload, &mut wire);
    }
    let frames = FrameBuf::new().with_max_frame(max_request_frame(BLOCK_BYTES));
    let (count, ns) = decode_all(tracer, "server.protocol.decode_data", &wire, frames);
    checks.require(count == data_head.len(), || {
        format!("decoded {count} of {} data frames", data_head.len())
    });
    m.push((
        "server.protocol.decode_data_ns_per_frame",
        ns / data_head.len() as f64,
    ));

    let mut out = Vec::with_capacity(BATCH * 14);
    let mut ns = 0u64;
    for (batch, chunk) in head.chunks(BATCH).enumerate() {
        out.clear();
        let span = tracer.open("server.protocol.encode", None, batch as u64);
        for (i, r) in chunk.iter().enumerate() {
            let resp = Response::Io {
                seq: i as u32,
                hit: r.op.is_write(),
                response_us: 200,
            };
            encode_response(&resp, &mut out);
        }
        ns += tracer.close(span);
        black_box(&out);
    }
    m.push((
        "server.protocol.encode_ns_per_frame",
        ns as f64 / head.len() as f64,
    ));

    // queue: one admission hop (reserve, push, pop), uncontended.
    let (tx, rx) = queue::bounded::<u32>(pc_server::DEFAULT_QUEUE_BOUND);
    let ns = timed(tracer, "server.queue.hop", head, |_| {
        if tx.try_reserve(1).is_ok() {
            tx.push_reserved(1, 1);
        }
        black_box(rx.pop());
    });
    m.push(("server.queue.hop_ns", ns / head.len() as f64));

    // shard: the engine step behind the queue, and the whole in-process
    // cluster over the same records.
    let engine_cfg = EngineConfig::new(2, disks).with_block_bytes(BLOCK_BYTES);
    let mut engines: Vec<ShardEngine> = (0..2).map(|i| ShardEngine::new(i, &engine_cfg)).collect();
    let ns = timed(tracer, "server.shard.ingest", head, |r| {
        let (disk, block, blocks, write) = wire_parts(r);
        let shard = shard_of(r.block.disk(), r.block.block(), engines.len());
        black_box(engines[shard].ingest(r.time, disk, block, u64::from(blocks), write));
    });
    m.push(("server.shard.ingest_ns_per_req", ns / head.len() as f64));
    let mut cluster = InProcCluster::new(&engine_cfg);
    let ns = timed(tracer, "server.shard.inproc", head, |r| {
        black_box(cluster.submit(r));
    });
    checks.require(
        cluster.snapshot().total_requests() == head.len() as u64,
        || "in-process cluster dropped requests".to_owned(),
    );
    m.push(("server.shard.inproc_req_per_s", per_s(head.len(), ns)));

    // shard payload plane: as the shard thread calls it, right after the
    // metadata step of the same request (which is not timed here).
    let payload_head = &head[..head.len().min(PAYLOAD_HEAD)];
    let mut engine = ShardEngine::new(0, &engine_cfg);
    let mut reply = Vec::new();
    let (mut read_ns, mut read_bytes, mut write_ns, mut write_bytes) = (0u64, 0usize, 0u64, 0usize);
    for (batch, chunk) in payload_head.chunks(BATCH).enumerate() {
        let outer = tracer.open("server.shard.payload", None, batch as u64);
        for r in chunk {
            let (disk, block, blocks, write) = wire_parts(r);
            engine.ingest(r.time, disk, block, u64::from(blocks), write);
            let bytes = usize::from(blocks) * BLOCK_BYTES;
            if write {
                payload.resize(bytes, 0);
                let span = tracer.open("server.shard.write_payload", Some(outer), batch as u64);
                engine.write_payload(disk, block, u64::from(blocks), &payload);
                write_ns += tracer.close(span);
                write_bytes += bytes;
            } else {
                reply.clear();
                let span = tracer.open("server.shard.read_payload", Some(outer), batch as u64);
                let clean = engine.read_payload_into(disk, block, u64::from(blocks), &mut reply);
                read_ns += tracer.close(span);
                read_bytes += bytes;
                checks.require(clean && reply.len() == bytes, || {
                    format!(
                        "read_payload_into returned {} of {bytes} bytes",
                        reply.len()
                    )
                });
            }
        }
        tracer.close(outer);
    }
    m.push((
        "server.shard.read_payload_gb_per_s",
        gb_per_s(read_bytes, read_ns as f64),
    ));
    m.push((
        "server.shard.write_payload_gb_per_s",
        gb_per_s(write_bytes, write_ns as f64),
    ));

    // data: the slab store's three operations over one cache's worth of
    // slots.
    let slots: Vec<usize> = (0..4096).collect();
    let mut store = BlockStore::new(BLOCK_BYTES, 0);
    let bytes = slots.len() * BLOCK_BYTES;
    let ns = timed(tracer, "server.data.fill", &slots, |&s| {
        store.fill(s, 1, s as u64)
    });
    m.push(("server.data.fill_gb_per_s", gb_per_s(bytes, ns)));
    let ns = timed(tracer, "server.data.read_verified", &slots, |&s| {
        reply.clear();
        black_box(store.read_into(Some(s), 1, s as u64, &mut reply));
    });
    m.push(("server.data.read_verified_gb_per_s", gb_per_s(bytes, ns)));
    let block = vec![0xA5u8; BLOCK_BYTES];
    let ns = timed(tracer, "server.data.store", &slots, |&s| {
        store.store(s, 2, s as u64, &block)
    });
    checks.require(store.crc_failures() == 0, || {
        "slab replay saw CRC failures".to_owned()
    });
    m.push(("server.data.store_gb_per_s", gb_per_s(bytes, ns)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_trace::{CelloConfig, OltpConfig};

    /// Every replay on a small trace: the replays' own cross-checks
    /// (core counters, disksim energy, streamed report, record folds)
    /// must hold, and every layer metric that needs no live server must
    /// come out.
    #[test]
    fn replays_reproduce_the_stepper_on_small_traces() {
        let families = [
            Workload::Oltp(OltpConfig::default().with_requests(6_000)),
            Workload::Cello(CelloConfig::default().with_requests(6_000)),
        ];
        for (i, family) in families.into_iter().enumerate() {
            let trace = Trace::from_records(family.disk_count(), family.stream(11).collect());
            let pct = crate::out_dir()
                .unwrap()
                .join(format!("layers-test-{}-{i}.pct", std::process::id()));
            pc_tracefile::write_trace(&pct, &trace).unwrap();
            let mut tracer = Tracer::new(true);
            let mut checks = Checks::default();
            let replay = replay_all(
                &Inputs {
                    trace: &trace,
                    pct: &pct,
                    gen_s: 0.01,
                    export_s: 0.01,
                    stream: family,
                    seed: 11,
                },
                &mut tracer,
                &mut checks,
            );
            std::fs::remove_file(&pct).unwrap();
            let replay = replay.unwrap();
            assert_eq!(checks.failed, 0, "{:?}", checks.messages);
            let live_only = |n: &str| {
                n.starts_with("server.stats.")
                    || n.starts_with("client.")
                    || n.contains("lat_p")
                    || n == "server.frontend_us_per_req"
                    || n == "bench.tracing_overhead_pct"
            };
            for layer in crate::catalog::PER_LAYER
                .iter()
                .filter(|l| !live_only(l.name))
            {
                assert!(replay.get(layer.name).is_finite(), "{}", layer.name);
            }
            assert_eq!(replay.get("tracefile.crc_computations"), 2.0);
            assert!(replay.offline_wall_s > 0.0 && tracer.len() > 20);
        }
    }

    #[test]
    fn services_coalesce_like_the_stepper() {
        use pc_units::{BlockId, BlockNo};
        let b = |d, n| BlockId::new(DiskId::new(d), BlockNo::new(n));
        let effects = [
            Effect::WriteDisk(b(0, 9)),
            Effect::ReadDisk(b(1, 4)),
            Effect::ReadDisk(b(1, 5)),
            Effect::WriteLog(b(1, 5)),
            Effect::ReadDisk(b(1, 6)),
            Effect::ReadDisk(b(2, 7)),
        ];
        let mut out = Vec::new();
        record_services(&effects, SimTime::from_millis(3), &mut out);
        let got: Vec<_> = out
            .iter()
            .map(|s| (s.disk.index(), s.request.block.number(), s.request.blocks))
            .collect();
        // A direction change, a log append and a disk change each end a run.
        assert_eq!(got, [(0, 9, 1), (1, 4, 2), (1, 6, 1), (2, 7, 1)]);
    }
}
