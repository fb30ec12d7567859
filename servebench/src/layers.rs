//! The traced run's layer probes. Each probe calls one layer's public
//! functions from outside the program, on the inputs the open-loop phase
//! actually served, inside spans; the per-layer metrics are derived from the
//! spans' self times plus the counters the layers already export.

use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use stl_core::{EnginePool, QueryProfile, Stl, UpdateStats};
use stl_graph::{EdgeUpdate, VertexId};
use stl_server::wal::WalWriter;
use stl_server::{
    AdaptiveBatcher, BatchOutcome, BatcherConfig, DurabilityConfig, NetClient, NetStats,
    ServerStats, Snapshot,
};

use crate::deploy::Deployment;
use crate::load::{wait_until, OpenLoop};
use crate::stats::{mean, q, ratio};
use crate::trace::{Tracer, ROOT};
use crate::workload::{Inputs, ReadOp, Topology};
use crate::Metric;

/// Recorded requests replayed per probe.
const POINT_REPLAY: usize = 20_000;
const MANY_REPLAY: usize = 2_000;
const NET_REPLAY: usize = 4_000;
const ROUTER_REPLAY: usize = 3_000;
const ROUTER_UPDATES: usize = 30;
/// Leading stretch of the recorded update schedule the batcher probe replays.
const BATCHER_REPLAY: Duration = Duration::from_secs(6);

/// What the traced run hands the probes.
pub struct Traced<'a> {
    pub dep: &'a Deployment,
    pub topology: Topology,
    pub inputs: &'a Inputs,
    pub ol: &'a OpenLoop,
    /// The first published snapshot, the state the recorded updates start from.
    pub gen0: Arc<Snapshot>,
    /// Counters read right after the open-loop phase, before any probe.
    pub server: ServerStats,
    pub nets: Vec<NetStats>,
    /// Median point queries/s of the closed-loop capacity phase.
    pub closed_loop_qps: f64,
    pub dir: &'a Path,
}

fn io<T>(r: std::io::Result<T>, what: &str) -> Result<T, String> {
    r.map_err(|e| format!("{what}: {e}"))
}

/// The applied update requests merged per acknowledged sequence number, in
/// sequence order — the batches the writer applied.
fn batches(inputs: &Inputs, ol: &OpenLoop) -> Vec<(u64, Vec<EdgeUpdate>)> {
    let mut acked = ol.acked.clone();
    acked.sort_unstable();
    let mut out: Vec<(u64, Vec<EdgeUpdate>)> = Vec::new();
    for (seq, i) in acked {
        match out.last_mut() {
            Some((s, edges)) if *s == seq => edges.extend_from_slice(&inputs.updates[i].edges),
            _ => out.push((seq, inputs.updates[i].edges.clone())),
        }
    }
    out
}

pub fn measure(t: &Traced, tracer: &mut Tracer) -> Result<Vec<Metric>, String> {
    let pairs: Vec<(VertexId, VertexId)> = t
        .inputs
        .reads
        .iter()
        .filter_map(|r| match r.op {
            ReadOp::Point(s, d) => Some((s, d)),
            ReadOp::Many(..) => None,
        })
        .collect();
    let many: Vec<(VertexId, &[VertexId])> = t
        .inputs
        .reads
        .iter()
        .filter_map(|r| match &r.op {
            ReadOp::Many(s, ts) => Some((*s, ts.as_slice())),
            ReadOp::Point(..) => None,
        })
        .take(MANY_REPLAY)
        .collect();
    let batches = batches(t.inputs, t.ol);
    let mut m = Vec::new();
    let mut put = |name: &'static str, value: f64, unit: &'static str| {
        m.push(Metric { name, value, unit });
    };

    // partition / labelling: the set-up spans.
    put("partition.build_s", tracer.total_s("Hierarchy::build"), "s");
    put("labelling.build_s", tracer.total_s("Stl::build_with_hierarchy_parallel"), "s");
    put("labelling.label_entries", t.dep.label_entries as f64, "count");

    // query / spine, on the snapshot the run ended on.
    let snap = t.dep.servers[0].snapshot();
    let stl: &Stl = snap.stl();
    let p = tracer.open("probe.query", ROOT, 0);
    for (i, &(s, d)) in pairs.iter().take(POINT_REPLAY).enumerate() {
        tracer.span("Stl::query", p, i as u64, || black_box(stl.query(s, d)));
    }
    tracer.close(p);
    let mut prof = QueryProfile::default();
    tracer.span("Stl::query_profiled", ROOT, 0, || {
        for &(s, d) in pairs.iter().take(POINT_REPLAY) {
            black_box(stl.query_profiled(s, d, &mut prof));
        }
    });
    let p = tracer.open("probe.many", ROOT, 0);
    let mut out = Vec::new();
    for (i, &(s, ts)) in many.iter().enumerate() {
        tracer.span("Stl::one_to_many_into", p, i as u64, || stl.one_to_many_into(s, ts, &mut out));
        black_box(&out);
    }
    tracer.close(p);
    put("query.core_ns_p50", q(&mut tracer.self_ns("Stl::query"), 0.5), "ns");
    put("query.many_core_us_p50", q(&mut tracer.self_ns("Stl::one_to_many_into"), 0.5) / 1e3, "us");
    put(
        "query.spine_answered_frac",
        ratio(prof.spine_answered as f64, prof.queries as f64),
        "frac",
    );
    let slices = (prof.flat_slices + prof.chunked_slices) as f64;
    put("query.flat_slice_frac", ratio(prof.flat_slices as f64, slices), "frac");

    // The flat read path: the same replay on a compacted copy of that
    // index, the layout the server's compaction trigger publishes.
    let mut flat = stl.clone();
    tracer.span("Stl::compact", ROOT, 0, || flat.compact());
    let p = tracer.open("probe.flat", ROOT, 0);
    for (i, &(s, d)) in pairs.iter().take(POINT_REPLAY).enumerate() {
        tracer.span("flat:Stl::query", p, i as u64, || black_box(flat.query(s, d)));
    }
    for (i, &(s, ts)) in many.iter().enumerate() {
        tracer.span("flat:Stl::one_to_many_into", p, i as u64, || {
            flat.one_to_many_into(s, ts, &mut out)
        });
        black_box(&out);
    }
    tracer.close(p);
    put("query.flat_core_ns_p50", q(&mut tracer.self_ns("flat:Stl::query"), 0.5), "ns");
    put(
        "query.flat_many_core_us_p50",
        q(&mut tracer.self_ns("flat:Stl::one_to_many_into"), 0.5) / 1e3,
        "us",
    );
    drop((flat, snap));

    // shard / pareto: the acknowledged batches, in sequence order, on a
    // copy of the first published state.
    let mut g = t.gen0.graph().clone();
    let mut index = t.gen0.stl().clone();
    let cfg = &t.dep.cfg;
    let mut pool = EnginePool::new();
    let (mut sum, mut crit, mut work, mut shard_frac) = (UpdateStats::default(), 0u64, 0u64, 0.0);
    let p = tracer.open("probe.repair", ROOT, 0);
    for (seq, edges) in &batches {
        let (st, rep) = tracer.span("Stl::apply_batch_sharded", p, *seq, || {
            index.apply_batch_sharded(&mut g, edges, cfg.algo, &mut pool, cfg.repair_threads)
        });
        sum += st;
        crit += rep.max_ns();
        work += rep.sum_ns();
        shard_frac += ratio(rep.shards_touched as f64, rep.shards_total as f64);
    }
    tracer.close(p);
    drop((g, index));
    let updates = sum.updates as f64;
    put("repair.ms_per_batch", mean(&tracer.self_ns("Stl::apply_batch_sharded")) / 1e6, "ms");
    put("repair.pops_per_update", ratio(sum.pops as f64, updates), "count");
    put("repair.label_writes_per_update", ratio(sum.label_writes as f64, updates), "count");
    put("repair.trees_touched_frac", ratio(shard_frac, batches.len() as f64), "frac");
    put("repair.critical_path_frac", ratio(crit as f64, work as f64), "frac");

    // server publish (stl_graph::cow), from the served run's counters.
    let s = &t.server;
    let published = s.batches_applied as f64;
    put("publish.us_mean", ratio(s.publish_ns_total as f64, published) / 1e3, "us");
    put("publish.kib_per_batch", ratio(s.publish_bytes_copied as f64, published) / 1024.0, "KiB");
    put("publish.compactions", s.compactions_total as f64, "count");

    // wal / durable: the same batches through a fresh log with the default
    // fsync policy.
    let wal_path = t.dir.join("probe.wal");
    let policy = DurabilityConfig::new(t.dir).fsync;
    let mut wal = io(WalWriter::open(&wal_path, policy, 0), "cannot open the probe log")?;
    let p = tracer.open("probe.wal", ROOT, 0);
    for (seq, edges) in &batches {
        let r = tracer.span("WalWriter::append+maybe_sync", p, *seq, || {
            wal.append(*seq, &[], edges).and_then(|_| wal.maybe_sync())
        });
        io(r, "probe log append")?;
    }
    tracer.close(p);
    put(
        "wal.append_us_p50",
        q(&mut tracer.self_ns("WalWriter::append+maybe_sync"), 0.5) / 1e3,
        "us",
    );
    put("wal.fsyncs_per_batch", ratio(wal.fsyncs as f64, wal.appended as f64), "count");
    put("durable.checkpoints", s.checkpoints_written as f64, "count");
    drop(wal);
    let _ = std::fs::remove_file(&wal_path);

    // batcher: the recorded schedule from concurrent submitters, plus the
    // served run's sheds; transport counters of the served run.
    let sum_net = |f: fn(&NetStats) -> u64| t.nets.iter().map(f).sum::<u64>() as f64;
    let (per_batch, probe_shed) = batcher_probe(t, tracer)?;
    put("batcher.requests_per_batch", per_batch, "count");
    put("batcher.shed", probe_shed + sum_net(|n| n.batcher.requests_shed), "count");
    put("transport.connections_shed", sum_net(|n| n.connections_shed), "count");
    put("transport.bad_frames", sum_net(|n| n.frames_rejected), "count");

    // router: a two-worker deployment over the first published state.
    let routed = router_probe(t, &pairs, &batches, tracer)?;
    put("router.overhead_us_p50", routed.0, "us");
    put("router.update_ms_p50", routed.1, "ms");
    put("router.failfast_errors", routed.2, "count");

    // snapshot + transport, while the writer publishes the recorded batches
    // again; traced and untraced blocks alternate for the overhead.
    let (overhead_frac, transport_us) = net_probe(t, &pairs, &batches, tracer)?;
    put("snapshot.acquire_ns_p99", q(&mut tracer.self_ns("StlServer::snapshot"), 0.99), "ns");
    put("transport.overhead_us_p50", transport_us, "us");
    put("transport.closed_loop_qps", t.closed_loop_qps, "1/s");

    put("gen.lag_p99_ms", q(&mut t.ol.lag_ms.clone(), 0.99), "ms");
    put("trace.overhead_frac", overhead_frac, "frac");
    Ok(m)
}

/// p50 of `a` minus p50 of `b`, in microseconds.
fn p50_gap_us(tracer: &Tracer, a: &str, b: &str) -> f64 {
    (q(&mut tracer.self_ns(a), 0.5) - q(&mut tracer.self_ns(b), 0.5)) / 1e3
}

/// Replays the first [`BATCHER_REPLAY`] of the recorded update schedule
/// through a fresh `AdaptiveBatcher` (default knobs) in front of a server on
/// the first published state, durable when the workload is. Each request is
/// submitted at its due time without waiting for the one before, as
/// concurrent clients would; one connection never has two pending. Returns
/// `(requests per merged batch, requests shed)`.
fn batcher_probe(t: &Traced, tracer: &mut Tracer) -> Result<(f64, f64), String> {
    let p = tracer.open("probe.batcher", ROOT, 0);
    let topology = match t.topology {
        Topology::Durable => Topology::Durable,
        Topology::Single | Topology::Routed { .. } => Topology::Single,
    };
    let dir = t.dir.join("batcher-probe");
    io(std::fs::create_dir_all(&dir), "cannot create the batcher probe directory")?;
    let indexes = vec![t.gen0.stl().clone()];
    let dep = Deployment::serve(topology, t.gen0.graph(), indexes, &dir, &t.dep.cfg, tracer, p)?;
    let batcher = AdaptiveBatcher::start(Arc::clone(&dep.servers[0]), BatcherConfig::default());
    let t0 = Instant::now();
    let pending: Vec<_> = t
        .inputs
        .updates
        .iter()
        .take_while(|u| u.at < BATCHER_REPLAY)
        .enumerate()
        .map(|(i, u)| {
            wait_until(t0 + u.at);
            tracer.span("AdaptiveBatcher::submit", p, i as u64, || batcher.submit(u.edges.clone()))
        })
        .collect();
    for w in &pending {
        match w.wait() {
            BatchOutcome::Applied { .. } => {}
            BatchOutcome::Rejected(r) if r.starts_with("overloaded") => {}
            BatchOutcome::Rejected(r) => return Err(format!("batcher probe: rejected: {r}")),
        }
    }
    let stats = batcher.stats();
    drop(batcher);
    tracer.close(p);
    dep.shutdown();
    let per_batch = ratio(stats.requests_coalesced as f64, stats.batches_submitted as f64);
    Ok((per_batch, stats.requests_shed as f64))
}

/// Returns `(overhead µs p50, update ms p50, fail-fast errors)`.
fn router_probe(
    t: &Traced,
    pairs: &[(VertexId, VertexId)],
    batches: &[(u64, Vec<EdgeUpdate>)],
    tracer: &mut Tracer,
) -> Result<(f64, f64, f64), String> {
    let p = tracer.open("probe.router", ROOT, 0);
    let indexes = vec![t.gen0.stl().clone(); 2];
    let topology = Topology::Routed { workers: 2 };
    let dir = t.dir.join("router-probe");
    io(std::fs::create_dir_all(&dir), "cannot create the router probe directory")?;
    let dep = Deployment::serve(topology, t.gen0.graph(), indexes, &dir, &t.dep.cfg, tracer, p)?;
    let front = dep.router.as_ref().expect("a routed deployment has a front");
    let mut via = io(NetClient::connect(&dep.front), "cannot connect to the router")?;
    let mut direct =
        io(NetClient::connect(&dep.nets[0].local_addr()), "cannot connect to a worker")?;
    for (i, &(s, d)) in pairs.iter().take(ROUTER_REPLAY).enumerate() {
        let i = i as u64;
        io(tracer.span("RouterServer:NetClient::query", p, i, || via.query(s, d)), "routed query")?;
        io(tracer.span("worker:NetClient::query", p, i, || direct.query(s, d)), "worker query")?;
    }
    for (seq, edges) in batches.iter().take(ROUTER_UPDATES) {
        let r = tracer.span("Router::update", p, *seq, || front.router().update(edges.clone()));
        io(r, "routed update")?;
    }
    // Fail-fast errors of the served deployment when it is routed.
    let failfast = t.dep.router.as_ref().unwrap_or(front).router().local_stats().failfast_errors;
    tracer.close(p);
    drop((via, direct));
    dep.shutdown();
    let overhead = p50_gap_us(tracer, "RouterServer:NetClient::query", "worker:NetClient::query");
    let update_ms = q(&mut tracer.self_ns("Router::update"), 0.5) / 1e6;
    Ok((overhead, update_ms, failfast as f64))
}

/// Replays recorded pairs through `StlServer::snapshot` + `Snapshot::query`
/// and through `NetClient::query` on worker 0 while the writer publishes in
/// the background (each recorded batch, then its edges restored to their
/// first-generation weights, so every batch changes something). Returns
/// `(tracing overhead as a share of the untraced replay time, transport
/// overhead µs p50)`.
fn net_probe(
    t: &Traced,
    pairs: &[(VertexId, VertexId)],
    batches: &[(u64, Vec<EdgeUpdate>)],
    tracer: &mut Tracer,
) -> Result<(f64, f64), String> {
    const BLOCK: usize = 250;
    let server = &t.dep.servers[0];
    let mut client =
        io(NetClient::connect(&t.dep.nets[0].local_addr()), "cannot connect to a worker")?;
    let stop = AtomicBool::new(false);
    let (mut traced_s, mut plain_s) = (0.0, 0.0);
    let replay = pairs.iter().take(NET_REPLAY).copied().collect::<Vec<_>>();
    let result = std::thread::scope(|scope| {
        scope.spawn(|| {
            let base = t.gen0.graph();
            for (_, edges) in batches.iter().cycle() {
                let restore = edges
                    .iter()
                    .map(|e| {
                        EdgeUpdate::new(e.a, e.b, base.weight(e.a, e.b).unwrap_or(e.new_weight))
                    })
                    .collect();
                for batch in [edges.clone(), restore] {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    server.wait_for(server.submit(batch));
                }
            }
        });
        let r = (|| {
            let p = tracer.open("probe.net", ROOT, 0);
            for (b, block) in replay.chunks(BLOCK).enumerate() {
                let traced = b % 2 == 0;
                let start = Instant::now();
                for (j, &(s, d)) in block.iter().enumerate() {
                    let req = (b * BLOCK + j) as u64;
                    if traced {
                        let r = tracer.open("request", p, req);
                        let snap = tracer.span("StlServer::snapshot", r, req, || server.snapshot());
                        tracer.span("Snapshot::query", r, req, || black_box(snap.query(s, d)));
                        drop(snap);
                        io(
                            tracer.span("NetClient::query", r, req, || client.query(s, d)),
                            "query",
                        )?;
                        tracer.close(r);
                    } else {
                        black_box(server.snapshot().query(s, d));
                        io(client.query(s, d), "query")?;
                    }
                }
                let secs = start.elapsed().as_secs_f64();
                *if traced { &mut traced_s } else { &mut plain_s } += secs;
            }
            tracer.close(p);
            Ok::<_, String>(())
        })();
        stop.store(true, Ordering::Relaxed);
        r
    });
    result?;
    let local = {
        let mut a = tracer.self_ns("StlServer::snapshot");
        let mut b = tracer.self_ns("Snapshot::query");
        q(&mut a, 0.5) + q(&mut b, 0.5)
    };
    let net_us = (q(&mut tracer.self_ns("NetClient::query"), 0.5) - local) / 1e3;
    Ok((ratio(traced_s - plain_s, plain_s), net_us))
}
