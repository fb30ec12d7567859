//! End-to-end serving benchmark for the STL stack.
//!
//! One run generates a road network and every request trace from its seed,
//! brings the real serving stack up over unix sockets, drives it with
//! open-loop traffic (plus a closed-loop capacity phase), checks sampled
//! answers against Dijkstra, and reports either the end-to-end metrics or —
//! in a traced run — the per-layer metrics. See `README.md` next to this
//! crate for the workloads and the layer → metric → workload map.

pub mod affinity;
pub mod deploy;
pub mod layers;
pub mod load;
pub mod oracle;
pub mod stats;
pub mod trace;
pub mod workload;

use std::path::PathBuf;
use std::time::Duration;

use stl_pathfinding::DijkstraEngine;

use crate::deploy::Deployment;
use crate::stats::{median, peak_rss_mb, segmented, tail};
use crate::trace::Tracer;
use crate::workload::{Inputs, Scale, Spec, Topology, Workload};

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_p50_us", "us"),
    ("many_p50_us", "us"),
    ("update_ack_p50_ms", "ms"),
    ("read_on_time_frac", "frac"),
    ("ack_on_time_frac", "frac"),
    ("success_frac", "frac"),
    ("peak_rss_mb", "MB"),
    ("index_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("partition.build_s", "s"),
    ("labelling.build_s", "s"),
    ("labelling.label_entries", "count"),
    ("query.core_ns_p50", "ns"),
    ("query.many_core_us_p50", "us"),
    ("query.spine_answered_frac", "frac"),
    ("query.flat_slice_frac", "frac"),
    ("query.flat_core_ns_p50", "ns"),
    ("query.flat_many_core_us_p50", "us"),
    ("repair.ms_per_batch", "ms"),
    ("repair.pops_per_update", "count"),
    ("repair.label_writes_per_update", "count"),
    ("repair.trees_touched_frac", "frac"),
    ("repair.critical_path_frac", "frac"),
    ("publish.us_mean", "us"),
    ("publish.kib_per_batch", "KiB"),
    ("publish.compactions", "count"),
    ("wal.append_us_p50", "us"),
    ("wal.fsyncs_per_batch", "count"),
    ("durable.checkpoints", "count"),
    ("batcher.requests_per_batch", "count"),
    ("batcher.shed", "count"),
    ("transport.connections_shed", "count"),
    ("transport.bad_frames", "count"),
    ("router.overhead_us_p50", "us"),
    ("router.update_ms_p50", "ms"),
    ("router.failfast_errors", "count"),
    ("snapshot.acquire_ns_p99", "ns"),
    ("transport.overhead_us_p50", "us"),
    ("transport.closed_loop_qps", "1/s"),
    ("gen.lag_p99_ms", "ms"),
    ("trace.overhead_frac", "frac"),
];

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Share of a traced run's measured seconds given to the open-loop phase;
/// the rest is the closed-loop capacity phase.
pub const OPEN_LOOP_SHARE: f64 = 0.75;

/// Deadlines of the on-time shares, counted from each request's due time:
/// a read answered later, or an update acknowledged later, is late. Both sit
/// far above the tails of a healthy run, so a stall of a few hundred
/// milliseconds shows however few of the run's slices it hits.
pub const READ_DEADLINE_MS: f64 = 10.0;
pub const ACK_DEADLINE_MS: f64 = 250.0;

/// Slices of the open-loop phase for the segmented latency percentiles.
pub const SEGMENTS: usize = 24;

/// Windows of the capacity phase; `transport.closed_loop_qps` is their median.
pub const PEAK_WINDOWS: usize = 8;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Perturb one checked answer, to prove the oracle catches it.
    pub corrupt: bool,
    /// Sockets, state directories and trace files live under here.
    pub work_dir: PathBuf,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug, Clone)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Removes the run directory however the run ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run one workload once.
pub fn run(opts: &Options) -> Result<Report, String> {
    let spec = Spec::of(opts.workload, opts.scale);
    let total = Duration::from_secs_f64(opts.seconds);
    // An untraced run spends every measured second in the open loop; a
    // traced run ends with the closed-loop capacity phase.
    let open = if opts.trace { total.mul_f64(OPEN_LOOP_SHARE) } else { total };
    let g = workload::graph(&spec, opts.seed);
    let inputs = Inputs::generate(&spec, &g, opts.seed, open);
    let (s, t) = inputs.probe_pair;
    let mut engine = DijkstraEngine::new(g.num_vertices());
    engine.run(&g, s);
    let probe = ((s, t), engine.dist(t));
    drop(engine);

    let run_dir = RunDir(opts.work_dir.join(format!("run-{}", std::process::id())));
    let cfg = stl_server::ServerConfig::default();
    let mut tracer = Tracer::new(opts.trace);
    let setups = if opts.trace { 1 } else { SETUPS };
    let (mut setup_s, mut setup_rss_mb) = (Vec::new(), 0.0);
    let mut dep: Option<Deployment> = None;
    for i in 0..setups {
        if let Some(d) = dep.take() {
            d.shutdown();
        }
        let dir = run_dir.0.join(format!("d{i}"));
        let d = Deployment::start(spec.topology, &g, &dir, probe, &cfg, &mut tracer)?;
        setup_s.push(d.setup_s);
        if i == 0 {
            setup_rss_mb = peak_rss_mb()?;
        }
        dep = Some(d);
    }
    let dep = dep.expect("at least one set-up");
    let gen0 = dep.servers[0].snapshot();

    let ticks0 = stats::cpu_ticks();
    let ol = load::open_loop(&dep, &inputs, opts.corrupt)?;
    let steal = match (ticks0, stats::cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) => {
            format!("{:.1}%", 100.0 * stats::ratio((s1 - s0) as f64, (t1 - t0) as f64))
        }
        _ => "unknown".into(),
    };
    let server_stats = dep.servers[0].stats();
    let net_stats: Vec<_> = dep.nets.iter().map(|n| n.stats()).collect();
    let peak = if opts.trace {
        let window = (total - open) / PEAK_WINDOWS as u32;
        Some(load::peak(&dep, &inputs.peak_pairs, window, PEAK_WINDOWS)?)
    } else {
        None
    };

    let verdict = oracle::check_samples(&ol.samples);
    let peak_verdict = oracle::check_samples(peak.as_ref().map_or(&[][..], |p| &p.samples[..]));
    let stale: usize = dep
        .servers
        .iter()
        .map(|s| oracle::stale_weights(s.snapshot().graph(), &inputs.updates, &ol.acked).len())
        .sum();
    if stale > 0 {
        eprintln!("oracle: {stale} edge weights differ from the acknowledged updates");
    }
    let wrong = verdict.wrong_requests + peak_verdict.wrong_requests + stale as u64;
    let mut out = ol.out;
    if let Some(p) = &peak {
        out.add(p.out);
    }
    let failed = out.failed() + wrong;

    let mut lag = ol.lag_ms.clone();
    let mut notes = vec![
        format!(
            "workload {}: seed {}, {} vertices / {} edges, {:?}, fsync {}, {} repair threads",
            opts.workload.name(),
            opts.seed,
            g.num_vertices(),
            g.num_edges(),
            spec.topology,
            if spec.topology == Topology::Durable {
                stl_server::DurabilityConfig::new(".").fsync.to_string()
            } else {
                "n/a".into()
            },
            cfg.repair_threads,
        ),
        format!(
            "open loop {:.1} s: {} reads at {}/s ({}% one-to-many x {} targets), \
             {} updates at {}/s of {}-{} edges near {} drifting centres",
            open.as_secs_f64(),
            inputs.reads.len(),
            spec.read_rate,
            workload::MANY_FRAC * 100.0,
            workload::MANY_TARGETS,
            inputs.updates.len(),
            spec.update_rate,
            spec.edges_per_update.0,
            spec.edges_per_update.1,
            workload::WAVE_CENTRES,
        ),
        format!(
            "oracle: {} + {} answers checked, {} wrong requests, {} stale weights; \
             {} attempted, {} errors, {} shed, {} rejected",
            verdict.checked,
            peak_verdict.checked,
            verdict.wrong_requests + peak_verdict.wrong_requests,
            stale,
            out.attempted,
            out.errors,
            out.shed,
            out.rejected,
        ),
        format!(
            "generator lag: p50 {:.3} ms, p99 {:.3} ms; host steal during the open loop: {steal} \
             of CPU time",
            stats::q(&mut lag, 0.5),
            stats::q(&mut lag, 0.99)
        ),
    ];

    let metrics = if let Some(mut peak) = peak {
        let traced = layers::Traced {
            dep: &dep,
            topology: spec.topology,
            inputs: &inputs,
            ol: &ol,
            gen0,
            server: server_stats,
            nets: net_stats,
            closed_loop_qps: median(&mut peak.window_qps),
            dir: &run_dir.0,
        };
        let m = layers::measure(&traced, &mut tracer)?;
        let path = opts.work_dir.join("traces").join(format!(
            "{}-seed{}.tsv",
            opts.workload.name(),
            opts.seed
        ));
        tracer.write_tsv(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        notes.push(format!("{} spans written to {}", tracer.span_count(), path.display()));
        m
    } else {
        drop(gen0);
        let span = open.as_secs_f64();
        let (query_p50, n50) = segmented(&ol.point_us, span, SEGMENTS, 0.5, "query")?;
        let (many_p50, m50) = segmented(&ol.many_us, span, SEGMENTS, 0.5, "many")?;
        let mut ack = ol.ack_ms.clone();
        notes.push(format!(
            "point p50 from {n50} of {SEGMENTS} slices of {} samples, one-to-many p50 from \
             {m50} slices of {} samples; set-ups {setup_s:?} s",
            ol.point_us.len(),
            ol.many_us.len(),
        ));
        // Figures that vary too much from run to run to bound a change by.
        let mut points: Vec<f64> = ol.point_us.iter().map(|&(_, us)| us).collect();
        let mut manys: Vec<f64> = ol.many_us.iter().map(|&(_, us)| us).collect();
        notes.push(format!(
            "not gated: point p90 {:.1} us, p99 {:.1} us over {} samples; one-to-many p90 \
             {:.1} us over {} samples; update ack p75 {:.2} ms, p90 {:.2} ms over {} acks",
            stats::q(&mut points, 0.9),
            stats::q(&mut points, 0.99),
            points.len(),
            stats::q(&mut manys, 0.9),
            manys.len(),
            stats::q(&mut ack, 0.75),
            stats::q(&mut ack, 0.9),
            ack.len(),
        ));
        let reads_ms: Vec<f64> =
            ol.point_us.iter().chain(&ol.many_us).map(|&(_, us)| us / 1e3).collect();
        let late = |v: &[f64], ms: f64| v.iter().filter(|&&x| x > ms).count();
        notes.push(format!(
            "late reads (of {}) beyond 1/2/5/10/50 ms: {}/{}/{}/{}/{}; late acks (of {}) beyond \
             50/100/250/500 ms: {}/{}/{}/{}",
            inputs.reads.len(),
            late(&reads_ms, 1.0),
            late(&reads_ms, 2.0),
            late(&reads_ms, 5.0),
            late(&reads_ms, 10.0),
            late(&reads_ms, 50.0),
            inputs.updates.len(),
            late(&ack, 50.0),
            late(&ack, 100.0),
            late(&ack, 250.0),
            late(&ack, 500.0),
        ));
        let on_time = |v: &[f64], deadline: f64, of: usize| {
            v.iter().filter(|&&x| x <= deadline).count() as f64 / of.max(1) as f64
        };
        vec![
            Metric { name: "setup_s", value: median(&mut setup_s), unit: "s" },
            Metric { name: "query_p50_us", value: query_p50, unit: "us" },
            Metric { name: "many_p50_us", value: many_p50, unit: "us" },
            Metric { name: "update_ack_p50_ms", value: tail(&mut ack, 0.5, "update")?, unit: "ms" },
            Metric {
                name: "read_on_time_frac",
                value: on_time(&reads_ms, READ_DEADLINE_MS, inputs.reads.len()),
                unit: "frac",
            },
            Metric {
                name: "ack_on_time_frac",
                value: on_time(&ack, ACK_DEADLINE_MS, inputs.updates.len()),
                unit: "frac",
            },
            Metric {
                name: "success_frac",
                value: 1.0 - failed as f64 / out.attempted.max(1) as f64,
                unit: "frac",
            },
            Metric { name: "peak_rss_mb", value: setup_rss_mb, unit: "MB" },
            Metric { name: "index_mb", value: dep.index_bytes as f64 / 1e6, unit: "MB" },
        ]
    };
    dep.shutdown();
    drop(run_dir);
    Ok(Report { correct: wrong == 0, attempted: out.attempted, failed, metrics, notes })
}
