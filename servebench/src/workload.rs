//! Workload definitions and the seeded generation of every input a run
//! replays: the road network, the open-loop read and update schedules, and
//! the closed-loop query pool of the capacity phase.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stl_graph::{CsrGraph, EdgeUpdate, VertexId};
use stl_workloads::{generate, RoadNetConfig};

/// The three traffic mixes of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Large graph, many reads, a light trickle of congestion updates.
    ReadHeavy,
    /// Medium graph on a durable server, congestion waves through the batcher.
    WriteHeavy,
    /// Medium graph served by two shard workers behind the router.
    Routed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::ReadHeavy, Workload::WriteHeavy, Workload::Routed];

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadHeavy => "read_heavy",
            Workload::WriteHeavy => "write_heavy",
            Workload::Routed => "routed",
        }
    }
}

/// Input size: `Full` is what the benchmark measures; `Tiny` keeps the same
/// structure on a small graph for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// How a workload deploys the serving stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One in-memory `StlServer` behind one `NetServer`.
    Single,
    /// One `StlServer` with a write-ahead log in a fresh state directory.
    Durable,
    /// Shard workers (`StlServer` + `NetServer` each) behind a `RouterServer`.
    Routed { workers: usize },
}

/// Share of reads that are one-to-many requests (the POI / ETA-row request).
pub const MANY_FRAC: f64 = 0.1;
/// Targets per one-to-many request.
pub const MANY_TARGETS: usize = 64;
/// Congestion centres drifting across the map.
pub const WAVE_CENTRES: usize = 8;
/// Oracle checks aimed for per run: point queries, one-to-many requests.
const POINT_CHECKS: f64 = 120.0;
const MANY_CHECKS: f64 = 30.0;

/// Everything a workload fixes; the rest is the serving stack's defaults.
#[derive(Debug, Clone)]
pub struct Spec {
    pub vertices: usize,
    pub topology: Topology,
    /// Open-loop read arrivals per second (point and one-to-many together).
    pub read_rate: f64,
    /// Open-loop update requests per second.
    pub update_rate: f64,
    /// Edges per update request, inclusive range.
    pub edges_per_update: (usize, usize),
}

impl Spec {
    pub fn of(workload: Workload, scale: Scale) -> Self {
        let tiny = scale == Scale::Tiny;
        let base = Spec {
            vertices: 0,
            topology: Topology::Single,
            read_rate: 0.0,
            update_rate: 0.0,
            edges_per_update: (4, 8),
        };
        match workload {
            Workload::ReadHeavy => Spec {
                vertices: if tiny { 2_000 } else { 64_000 },
                read_rate: if tiny { 5_000.0 } else { 3_000.0 },
                update_rate: if tiny { 50.0 } else { 3.0 },
                edges_per_update: (1, 3),
                ..base
            },
            Workload::WriteHeavy => Spec {
                vertices: if tiny { 2_000 } else { 16_000 },
                topology: Topology::Durable,
                read_rate: if tiny { 5_000.0 } else { 1_500.0 },
                update_rate: if tiny { 50.0 } else { 10.0 },
                ..base
            },
            Workload::Routed => Spec {
                vertices: if tiny { 2_000 } else { 16_000 },
                topology: Topology::Routed { workers: 2 },
                read_rate: if tiny { 5_000.0 } else { 1_500.0 },
                update_rate: if tiny { 50.0 } else { 3.0 },
                ..base
            },
        }
    }
}

/// A read request of the open-loop schedule.
#[derive(Debug, Clone)]
pub enum ReadOp {
    Point(VertexId, VertexId),
    Many(VertexId, Vec<VertexId>),
}

#[derive(Debug, Clone)]
pub struct Read {
    /// Due time, from the start of the open-loop phase.
    pub at: Duration,
    pub op: ReadOp,
    /// Whether the oracle checks this request's answer.
    pub check: bool,
}

#[derive(Debug, Clone)]
pub struct Update {
    pub at: Duration,
    pub edges: Vec<EdgeUpdate>,
}

/// Every input of one run, generated from the seed.
pub struct Inputs {
    pub reads: Vec<Read>,
    pub updates: Vec<Update>,
    /// Pairs cycled through by the closed-loop capacity phase.
    pub peak_pairs: Vec<(VertexId, VertexId)>,
    /// The pair whose answer ends set-up, with its distance in the input graph.
    pub probe_pair: (VertexId, VertexId),
}

/// The road network of a run.
pub fn graph(spec: &Spec, seed: u64) -> CsrGraph {
    generate(&RoadNetConfig::sized(spec.vertices, seed))
}

/// Independent RNG stream `k` of a seed, so adding draws to one stream
/// never shifts another.
fn stream(seed: u64, k: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// `count` arrival offsets spread over `window`: sorted uniform draws, i.e.
/// a Poisson process conditioned on its count, so every seed gets the same
/// number of samples.
fn arrivals(rng: &mut StdRng, count: usize, window: Duration) -> Vec<Duration> {
    let span = window.as_nanos() as u64;
    let mut at: Vec<u64> = (0..count).map(|_| rng.random_range(0..span.max(1))).collect();
    at.sort_unstable();
    at.into_iter().map(Duration::from_nanos).collect()
}

impl Inputs {
    pub fn generate(spec: &Spec, g: &CsrGraph, seed: u64, window: Duration) -> Self {
        let n = g.num_vertices() as VertexId;
        let secs = window.as_secs_f64();

        let mut rng = stream(seed, 1);
        let read_count = (spec.read_rate * secs).round() as usize;
        let many_expected = (read_count as f64 * MANY_FRAC).max(1.0);
        let point_expected = (read_count as f64 - many_expected).max(1.0);
        let p_point = (POINT_CHECKS / point_expected).min(1.0);
        let p_many = (MANY_CHECKS / many_expected).min(1.0);
        let reads = arrivals(&mut rng, read_count, window)
            .into_iter()
            .map(|at| {
                let s = rng.random_range(0..n);
                if rng.random_bool(MANY_FRAC) {
                    let targets = (0..MANY_TARGETS).map(|_| rng.random_range(0..n)).collect();
                    Read { at, op: ReadOp::Many(s, targets), check: rng.random_bool(p_many) }
                } else {
                    let t = rng.random_range(0..n);
                    Read { at, op: ReadOp::Point(s, t), check: rng.random_bool(p_point) }
                }
            })
            .collect();

        let mut rng = stream(seed, 2);
        let update_count = (spec.update_rate * secs).round() as usize;
        let mut waves = Waves::new(g, WAVE_CENTRES, &mut rng);
        let updates = arrivals(&mut rng, update_count, window)
            .into_iter()
            .map(|at| {
                let (lo, hi) = spec.edges_per_update;
                let k = rng.random_range(lo..=hi);
                let edges = waves.request(g, at.as_secs_f64() / secs.max(1e-9), k, &mut rng);
                Update { at, edges }
            })
            .collect();

        let mut rng = stream(seed, 3);
        let peak_pairs =
            (0..50_000).map(|_| (rng.random_range(0..n), rng.random_range(0..n))).collect();
        let probe_pair = (rng.random_range(0..n), rng.random_range(0..n));
        Inputs { reads, updates, peak_pairs, probe_pair }
    }
}

/// Geographic congestion: a few centres drift across the map (taken from
/// the graph's coordinates), and each update request re-weights edges near
/// one of them. Selection never looks at the hierarchy, so a change to the
/// labelling cannot tailor its own input.
struct Waves {
    /// Centre start positions and velocities (map widths per run).
    centres: Vec<((f64, f64), (f64, f64))>,
    min: (f64, f64),
    size: (f64, f64),
    radius: f64,
}

impl Waves {
    fn new(g: &CsrGraph, count: usize, rng: &mut StdRng) -> Self {
        let coords = g.coords().expect("generated road networks carry coordinates");
        let (mut min, mut max) = ((f64::MAX, f64::MAX), (f64::MIN, f64::MIN));
        for &(x, y) in coords {
            min = (min.0.min(x as f64), min.1.min(y as f64));
            max = (max.0.max(x as f64), max.1.max(y as f64));
        }
        let size = ((max.0 - min.0).max(1.0), (max.1 - min.1).max(1.0));
        let centres = (0..count.max(1))
            .map(|_| {
                let v = rng.random_range(0..coords.len());
                let (x, y) = coords[v];
                // Speed: one map width over the run, in a random direction.
                let angle = rng.random_range(0..3600u32) as f64 / 3600.0 * std::f64::consts::TAU;
                ((x as f64, y as f64), (angle.cos(), angle.sin()))
            })
            .collect();
        Waves { centres, min, size, radius: 0.08 * size.0.min(size.1) }
    }

    /// Position of centre `c` at run fraction `f`, reflected at the map edges.
    fn position(&self, c: usize, f: f64) -> (f64, f64) {
        let ((x0, y0), (vx, vy)) = self.centres[c];
        let reflect = |p: f64, lo: f64, len: f64| {
            let u = ((p - lo) / len).rem_euclid(2.0);
            lo + len * if u > 1.0 { 2.0 - u } else { u }
        };
        (
            reflect(x0 + vx * f * self.size.0, self.min.0, self.size.0),
            reflect(y0 + vy * f * self.size.1, self.min.1, self.size.1),
        )
    }

    /// `k` distinct edges near one centre at run fraction `f`, each set to
    /// its generated weight times a congestion factor in `[1, 3]`.
    fn request(&mut self, g: &CsrGraph, f: f64, k: usize, rng: &mut StdRng) -> Vec<EdgeUpdate> {
        let coords = g.coords().expect("generated road networks carry coordinates");
        let c = rng.random_range(0..self.centres.len());
        let (cx, cy) = self.position(c, f);
        let r2 = self.radius * self.radius;
        let mut edges: Vec<EdgeUpdate> = Vec::with_capacity(k);
        let mut tries = 0usize;
        while edges.len() < k {
            tries += 1;
            let v = rng.random_range(0..coords.len()) as VertexId;
            let (x, y) = coords[v as usize];
            let d2 = (x as f64 - cx).powi(2) + (y as f64 - cy).powi(2);
            // Rejection sampling in the disc; widen it if the disc is empty
            // of vertices (a centre parked in a deleted corner).
            if d2 > r2 * (1 + tries / 20_000) as f64 {
                continue;
            }
            let (nbrs, weights) = g.neighbor_slices(v);
            if nbrs.is_empty() {
                continue;
            }
            let j = rng.random_range(0..nbrs.len());
            let (a, b) = (v.min(nbrs[j]), v.max(nbrs[j]));
            if edges.iter().any(|e| (e.a, e.b) == (a, b)) {
                continue;
            }
            let factor = rng.random_range(100u64..=300);
            let w = (weights[j] as u64 * factor / 100).max(1) as u32;
            edges.push(EdgeUpdate::new(a, b, w));
        }
        edges
    }
}
