//! Out-of-process distributed serving: a real `stl route` front supervising
//! real `stl shard-worker` children over unix sockets, with a real SIGKILL.
//!
//! The invariants, checked over the front's socket against a Dijkstra
//! oracle on a mirror graph holding exactly the acknowledged updates:
//!
//! * every routed query answers the exact mirror distance, before and after
//!   update batches that the router replicates to all workers;
//! * `kill -9` on one worker costs **fail-fast errors for its subtrees
//!   only** — pairs inside the surviving worker's trees (and all cross-tree
//!   pairs) keep answering exactly, and updates keep applying;
//! * the supervisor's respawn → WAL recovery → catch-up replay brings the
//!   dead worker back, after which its subtree pairs answer exactly again,
//!   including updates acknowledged while it was down.

use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use stl_core::{Hierarchy, ShardSet, StlConfig, SPINE_SHARD};
use stl_graph::{CsrGraph, EdgeUpdate};
use stl_server::{Endpoint, NetClient};

/// Unique scratch directory, cleaned up on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("stl-routecli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn gen_graph(scratch: &Scratch, vertices: u32, seed: u64) -> (String, CsrGraph) {
    let path = scratch.path("net.gr");
    let out = Command::new(env!("CARGO_BIN_EXE_stl"))
        .args(["gen", &path, "--vertices", &vertices.to_string(), "--seed", &seed.to_string()])
        .output()
        .expect("run stl gen");
    assert!(out.status.success(), "stl gen failed");
    let f = std::fs::File::open(&path).expect("open generated graph");
    let g = stl_graph::io::read_dimacs_gr(std::io::BufReader::new(f)).expect("parse graph");
    (path, g)
}

/// A running `stl route` deployment: the front process, its worker pids in
/// index order, the front endpoint, and a collector for all stdout lines.
struct Deployment {
    child: Child,
    worker_pids: Vec<u32>,
    endpoint: Endpoint,
    lines: Arc<Mutex<Vec<String>>>,
}

impl Deployment {
    /// Spawn `stl route` and wait for both worker-pid banners and the
    /// front's `listening on` line.
    fn spawn(graph: &str, dir: &str, front_sock: &str, workers: usize) -> Deployment {
        let mut child = Command::new(env!("CARGO_BIN_EXE_stl"))
            .args([
                "route",
                graph,
                "--listen",
                &format!("unix:{front_sock}"),
                "--workers",
                &workers.to_string(),
                "--dir",
                dir,
                "--respawn-delay-ms",
                "2000",
                "--fsync",
                "always",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn stl route");
        let stdout = child.stdout.take().expect("child stdout piped");
        let mut reader = std::io::BufReader::new(stdout).lines();
        let mut worker_pids = vec![0u32; workers];
        let mut seen = 0usize;
        let mut banner_lines = Vec::new();
        let endpoint = loop {
            let line = reader
                .next()
                .expect("route exited before announcing its address")
                .expect("read route stdout");
            if let Some(rest) = line.strip_prefix("worker ") {
                // `worker <k> pid <p>` — the supervisor contract line.
                let mut parts = rest.split_whitespace();
                if let (Some(k), Some("pid"), Some(p)) = (parts.next(), parts.next(), parts.next())
                {
                    let k: usize = k.parse().expect("worker index");
                    worker_pids[k] = p.parse().expect("worker pid");
                    seen += 1;
                }
            }
            if let Some(rest) = line.strip_prefix("listening on ") {
                assert_eq!(seen, workers, "all workers must announce before the front binds");
                break rest.trim().parse::<Endpoint>().expect("parse front endpoint");
            }
            banner_lines.push(line);
        };
        // Keep draining stdout so the front never blocks on a full pipe; the
        // supervision messages are asserted on at the end.
        let lines = Arc::new(Mutex::new(banner_lines));
        let sink = Arc::clone(&lines);
        std::thread::spawn(move || {
            for line in reader.map_while(Result::ok) {
                sink.lock().unwrap().push(line);
            }
        });
        Deployment { child, worker_pids, endpoint, lines }
    }

    fn connect(&self) -> NetClient {
        NetClient::connect_retry(&self.endpoint, Duration::from_secs(30))
            .expect("connect to route front")
    }

    fn sigkill_worker(&self, k: usize) {
        let status = Command::new("kill")
            .args(["-9", &self.worker_pids[k].to_string()])
            .status()
            .expect("run kill -9");
        assert!(status.success(), "kill -9 worker {k}");
    }

    /// SIGTERM the front and wait for a clean landing.
    fn stop(mut self) -> Vec<String> {
        let _ = Command::new("kill").args(["-TERM", &self.child.id().to_string()]).status();
        let start = Instant::now();
        let status = loop {
            match self.child.try_wait().expect("wait route") {
                Some(status) => break status,
                None if start.elapsed() > Duration::from_secs(60) => {
                    let _ = self.child.kill();
                    panic!("stl route did not land within 60 s of SIGTERM");
                }
                None => std::thread::sleep(Duration::from_millis(100)),
            }
        };
        assert!(status.success(), "stl route exited with {status}");
        std::thread::sleep(Duration::from_millis(100)); // let the collector drain
        self.lines.lock().unwrap().clone()
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Deterministic single-edge updates over existing edges.
fn planned_updates(g: &CsrGraph, count: usize) -> Vec<EdgeUpdate> {
    let edges: Vec<(u32, u32, u32)> = g.edges().collect();
    (0..count)
        .map(|i| {
            let (a, b, w) = edges[(i * 13 + 5) % edges.len()];
            EdgeUpdate::new(a, b, (w % 83) + 1 + i as u32)
        })
        .collect()
}

/// Sample pairs of every routing class against the independent oracle.
fn assert_matches_dijkstra(client: &mut NetClient, mirror: &CsrGraph, context: &str) {
    let n = mirror.num_vertices() as u32;
    for i in 0..24u32 {
        let (s, t) = ((i * 19) % n, (i * 31 + 3) % n);
        assert_eq!(
            client.query(s, t).expect("routed query"),
            stl_pathfinding::dijkstra::distance(mirror, s, t),
            "{context}: d({s},{t}) diverged from the Dijkstra oracle"
        );
    }
}

#[test]
fn route_survives_sigkill_of_one_worker() {
    let scratch = Scratch::new("sigkill");
    let (graph_path, g) = gen_graph(&scratch, 150, 5);
    let deploy =
        Deployment::spawn(&graph_path, &scratch.path("cluster"), &scratch.path("front.sock"), 2);
    let mut client = deploy.connect();

    // `Hierarchy::build` is weight-independent and deterministic, so this
    // in-process copy names the same trees the worker processes own. Find a
    // same-tree pair inside a worker-1 tree (must fail fast while worker 1
    // is dead) and one inside a worker-0 tree (must keep answering).
    let hier = Hierarchy::build(&g, &StlConfig::default());
    let n = g.num_vertices() as u32;
    let mut dead_pair = None;
    let mut live_pair = None;
    for s in 0..n {
        for t in 0..n {
            let ts = hier.tree_of(s);
            if s != t && ts == hier.tree_of(t) && ts != SPINE_SHARD {
                match ShardSet::owner_of(ts, 2) {
                    Some(1) => dead_pair = dead_pair.or(Some((s, t))),
                    Some(0) => live_pair = live_pair.or(Some((s, t))),
                    _ => {}
                }
            }
        }
    }
    let (ds, dt) = dead_pair.expect("a worker-1 subtree pair exists");
    let (ls, lt) = live_pair.expect("a worker-0 subtree pair exists");

    // Healthy cluster: updates replicate, queries answer the exact mirror.
    let mut mirror = g.clone();
    let updates = planned_updates(&g, 5);
    for (i, u) in updates[..3].iter().enumerate() {
        let out = client.update(&[*u]).expect("routed update");
        assert!(out.applied, "update {i}: {}", out.reason);
        assert_eq!(out.generation, i as u64 + 1, "cluster sequence must be dense");
        mirror.set_weight(u.a, u.b, u.new_weight).expect("mirror update");
    }
    assert_matches_dijkstra(&mut client, &mirror, "healthy 2-worker cluster");

    // Real crash: SIGKILL worker 1 mid-service.
    deploy.sigkill_worker(1);

    // An update while it is dead: the router applies it on the survivor and
    // acknowledges; the catch-up ring owes it to worker 1.
    let out = client.update(&[updates[3]]).expect("update during outage");
    assert!(out.applied, "survivor must keep applying: {}", out.reason);
    assert_eq!(out.generation, 4);
    mirror.set_weight(updates[3].a, updates[3].b, updates[3].new_weight).expect("mirror");

    // Fail-fast is scoped to the dead worker's subtrees; everything else —
    // the surviving worker's trees, and by extension cross-tree and spine
    // pairs exercised in the sweeps below — keeps answering exactly.
    let err = client.query(ds, dt).expect_err("worker-1 subtree pair must fail fast");
    assert!(
        err.to_string().contains("dead worker 1") || err.to_string().contains("down"),
        "unexpected outage error: {err}"
    );
    assert_eq!(
        client.query(ls, lt).expect("worker-0 subtree pair during outage"),
        stl_pathfinding::dijkstra::distance(&mirror, ls, lt),
        "survivor's subtrees must answer exactly during the outage"
    );

    // Recovery: the supervisor respawns worker 1, WAL recovery replays its
    // durable state, and the router ring-replays it to the cluster
    // generation. Poll the fail-fast pair until it answers again.
    let start = Instant::now();
    let recovered = loop {
        match client.query(ds, dt) {
            Ok(d) => break d,
            Err(_) if start.elapsed() < Duration::from_secs(120) => {
                std::thread::sleep(Duration::from_millis(200));
            }
            Err(e) => panic!("worker 1 did not recover within 120 s: {e}"),
        }
    };
    assert_eq!(
        recovered,
        stl_pathfinding::dijkstra::distance(&mirror, ds, dt),
        "recovered worker must serve the mid-outage update exactly"
    );
    assert_matches_dijkstra(&mut client, &mirror, "after respawn + catch-up");

    // The healed cluster accepts further updates at the next sequence.
    let out = client.update(&[updates[4]]).expect("post-recovery update");
    assert!(out.applied, "post-recovery update: {}", out.reason);
    assert_eq!(out.generation, 5);
    mirror.set_weight(updates[4].a, updates[4].b, updates[4].new_weight).expect("mirror");
    assert_matches_dijkstra(&mut client, &mirror, "after post-recovery update");

    drop(client);
    let lines = deploy.stop();
    assert!(
        lines.iter().any(|l| l.starts_with("worker 1 exited; respawning")),
        "supervisor must report the crash: {lines:?}"
    );
    assert!(
        lines.iter().any(|l| l.starts_with("worker 1 reattached at generation")),
        "supervisor must report the reattach: {lines:?}"
    );
    assert!(
        lines.iter().any(|l| l.starts_with("transport: ") && l.contains(" 0 bad frames,")),
        "the front must report its transport counters, with no bad frames: {lines:?}"
    );
}
