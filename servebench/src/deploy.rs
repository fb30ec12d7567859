//! Bringing the real serving stack up and down: index build, `StlServer`
//! (durable or not), `NetServer` on a unix socket, and for the routed
//! workload shard workers behind `Router::connect` + `RouterServer`. Every
//! knob is the stack's default except what the workload defines.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use stl_core::{Hierarchy, IndexStats, ShardSet, Stl, StlConfig};
use stl_graph::{CsrGraph, Dist, VertexId};
use stl_server::{
    DurabilityConfig, Endpoint, NetClient, NetConfig, NetServer, Router, RouterConfig,
    RouterServer, ServerConfig, Snapshot, StlServer,
};

use crate::trace::{Tracer, ROOT};
use crate::workload::Topology;

/// Threads for the parallel label build: the machine's parallelism.
fn build_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

pub struct Deployment {
    /// The `StlServer` of each worker (one unless routed).
    pub servers: Vec<Arc<StlServer>>,
    pub nets: Vec<NetServer>,
    pub router: Option<RouterServer>,
    /// The servers' configuration before per-worker ownership.
    pub cfg: ServerConfig,
    /// The endpoint clients talk to: the router front, or the only server.
    pub front: Endpoint,
    pub index_bytes: usize,
    pub label_entries: u64,
    /// Generated graph in memory → first verified answer over the socket.
    pub setup_s: f64,
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn unix(dir: &Path, name: &str) -> String {
    format!("unix:{}", dir.join(name).display())
}

impl Deployment {
    /// Build the index for `g` and start the stack in `dir` (sockets and
    /// state). Set-up ends when `probe` is answered correctly over the
    /// front socket.
    pub fn start(
        topology: Topology,
        g: &CsrGraph,
        dir: &Path,
        probe: ((VertexId, VertexId), Dist),
        cfg: &ServerConfig,
        tracer: &mut Tracer,
    ) -> Result<Self, String> {
        std::fs::create_dir_all(dir).map_err(io_err("cannot create the run directory"))?;
        let t0 = Instant::now();
        let root = tracer.open("setup", ROOT, 0);
        let hier =
            tracer.span("Hierarchy::build", root, 0, || Hierarchy::build(g, &StlConfig::default()));
        let stl = tracer.span("Stl::build_with_hierarchy_parallel", root, 0, || {
            Stl::build_with_hierarchy_parallel(g, hier, build_threads())
        });
        let index = IndexStats::of(&stl);
        let indexes = match topology {
            // Each worker owns its index, as a separate process would.
            Topology::Routed { workers } => {
                let mut v: Vec<Stl> = (1..workers).map(|_| stl.deep_clone()).collect();
                v.push(stl);
                v
            }
            Topology::Single | Topology::Durable => vec![stl],
        };
        let mut dep = Self::serve(topology, g, indexes, dir, cfg, tracer, root)?;
        dep.index_bytes = index.total_bytes();
        dep.label_entries = index.label_entries;

        let ((s, t), expected) = probe;
        let got = tracer.span("first_answer", root, 0, || {
            NetClient::connect(&dep.front).and_then(|mut c| c.query(s, t))
        });
        dep.setup_s = t0.elapsed().as_secs_f64();
        tracer.close(root);
        match got {
            Ok(d) if d == expected => Ok(dep),
            Ok(d) => Err(format!("set-up probe {s}->{t} answered {d}, oracle says {expected}")),
            Err(e) => Err(format!("set-up probe {s}->{t} failed: {e}")),
        }
    }

    /// Start the stack over built indexes: `indexes[0]` for a single
    /// server, `indexes[k]` for shard worker `k` of a routed deployment.
    pub fn serve(
        topology: Topology,
        g: &CsrGraph,
        indexes: Vec<Stl>,
        dir: &Path,
        cfg: &ServerConfig,
        tracer: &mut Tracer,
        root: usize,
    ) -> Result<Self, String> {
        let workers = indexes.len();
        let mut dep = Deployment {
            servers: Vec::new(),
            nets: Vec::new(),
            router: None,
            cfg: cfg.clone(),
            front: Endpoint::parse(&unix(dir, "w0.sock")).map_err(io_err("bad socket path"))?,
            index_bytes: 0,
            label_entries: 0,
            setup_s: 0.0,
        };
        for (k, stl) in indexes.into_iter().enumerate() {
            let k64 = k as u64;
            let server = tracer.span("StlServer::start", root, k64, || match topology {
                Topology::Durable => {
                    let durability = DurabilityConfig::new(dir.join("state"));
                    StlServer::start_durable(g.clone(), stl, cfg.clone(), durability)
                        .map(|(s, _)| s)
                        .map_err(io_err("cannot start the durable server"))
                }
                Topology::Single => Ok(StlServer::start(g.clone(), stl, cfg.clone())),
                Topology::Routed { .. } => {
                    let owned = ShardSet::for_worker(stl.hierarchy(), k, workers);
                    let cfg = ServerConfig { owned_shards: Some(owned), ..cfg.clone() };
                    Ok(StlServer::start(g.clone(), stl, cfg))
                }
            })?;
            let server = Arc::new(server);
            let net = tracer.span("NetServer::start", root, k64, || {
                let listen = unix(dir, &format!("w{k}.sock"));
                NetServer::start(Arc::clone(&server), &listen, NetConfig::default())
                    .map_err(io_err("cannot start the transport"))
            })?;
            dep.servers.push(server);
            dep.nets.push(net);
        }
        if let Topology::Routed { .. } = topology {
            let endpoints: Vec<Endpoint> = dep.nets.iter().map(NetServer::local_addr).collect();
            let router = tracer.span("Router::connect", root, 0, || {
                Router::connect(g.clone(), &endpoints, RouterConfig::default())
                    .map_err(io_err("cannot attach the router"))
            })?;
            let front = tracer.span("RouterServer::start", root, 0, || {
                RouterServer::start(Arc::new(router), &unix(dir, "front.sock"))
                    .map_err(io_err("cannot start the router front"))
            })?;
            dep.front = front.local_addr();
            dep.router = Some(front);
        }
        Ok(dep)
    }

    /// The snapshot serving right now, if every replica (and the router)
    /// agrees on its generation — the only case where an answer can be
    /// pinned to one graph.
    pub fn pin(&self) -> Option<Arc<Snapshot>> {
        let snap = self.servers[0].snapshot();
        let gen = snap.generation();
        if self.router.as_ref().is_some_and(|r| r.router().generation() != gen) {
            return None;
        }
        if self.servers[1..].iter().any(|s| s.snapshot().generation() != gen) {
            return None;
        }
        Some(snap)
    }

    /// Whether `snap` is still the pinned snapshot.
    pub fn still(&self, snap: &Snapshot) -> bool {
        self.pin().is_some_and(|p| p.generation() == snap.generation())
    }

    /// Stop the front, then the workers, then their servers (a durable
    /// server fsyncs and writes its final checkpoint here).
    pub fn shutdown(self) {
        if let Some(front) = self.router {
            front.shutdown();
        }
        for net in self.nets {
            net.shutdown();
        }
        for server in self.servers {
            if let Ok(server) = Arc::try_unwrap(server) {
                server.shutdown();
            }
        }
    }
}
