//! Load generation. The open-loop phase replays the read and update
//! schedules on two connections from two threads, timing every request from
//! its **due** time — a stall delays later sends, and that delay counts in
//! their latency instead of vanishing (no coordinated omission). Reads and
//! updates never share a connection, so a slow update ack cannot hold back
//! the read stream inside the generator. The traced run's capacity phase is
//! closed-loop: two connections sending point queries back to back.

use std::io;
use std::time::{Duration, Instant};

use stl_graph::{CsrGraph, Dist, VertexId};
use stl_server::NetClient;

use crate::deploy::Deployment;
use crate::workload::{Inputs, ReadOp};

/// An answer kept for the oracle, with the graph of the generation that
/// served it.
pub struct Sample {
    pub graph: CsrGraph,
    pub generation: u64,
    pub source: VertexId,
    pub targets: Vec<VertexId>,
    pub answers: Vec<Dist>,
}

/// Operation outcomes other than a good answer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Outcomes {
    pub attempted: u64,
    /// Transport or protocol failures.
    pub errors: u64,
    /// Shed by admission control (`BUSY`, or an `overloaded` rejection).
    pub shed: u64,
    /// Update requests rejected for any other reason.
    pub rejected: u64,
}

impl Outcomes {
    pub fn failed(&self) -> u64 {
        self.errors + self.shed + self.rejected
    }

    pub fn add(&mut self, o: Outcomes) {
        self.attempted += o.attempted;
        self.errors += o.errors;
        self.shed += o.shed;
        self.rejected += o.rejected;
    }

    /// Count a failed request; reconnect if the connection is gone.
    fn fail(&mut self, e: io::Error, client: &mut NetClient) {
        match e.kind() {
            io::ErrorKind::ConnectionRefused => self.shed += 1,
            io::ErrorKind::InvalidInput => self.errors += 1,
            _ => {
                self.errors += 1;
                if let Ok(c) = NetClient::connect(client.peer()) {
                    *client = c;
                }
            }
        }
    }
}

#[derive(Default)]
pub struct OpenLoop {
    /// `(due offset s, latency µs)` of every answered point query.
    pub point_us: Vec<(f64, f64)>,
    /// `(due offset s, latency µs)` of every answered one-to-many request.
    pub many_us: Vec<(f64, f64)>,
    pub ack_ms: Vec<f64>,
    /// How late the generator sent each request after its due time.
    pub lag_ms: Vec<f64>,
    pub out: Outcomes,
    pub samples: Vec<Sample>,
    /// `(sequence number, update index)` of every applied update request.
    pub acked: Vec<(u64, usize)>,
}

pub struct Peak {
    /// Completed queries per second in each of the phase's windows.
    pub window_qps: Vec<f64>,
    pub out: Outcomes,
    pub samples: Vec<Sample>,
}

/// Sleep until shortly before `due`, then spin, so sends leave on time
/// without burning a core between widely spaced requests.
pub(crate) fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(100);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

fn connect(dep: &Deployment) -> Result<NetClient, String> {
    NetClient::connect(&dep.front).map_err(|e| format!("cannot connect to {}: {e}", dep.front))
}

/// Pin the calling generator thread (see [`crate::affinity`]). Best effort:
/// an unpinned generator is placed less repeatably, not wrong.
fn pin_generator() {
    let _ = crate::affinity::pin_to_first_cpu();
}

/// Ask `client` for `source → targets`; keep the answer for the oracle when
/// the serving generation is unambiguous around the request.
fn read(
    dep: &Deployment,
    client: &mut NetClient,
    source: VertexId,
    targets: &[VertexId],
    many: bool,
    check: bool,
) -> io::Result<(Instant, Option<Sample>)> {
    let pinned = if check { dep.pin() } else { None };
    let answers = if many {
        client.one_to_many(source, targets)?
    } else {
        vec![client.query(source, targets[0])?]
    };
    let done = Instant::now();
    let sample = pinned.filter(|snap| dep.still(snap)).map(|snap| Sample {
        graph: snap.graph().clone(),
        generation: snap.generation(),
        source,
        targets: targets.to_vec(),
        answers,
    });
    Ok((done, sample))
}

/// Replay the open-loop schedules. `corrupt` perturbs the first answer kept
/// for the oracle (the benchmark's self-test).
pub fn open_loop(dep: &Deployment, inputs: &Inputs, corrupt: bool) -> Result<OpenLoop, String> {
    let mut reader = connect(dep)?;
    let mut writer = connect(dep)?;
    let t0 = Instant::now() + Duration::from_millis(20);
    let (reads, updates) = std::thread::scope(|scope| {
        let reads = scope.spawn(|| {
            pin_generator();
            let mut r = OpenLoop::default();
            for op in &inputs.reads {
                let due = t0 + op.at;
                wait_until(due);
                r.lag_ms.push(due.elapsed().as_secs_f64() * 1e3);
                r.out.attempted += 1;
                let (source, targets, many) = match &op.op {
                    ReadOp::Point(s, t) => (*s, std::slice::from_ref(t), false),
                    ReadOp::Many(s, ts) => (*s, ts.as_slice(), true),
                };
                match read(dep, &mut reader, source, targets, many, op.check) {
                    Ok((done, sample)) => {
                        let us = (done - due).as_secs_f64() * 1e6;
                        let at = op.at.as_secs_f64();
                        if many { &mut r.many_us } else { &mut r.point_us }.push((at, us));
                        r.samples.extend(sample);
                    }
                    Err(e) => r.out.fail(e, &mut reader),
                }
            }
            r
        });
        let updates = scope.spawn(|| {
            pin_generator();
            let mut r = OpenLoop::default();
            for (i, u) in inputs.updates.iter().enumerate() {
                let due = t0 + u.at;
                wait_until(due);
                r.lag_ms.push(due.elapsed().as_secs_f64() * 1e3);
                r.out.attempted += 1;
                match writer.update(&u.edges) {
                    Ok(o) if o.applied => {
                        r.ack_ms.push(due.elapsed().as_secs_f64() * 1e3);
                        r.acked.push((o.generation, i));
                    }
                    Ok(o) if o.reason.starts_with("overloaded") => r.out.shed += 1,
                    Ok(_) => r.out.rejected += 1,
                    Err(e) => r.out.fail(e, &mut writer),
                }
            }
            r
        });
        (reads.join(), updates.join())
    });
    let mut r = reads.map_err(|_| "the read generator panicked")?;
    let u = updates.map_err(|_| "the update generator panicked")?;
    r.ack_ms = u.ack_ms;
    r.acked = u.acked;
    r.lag_ms.extend(u.lag_ms);
    r.out.add(u.out);
    if corrupt {
        if let Some(s) = r.samples.first_mut() {
            s.answers[0] = s.answers[0].wrapping_add(1);
        }
    }
    Ok(r)
}

/// Closed-loop capacity: point queries on two connections for `windows`
/// consecutive windows of `window` each.
pub fn peak(
    dep: &Deployment,
    pairs: &[(VertexId, VertexId)],
    window: Duration,
    windows: usize,
) -> Result<Peak, String> {
    const CONNS: usize = 2;
    const CHECK_EVERY: usize = 4001;
    let mut clients: Vec<NetClient> = (0..CONNS).map(|_| connect(dep)).collect::<Result<_, _>>()?;
    let start = Instant::now();
    let end = start + window * windows as u32;
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(k, client)| {
                scope.spawn(move || {
                    pin_generator();
                    let (mut ok, mut out, mut samples) =
                        (vec![0u64; windows], Outcomes::default(), Vec::new());
                    let mut i = k;
                    loop {
                        let now = Instant::now();
                        if now >= end {
                            break;
                        }
                        let w = ((now - start).as_secs_f64() / window.as_secs_f64()) as usize;
                        let (s, t) = pairs[i % pairs.len()];
                        out.attempted += 1;
                        match read(dep, client, s, &[t], false, i % CHECK_EVERY == k) {
                            Ok((_, sample)) => {
                                ok[w.min(windows - 1)] += 1;
                                samples.extend(sample);
                            }
                            Err(e) => out.fail(e, client),
                        }
                        i += CONNS;
                    }
                    (ok, out, samples)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let secs = window.as_secs_f64();
    let mut peak =
        Peak { window_qps: vec![0.0; windows], out: Outcomes::default(), samples: Vec::new() };
    for r in results {
        let (ok, out, samples) = r.map_err(|_| "a capacity-phase client panicked")?;
        for (q, n) in peak.window_qps.iter_mut().zip(ok) {
            *q += n as f64 / secs;
        }
        peak.out.add(out);
        peak.samples.extend(samples);
    }
    Ok(peak)
}
