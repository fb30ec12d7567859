//! Supervised-writer crash tests driven by the `publish` failpoint.
//!
//! The failpoint registry is process-global: an armed point fires in
//! whichever writer thread reaches it first. These tests live in their own
//! test binary so no other test's writer shares the process, and they
//! serialise on a lock so they cannot consume each other's armings.

use std::sync::{Mutex, MutexGuard};

use stl_core::failpoint::{self, Action};
use stl_core::{Stl, StlConfig};
use stl_graph::builder::from_edges;
use stl_graph::EdgeUpdate;
use stl_server::{BatchOutcome, ServerConfig, StlServer, MAX_WRITER_RESTARTS};

static FP_LOCK: Mutex<()> = Mutex::new(());

fn fp_locked() -> MutexGuard<'static, ()> {
    let guard = FP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    failpoint::disarm_all();
    guard
}

fn diamond_server() -> StlServer {
    let g = from_edges(4, vec![(0, 1, 3), (1, 2, 4), (2, 3, 5), (0, 3, 20)]);
    let stl = Stl::build(&g, &StlConfig::default());
    StlServer::start(g, stl, ServerConfig::default())
}

fn expect_rejected(outcome: BatchOutcome, needle: &str) {
    match outcome {
        BatchOutcome::Rejected(reason) => {
            assert!(reason.contains(needle), "expected {needle:?} in: {reason}");
        }
        BatchOutcome::Applied { seq } => {
            panic!("expected a rejection, got Applied {{ seq: {seq} }}")
        }
    }
}

#[test]
fn writer_restart_rolls_back_the_in_flight_batch() {
    // Kill the writer at the publish failpoint (before the pointer swap):
    // the in-flight batch must come back Rejected("writer restarted") with
    // no state change, and the respawned writer must serve later batches
    // with an unbroken sequence.
    let _l = fp_locked();
    let server = diamond_server();
    failpoint::arm("publish", Action::Panic, 1);
    let t1 = server.submit(vec![EdgeUpdate::new(0, 3, 2)]);
    expect_rejected(server.wait_for(t1), "writer restarted");
    // Rolled back: no generation consumed, distances untouched.
    assert_eq!(server.generation(), 0);
    assert_eq!(server.snapshot().query(0, 3), 12);
    // The respawned writer picks up exactly where the dead one left.
    let t2 = server.submit(vec![EdgeUpdate::new(0, 3, 2)]);
    assert_eq!(server.wait_for(t2), BatchOutcome::Applied { seq: 1 });
    assert_eq!(server.snapshot().query(0, 3), 2);
    let stats = server.shutdown();
    assert_eq!(stats.writer_restarts, 1);
    assert_eq!(stats.batches_applied, 1);
    assert_eq!(stats.batches_rejected, 1);
}

#[test]
fn supervisor_gives_up_after_max_restarts() {
    // Every batch dies at publish. The supervisor respawns the writer
    // MAX_WRITER_RESTARTS times; the next death makes it give up. The batch
    // queued behind the last fatal one never reaches a writer, and its
    // ticket must still settle — as Rejected — instead of hanging.
    let _l = fp_locked();
    let server = diamond_server();
    let batch = || vec![EdgeUpdate::new(0, 3, 2)];
    for _ in 0..MAX_WRITER_RESTARTS {
        // The point is one-shot; re-arm it for the respawned writer.
        failpoint::arm("publish", Action::Panic, 1);
        expect_rejected(server.wait_for(server.submit(batch())), "writer restarted");
    }
    failpoint::arm("publish", Action::Panic, 1);
    let fatal = server.submit(batch());
    let queued = server.submit(batch());
    expect_rejected(server.wait_for(fatal), "writer restarted");
    expect_rejected(server.wait_for(queued), "terminated");
    // The service is down for writes, but reads keep working from the last
    // published snapshot, and later submissions settle as rejected too.
    assert_eq!(server.snapshot().query(0, 3), 12);
    expect_rejected(server.wait_for(server.submit(batch())), "terminated");
    let stats = server.shutdown();
    assert_eq!(stats.writer_restarts, u64::from(MAX_WRITER_RESTARTS) + 1);
    assert_eq!(stats.batches_applied, 0);
}
