//! Correctness: sampled answers against Dijkstra on the graph of the
//! generation that served them, and the final served weights against the
//! acknowledged updates replayed in sequence order.

use std::collections::HashMap;

use stl_graph::{CsrGraph, VertexId};
use stl_pathfinding::DijkstraEngine;

use crate::load::Sample;
use crate::workload::Update;

#[derive(Debug, Default, Clone, Copy)]
pub struct Verdict {
    /// Answers compared (a one-to-many request counts once per target).
    pub checked: u64,
    /// Requests with at least one wrong answer.
    pub wrong_requests: u64,
}

/// Compare every sample with Dijkstra on its own generation's graph.
pub fn check_samples(samples: &[Sample]) -> Verdict {
    let mut v = Verdict::default();
    let mut engine = DijkstraEngine::new(0);
    for s in samples {
        engine.run(&s.graph, s.source);
        let mut wrong = false;
        for (&t, &got) in s.targets.iter().zip(&s.answers) {
            v.checked += 1;
            let want = engine.dist(t);
            if got != want {
                if !wrong {
                    eprintln!(
                        "oracle: generation {}: {} -> {t} answered {got}, Dijkstra says {want}",
                        s.generation, s.source
                    );
                }
                wrong = true;
            }
        }
        v.wrong_requests += u64::from(wrong);
    }
    v
}

/// Edges whose served weight differs from the last acknowledged update that
/// set it, the acknowledged updates taken in sequence order.
pub fn stale_weights(
    served: &CsrGraph,
    updates: &[Update],
    acked: &[(u64, usize)],
) -> Vec<(VertexId, VertexId)> {
    let mut order = acked.to_vec();
    order.sort_unstable();
    let mut want: HashMap<(VertexId, VertexId), u32> = HashMap::new();
    for &(_, i) in &order {
        for e in &updates[i].edges {
            want.insert((e.a, e.b), e.new_weight);
        }
    }
    let mut stale: Vec<_> = want
        .into_iter()
        .filter(|&((a, b), w)| served.weight(a, b) != Some(w))
        .map(|(edge, _)| edge)
        .collect();
    stale.sort_unstable();
    stale
}

#[cfg(test)]
mod tests {
    use super::*;
    use stl_graph::builder::from_edges;

    #[test]
    fn a_wrong_distance_is_counted() {
        let g = from_edges(4, vec![(0, 1, 3), (1, 2, 4), (2, 3, 5), (0, 3, 20)]);
        let sample = |answers: Vec<u32>| Sample {
            graph: g.clone(),
            generation: 0,
            source: 0,
            targets: vec![2, 3],
            answers,
        };
        let v = check_samples(&[sample(vec![7, 12]), sample(vec![7, 13])]);
        assert_eq!((v.checked, v.wrong_requests), (4, 1));
    }
}
