//! Program activity graph (PAG): per-rank span timelines stitched into a
//! happens-before DAG.
//!
//! Nodes are completed spans; edges are
//!
//! * **program order** — consecutive spans on the same timeline
//!   ([`PagEdge::flow`] = 0), and
//! * **message causality** — a producer span (send, retransmit, ODIN
//!   dispatch) connected to the consumer span that received its flow id
//!   ([`PagEdge::flow`] ≠ 0, see [`crate::flow`]).
//!
//! Construction is deterministic: nodes are sorted by
//! `(rank, virt_start, virt_end, cat, name)` — never by thread
//! registration order or raw flow id, both of which vary run to run —
//! and edges are sorted by `(src, dst)`. [`Pag::fingerprint`] hashes that
//! canonical structure, which is what the determinism test compares
//! across repeated runs.
//!
//! A retransmitted message has *several* producer spans for one flow
//! (the original send plus each retransmission). The consumer is matched
//! to the copy that actually delivered it — the producer whose recorded
//! departure best explains the consumer's recorded arrival
//! (`arrive = depart + L`) — so chaos runs cannot orphan edges.

use std::collections::HashMap;

use crate::flow;
use crate::span::{self, SpanEvent, SpanKind};

/// One span, placed on its timeline.
#[derive(Debug, Clone)]
pub struct PagNode {
    /// Rank the span was recorded on; `None` for the driver/master.
    pub rank: Option<usize>,
    /// The span itself (virtual + wall times, args, kind, flow ids).
    pub event: SpanEvent,
}

/// A happens-before edge between two [`PagNode`]s (indices into
/// [`Pag::nodes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagEdge {
    /// Producer node index.
    pub src: usize,
    /// Consumer node index.
    pub dst: usize,
    /// Flow id for message edges, `0` for program-order edges.
    pub flow: u64,
    /// Endpoints live in different clock domains (driver wall time vs
    /// rank virtual time); shown as a trace arrow but excluded from the
    /// critical-path walk.
    pub cross_domain: bool,
}

/// The program activity graph plus its stitching diagnostics.
#[derive(Debug, Clone)]
pub struct Pag {
    /// Spans in canonical order (see module docs).
    pub nodes: Vec<PagNode>,
    /// Program-order and message edges, sorted by `(src, dst)`.
    pub edges: Vec<PagEdge>,
    /// Consumer spans whose flow id had no producer span (e.g. the
    /// producer was overwritten in a full ring buffer).
    pub orphan_consumers: usize,
    /// Produced flows no consumer span ever claimed (e.g. a message
    /// dropped in raw delivery mode, or received after recording stopped).
    pub unconsumed_producers: usize,
    /// Spans lost to ring-buffer overwrites, summed over all timelines
    /// (a nonzero value means the graph is truncated).
    pub dropped_spans: u64,
}

fn rank_key(rank: Option<usize>) -> usize {
    // Driver timelines sort after every rank.
    rank.map_or(usize::MAX, |r| r)
}

impl Pag {
    /// Build the graph from the current span buffers
    /// ([`span::snapshot_all`]).
    pub fn build() -> Pag {
        Self::from_snapshot(span::snapshot_all())
    }

    /// Build from an explicit snapshot (tests use this to replay fixed
    /// timelines).
    pub fn from_snapshot(rings: Vec<(Option<usize>, u64, Vec<SpanEvent>)>) -> Pag {
        let mut dropped_spans = 0u64;
        let mut nodes: Vec<PagNode> = Vec::new();
        for (rank, dropped, events) in rings {
            dropped_spans += dropped;
            nodes.extend(events.into_iter().map(|event| PagNode { rank, event }));
        }
        nodes.sort_by(|a, b| {
            rank_key(a.rank)
                .cmp(&rank_key(b.rank))
                .then(a.event.virt_start_s.total_cmp(&b.event.virt_start_s))
                .then(a.event.virt_end_s.total_cmp(&b.event.virt_end_s))
                .then(a.event.cat.cmp(b.event.cat))
                .then(a.event.name.cmp(&b.event.name))
        });

        let mut edges: Vec<PagEdge> = Vec::new();
        // Program order: consecutive spans (by start time) per timeline.
        let mut prev_on: HashMap<usize, usize> = HashMap::new();
        for (i, n) in nodes.iter().enumerate() {
            let key = rank_key(n.rank);
            if let Some(&p) = prev_on.get(&key) {
                edges.push(PagEdge {
                    src: p,
                    dst: i,
                    flow: 0,
                    cross_domain: false,
                });
            }
            prev_on.insert(key, i);
        }

        // Message causality: match each consumer to the producer copy
        // whose departure best explains the recorded arrival.
        let mut producers: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, n) in nodes.iter().enumerate() {
            if n.event.flow_out != flow::NONE {
                producers.entry(n.event.flow_out).or_default().push(i);
            }
        }
        let mut consumed: HashMap<u64, bool> = HashMap::new();
        let mut orphan_consumers = 0usize;
        for (i, n) in nodes.iter().enumerate() {
            let f = n.event.flow_in;
            if f == flow::NONE {
                continue;
            }
            let Some(cands) = producers.get(&f) else {
                orphan_consumers += 1;
                continue;
            };
            consumed.insert(f, true);
            let arrive = n.event.arg(flow::args::ARRIVE);
            let lat = n.event.arg(flow::args::LAT).unwrap_or(0.0);
            let best = cands
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    let score = |j: usize| match (arrive, nodes[j].event.arg(flow::args::DEPART)) {
                        (Some(arr), Some(dep)) => (arr - lat - dep).abs(),
                        // No timing info (control flows): prefer the
                        // earliest producer; `f64::MAX` ties break on
                        // index below via min_by's first-wins order.
                        _ => f64::MAX,
                    };
                    score(a).total_cmp(&score(b))
                })
                .expect("candidate list is never empty");
            edges.push(PagEdge {
                src: best,
                dst: i,
                flow: f,
                cross_domain: nodes[best].rank.is_none() != n.rank.is_none(),
            });
        }
        let unconsumed_producers = producers
            .keys()
            .filter(|f| !consumed.contains_key(*f))
            .count();
        edges.sort_by(|a, b| {
            a.src
                .cmp(&b.src)
                .then(a.dst.cmp(&b.dst))
                .then(a.flow.cmp(&b.flow))
        });
        Pag {
            nodes,
            edges,
            orphan_consumers,
            unconsumed_producers,
            dropped_spans,
        }
    }

    /// Message edges only (flow ≠ 0); what the trace exporter draws as
    /// Perfetto arrows.
    pub fn flow_edges(&self) -> impl Iterator<Item = &PagEdge> {
        self.edges.iter().filter(|e| e.flow != 0)
    }

    /// Structural hash of the graph, stable across runs of the same
    /// deterministic program: covers ranks, categories, names, kinds,
    /// virtual times and edge shape — not wall times, not raw flow ids,
    /// not thread registration order.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        for n in &self.nodes {
            mix(&(rank_key(n.rank) as u64).to_le_bytes());
            mix(n.event.cat.as_bytes());
            mix(n.event.name.as_bytes());
            mix(&(n.event.kind as u8).to_le_bytes());
            mix(&n.event.virt_start_s.to_bits().to_le_bytes());
            mix(&n.event.virt_end_s.to_bits().to_le_bytes());
            mix(&[
                u8::from(n.event.flow_out != 0),
                u8::from(n.event.flow_in != 0),
            ]);
        }
        for e in &self.edges {
            mix(&(e.src as u64).to_le_bytes());
            mix(&(e.dst as u64).to_le_bytes());
            mix(&[u8::from(e.flow != 0), u8::from(e.cross_domain)]);
        }
        h
    }

    /// Per-timeline final virtual clock: the latest span end recorded on
    /// each rank (`None` timelines excluded).
    pub fn rank_end_times(&self) -> Vec<(usize, f64)> {
        let mut ends: HashMap<usize, f64> = HashMap::new();
        for n in &self.nodes {
            if let Some(r) = n.rank {
                let e = ends.entry(r).or_insert(0.0);
                *e = e.max(n.event.virt_end_s);
            }
        }
        let mut v: Vec<(usize, f64)> = ends.into_iter().collect();
        v.sort_by_key(|(r, _)| *r);
        v
    }

    /// Event spans (kind ≠ `Other`) per rank, each list sorted by
    /// `virt_end` — the timeline the critical-path walk consumes.
    pub(crate) fn event_index(&self) -> HashMap<usize, Vec<usize>> {
        let mut per_rank: HashMap<usize, Vec<usize>> = HashMap::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if n.event.kind != SpanKind::Other {
                if let Some(r) = n.rank {
                    per_rank.entry(r).or_default().push(i);
                }
            }
        }
        for list in per_rank.values_mut() {
            list.sort_by(|&a, &b| {
                self.nodes[a]
                    .event
                    .virt_end_s
                    .total_cmp(&self.nodes[b].event.virt_end_s)
            });
        }
        per_rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanMeta;

    fn ev(
        name: &str,
        start: f64,
        end: f64,
        kind: SpanKind,
        flow_out: u64,
        flow_in: u64,
        args: &[(&'static str, f64)],
    ) -> SpanEvent {
        SpanEvent {
            cat: "t",
            name: name.to_string().into(),
            virt_start_s: start,
            virt_end_s: end,
            wall_start_s: 0.0,
            wall_end_s: 0.0,
            args: args.to_vec(),
            kind,
            flow_out,
            flow_in,
        }
    }

    #[test]
    fn stitches_send_to_recv_and_orders_nodes() {
        let f = flow::data(flow::next_domain(), 1);
        let rings = vec![
            // Registration order is reversed vs rank order on purpose.
            (
                Some(1),
                0,
                vec![ev(
                    "recv",
                    0.0,
                    3.0,
                    SpanKind::Recv,
                    0,
                    f,
                    &[(flow::args::ARRIVE, 2.5), (flow::args::LAT, 0.5)],
                )],
            ),
            (
                Some(0),
                0,
                vec![ev(
                    "send",
                    0.0,
                    1.0,
                    SpanKind::Send,
                    f,
                    0,
                    &[(flow::args::DEPART, 2.0)],
                )],
            ),
        ];
        let pag = Pag::from_snapshot(rings);
        assert_eq!(pag.nodes[0].rank, Some(0));
        assert_eq!(pag.nodes[1].rank, Some(1));
        let flows: Vec<_> = pag.flow_edges().collect();
        assert_eq!(flows.len(), 1);
        assert_eq!((flows[0].src, flows[0].dst), (0, 1));
        assert_eq!(pag.orphan_consumers, 0);
        assert_eq!(pag.unconsumed_producers, 0);
    }

    #[test]
    fn retransmit_matches_by_departure_not_first_copy() {
        let f = flow::data(flow::next_domain(), 1);
        let rings = vec![(
            Some(0),
            0,
            vec![
                ev(
                    "send",
                    0.0,
                    1.0,
                    SpanKind::Send,
                    f,
                    0,
                    &[(flow::args::DEPART, 1.0)],
                ),
                ev(
                    "retx",
                    4.0,
                    4.1,
                    SpanKind::Retx,
                    f,
                    0,
                    &[(flow::args::DEPART, 5.0)],
                ),
                ev(
                    "recv",
                    0.0,
                    6.0,
                    SpanKind::Recv,
                    0,
                    f,
                    &[(flow::args::ARRIVE, 5.5), (flow::args::LAT, 0.5)],
                ),
            ],
        )];
        let pag = Pag::from_snapshot(rings);
        let edge = pag.flow_edges().next().unwrap();
        // arrive − L = 5.0 → the retransmitted copy delivered it.
        assert_eq!(pag.nodes[edge.src].event.name, "retx");
        assert_eq!(pag.orphan_consumers, 0);
        // The flow *was* consumed, even though one copy never landed.
        assert_eq!(pag.unconsumed_producers, 0);
    }

    #[test]
    fn fingerprint_ignores_registration_order_and_flow_values() {
        let make = |f: u64, swap: bool| {
            let a = (
                Some(0),
                0u64,
                vec![ev(
                    "send",
                    0.0,
                    1.0,
                    SpanKind::Send,
                    f,
                    0,
                    &[(flow::args::DEPART, 2.0)],
                )],
            );
            let b = (
                Some(1),
                0u64,
                vec![ev(
                    "recv",
                    0.0,
                    3.0,
                    SpanKind::Recv,
                    0,
                    f,
                    &[(flow::args::ARRIVE, 2.5), (flow::args::LAT, 0.5)],
                )],
            );
            let rings = if swap { vec![b, a] } else { vec![a, b] };
            Pag::from_snapshot(rings).fingerprint()
        };
        let f1 = flow::data(flow::next_domain(), 1);
        let f2 = flow::data(flow::next_domain(), 1);
        assert_eq!(make(f1, false), make(f2, true));
    }

    #[test]
    fn missing_producer_counts_as_orphan() {
        let f = flow::data(flow::next_domain(), 9);
        let rings = vec![(
            Some(0),
            0,
            vec![ev("recv", 0.0, 1.0, SpanKind::Recv, 0, f, &[])],
        )];
        let pag = Pag::from_snapshot(rings);
        assert_eq!(pag.orphan_consumers, 1);
    }

    #[test]
    fn span_meta_default_is_plain_other() {
        let m = SpanMeta::default();
        assert_eq!(m.kind, SpanKind::Other);
        assert_eq!(m.flow_out, 0);
        assert_eq!(m.flow_in, 0);
    }
}
