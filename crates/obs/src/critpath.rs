//! Critical-path extraction and straggler attribution over the program
//! activity graph.
//!
//! The walk runs *backward* over LogGP virtual time: start at the rank
//! whose recorded clock ends latest (the makespan), repeatedly find the
//! event span that last advanced that rank's clock, attribute the
//! interval it explains, and — when the event is a receive that actually
//! blocked — hop the matched flow edge to the sender and continue there
//! at the sender's post time. Every attributed interval lands in exactly
//! one of five categories:
//!
//! * **compute** — clock advance with no event span covering it
//!   (`advance_compute`, ack overheads, un-instrumented work);
//! * **wire** — posting/delivery overhead `o`, serialization `bytes·G`,
//!   and latency `L` of messages on the path;
//! * **blocked** — wait time explained by nothing but the sender being
//!   late: NIC queueing beyond the message's own serialization and any
//!   injected delay (this is where a delay fault surfaces, charged to
//!   the *sending* rank);
//! * **retransmit** — reliable-delivery retransmission spans on the path;
//! * **kernel** — Seamless VM execution spans on the path.
//!
//! Each walk step attributes exactly the amount by which the frontier
//! time decreases, so the categories tile `[0, makespan]` with no gaps
//! or double counting; [`Profile::critical_path_s`] is *defined* as the
//! ordered sum of the five category totals, which is the bitwise
//! identity the tests assert. Cross-domain edges (ODIN master → worker,
//! wall clock vs virtual clock) are drawn in the trace but never walked.

use std::collections::{BTreeMap, HashMap};

use crate::flow::args;
use crate::graph::Pag;
use crate::span::SpanKind;
use crate::trace::escape_json;

/// Category names, in attribution order; `Profile::categories` and
/// `RankLoad::residency` are indexed the same way.
pub const CATEGORIES: [&str; 5] = ["compute", "wire", "blocked", "retransmit", "kernel"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cat {
    Compute = 0,
    Wire = 1,
    Blocked = 2,
    Retransmit = 3,
    Kernel = 4,
}

/// One rank's view of the profile.
#[derive(Debug, Clone)]
pub struct RankProfile {
    /// Global rank id.
    pub rank: usize,
    /// Seconds of the critical path attributed to this rank, per
    /// [`CATEGORIES`] entry.
    pub residency: [f64; 5],
    /// Full-timeline decomposition of this rank's clock (not just the
    /// path), per [`CATEGORIES`] entry — the load/imbalance vector.
    pub load: [f64; 5],
    /// Final recorded virtual clock of this rank.
    pub end_s: f64,
}

impl RankProfile {
    /// Total critical-path seconds attributed to this rank.
    fn residency_total(&self) -> f64 {
        self.residency.iter().sum()
    }
    /// Straggler score: anomaly categories first (blocked + retransmit).
    fn straggler_score(&self) -> (f64, f64) {
        (
            self.residency[Cat::Blocked as usize] + self.residency[Cat::Retransmit as usize],
            self.residency_total(),
        )
    }
}

/// The hottest flow edge on the critical path.
#[derive(Debug, Clone, Copy)]
pub struct HotEdge {
    /// Sending (producing) rank.
    pub src: usize,
    /// Receiving (consuming) rank.
    pub dst: usize,
    /// Total path seconds carried by this rank pair's edges.
    pub total_s: f64,
    /// Portion attributed to the blocked category (queueing/delay).
    pub blocked_s: f64,
}

/// Everything the critical-path walk learned about a run.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Latest recorded virtual clock over all ranks.
    pub makespan_s: f64,
    /// Length of the critical path: the ordered sum of [`Profile::categories`].
    pub critical_path_s: f64,
    /// Path seconds per [`CATEGORIES`] entry.
    pub categories: [f64; 5],
    /// Path seconds per subsystem (span category, or `"(gap)"` for
    /// un-instrumented clock advance).
    pub by_subsystem: BTreeMap<String, f64>,
    /// Per-rank residency and load vectors, by rank.
    pub ranks: Vec<RankProfile>,
    /// Ranks ordered most-suspicious first (blocked + retransmit
    /// residency, then total residency).
    pub stragglers: Vec<usize>,
    /// The dominant straggler (`stragglers[0]`), if any rank is on the path.
    pub dominant_rank: Option<usize>,
    /// The flow edge carrying the most blocked time on the path.
    pub dominant_edge: Option<HotEdge>,
    /// Diagnostics forwarded from the [`Pag`].
    pub orphan_consumers: usize,
    /// Flows produced but never consumed (see [`Pag::unconsumed_producers`]).
    pub unconsumed_producers: usize,
    /// Spans lost to ring overwrites; nonzero means a truncated profile.
    pub dropped_spans: u64,
    /// Makespan divided by mean rank end time (1.0 = perfectly balanced).
    pub imbalance: f64,
}

/// Run the critical-path walk over a built graph.
pub fn profile(pag: &Pag) -> Profile {
    let ends = pag.rank_end_times();
    let makespan_s = ends.iter().map(|&(_, e)| e).fold(0.0f64, f64::max);
    let mut acc = Acc::new(&ends);
    if let Some(&(start_rank, _)) = ends
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
    {
        walk(pag, start_rank, makespan_s, &mut acc);
    }
    acc.load_vectors(pag);
    acc.into_profile(pag, makespan_s, &ends)
}

/// Build the graph from the live span buffers and profile it.
pub fn profile_current() -> Profile {
    profile(&Pag::build())
}

struct Acc {
    residency: HashMap<usize, [f64; 5]>,
    load: HashMap<usize, [f64; 5]>,
    by_subsystem: BTreeMap<String, f64>,
    edges: HashMap<(usize, usize), (f64, f64)>,
    categories: [f64; 5],
}

impl Acc {
    fn new(ends: &[(usize, f64)]) -> Acc {
        let mut residency = HashMap::new();
        let mut load = HashMap::new();
        for &(r, _) in ends {
            residency.insert(r, [0.0; 5]);
            load.insert(r, [0.0; 5]);
        }
        Acc {
            residency,
            load,
            by_subsystem: BTreeMap::new(),
            edges: HashMap::new(),
            categories: [0.0; 5],
        }
    }

    fn add(&mut self, rank: usize, cat: Cat, subsystem: &str, amount: f64) {
        if amount <= 0.0 {
            return;
        }
        self.categories[cat as usize] += amount;
        self.residency.entry(rank).or_insert([0.0; 5])[cat as usize] += amount;
        *self
            .by_subsystem
            .entry(subsystem.to_string())
            .or_insert(0.0) += amount;
    }

    /// Full-timeline load vectors, independent of the walk: classify
    /// every event span's clock charge, then call the remainder of each
    /// rank's clock compute. Overlapping requests make this a (useful)
    /// approximation; the walk categories are the exact ones.
    fn load_vectors(&mut self, pag: &Pag) {
        for n in &pag.nodes {
            let Some(r) = n.rank else { continue };
            let e = &n.event;
            let dur = (e.virt_end_s - e.virt_start_s).max(0.0);
            let v = self.load.entry(r).or_insert([0.0; 5]);
            match e.kind {
                SpanKind::Kernel => v[Cat::Kernel as usize] += dur,
                SpanKind::Retx => v[Cat::Retransmit as usize] += dur,
                SpanKind::Recv => {
                    let blocked = e.arg(args::BLOCKED).unwrap_or(0.0).max(0.0);
                    let adv = e.arg(args::ADV).unwrap_or(0.0).max(blocked);
                    v[Cat::Blocked as usize] += blocked;
                    v[Cat::Wire as usize] += adv - blocked;
                }
                SpanKind::Send => {
                    let a = e.virt_start_s;
                    let pe = e.arg(args::POST_END).unwrap_or(a).max(a);
                    let d = e.arg(args::DEPART).unwrap_or(pe).max(pe);
                    let ws = e.arg(args::WIRE).unwrap_or(0.0).max(0.0);
                    let ser = d - pe;
                    v[Cat::Wire as usize] += (pe - a) + ser.min(ws);
                    v[Cat::Blocked as usize] += (ser - ws).max(0.0);
                }
                SpanKind::Other => {}
            }
        }
        for (r, v) in self.load.iter_mut() {
            let end = pag
                .nodes
                .iter()
                .filter(|n| n.rank == Some(*r))
                .map(|n| n.event.virt_end_s)
                .fold(0.0f64, f64::max);
            let tracked: f64 = v[1] + v[2] + v[3] + v[4];
            v[Cat::Compute as usize] = (end - tracked).max(0.0);
        }
    }

    fn into_profile(self, pag: &Pag, makespan_s: f64, ends: &[(usize, f64)]) -> Profile {
        let critical_path_s = self.categories.iter().sum();
        let mut ranks: Vec<RankProfile> = ends
            .iter()
            .map(|&(rank, end_s)| RankProfile {
                rank,
                residency: self.residency.get(&rank).copied().unwrap_or([0.0; 5]),
                load: self.load.get(&rank).copied().unwrap_or([0.0; 5]),
                end_s,
            })
            .collect();
        ranks.sort_by_key(|r| r.rank);
        let mut stragglers: Vec<usize> = ranks.iter().map(|r| r.rank).collect();
        let score_of: HashMap<usize, (f64, f64)> = ranks
            .iter()
            .map(|r| (r.rank, r.straggler_score()))
            .collect();
        stragglers.sort_by(|a, b| {
            let (ba, ta) = score_of[a];
            let (bb, tb) = score_of[b];
            bb.total_cmp(&ba).then(tb.total_cmp(&ta)).then(a.cmp(b))
        });
        let dominant_rank = stragglers.first().copied().filter(|r| score_of[r].1 > 0.0);
        let dominant_edge = self
            .edges
            .iter()
            .max_by(|a, b| {
                (a.1 .1)
                    .total_cmp(&b.1 .1)
                    .then((a.1 .0).total_cmp(&b.1 .0))
                    .then(b.0.cmp(a.0))
            })
            .map(|(&(src, dst), &(total_s, blocked_s))| HotEdge {
                src,
                dst,
                total_s,
                blocked_s,
            });
        let mean_end = if ends.is_empty() {
            0.0
        } else {
            ends.iter().map(|&(_, e)| e).sum::<f64>() / ends.len() as f64
        };
        Profile {
            makespan_s,
            critical_path_s,
            categories: self.categories,
            by_subsystem: self.by_subsystem,
            ranks,
            stragglers,
            dominant_rank,
            dominant_edge,
            orphan_consumers: pag.orphan_consumers,
            unconsumed_producers: pag.unconsumed_producers,
            dropped_spans: pag.dropped_spans,
            imbalance: if mean_end > 0.0 {
                makespan_s / mean_end
            } else {
                1.0
            },
        }
    }
}

fn walk(pag: &Pag, start_rank: usize, makespan_s: f64, acc: &mut Acc) {
    let events = pag.event_index();
    // Consumer node → same-domain producer node, for edge hops.
    let producer: HashMap<usize, usize> = pag
        .edges
        .iter()
        .filter(|e| e.flow != 0 && !e.cross_domain)
        .map(|e| (e.dst, e.src))
        .collect();
    let mut cursor: HashMap<usize, usize> =
        events.iter().map(|(&r, list)| (r, list.len())).collect();
    let mut r = start_rank;
    let mut t = makespan_s;
    while t > 0.0 {
        // Latest unvisited event span on `r` ending at or before `t`.
        let found = events.get(&r).and_then(|list| {
            let hi = cursor.get(&r).copied().unwrap_or(0).min(list.len());
            let ub = list[..hi].partition_point(|&i| pag.nodes[i].event.virt_end_s <= t);
            (ub > 0).then(|| (ub - 1, list[ub - 1]))
        });
        let Some((li, idx)) = found else {
            // Nothing recorded below t: the rank computed from time zero.
            acc.add(r, Cat::Compute, "(gap)", t);
            break;
        };
        cursor.insert(r, li);
        let e = &pag.nodes[idx].event;
        let end = e.virt_end_s;
        if t > end {
            acc.add(r, Cat::Compute, "(gap)", t - end);
            t = end;
        }
        let a = e.virt_start_s.min(t);
        match e.kind {
            SpanKind::Kernel => {
                acc.add(r, Cat::Kernel, e.cat, t - a);
                t = a;
            }
            SpanKind::Retx => {
                acc.add(r, Cat::Retransmit, e.cat, t - a);
                t = a;
            }
            SpanKind::Send => {
                let pe = e.arg(args::POST_END).unwrap_or(a).clamp(a, t);
                let d = e.arg(args::DEPART).unwrap_or(t).max(pe);
                let ws = e.arg(args::WIRE).unwrap_or(0.0).max(0.0);
                let cut = t.min(d);
                if t > cut {
                    // The clock passed departure before the wait: that
                    // tail was overlapped compute, not communication.
                    acc.add(r, Cat::Compute, e.cat, t - cut);
                }
                let ser = (cut - pe).max(0.0);
                let wire_part = ser.min(ws);
                acc.add(r, Cat::Wire, e.cat, (pe - a) + wire_part);
                acc.add(r, Cat::Blocked, e.cat, ser - wire_part);
                t = a;
            }
            SpanKind::Recv => {
                let blocked = e.arg(args::BLOCKED).unwrap_or(0.0).max(0.0);
                let adv = e.arg(args::ADV).unwrap_or(0.0).clamp(blocked, t);
                let w = t - adv;
                // Delivery overhead `o` (and the whole advance when the
                // wait never blocked).
                acc.add(r, Cat::Wire, e.cat, adv - blocked);
                if blocked <= 0.0 {
                    t = w;
                    continue;
                }
                let hop = producer.get(&idx).and_then(|&p| {
                    let pn = &pag.nodes[p];
                    pn.rank.map(|q| (q, &pn.event))
                });
                let Some((q, pe_ev)) = hop else {
                    // No producer recorded (orphan): charge the wait to
                    // this rank and keep walking locally.
                    acc.add(r, Cat::Blocked, e.cat, blocked);
                    t = w;
                    continue;
                };
                let arrive = e.arg(args::ARRIVE).unwrap_or(w + blocked);
                let d = pe_ev.arg(args::DEPART).unwrap_or(arrive).min(arrive);
                let ws = pe_ev.arg(args::WIRE).unwrap_or(0.0).max(0.0);
                let pe = pe_ev.arg(args::POST_END).unwrap_or(pe_ev.virt_end_s).min(d);
                // The message's journey [pe, arrive] explains the wait:
                // latency + own serialization are wire; anything more the
                // NIC sat on it (queueing, injected delay) is blocked —
                // charged to the *sender*, who is the cause.
                let lat = arrive - d;
                let ser = d - pe;
                let wire_part = ser.min(ws);
                let delay = ser - wire_part;
                acc.add(q, Cat::Wire, pe_ev.cat, lat + wire_part);
                acc.add(q, Cat::Blocked, pe_ev.cat, delay);
                let entry = acc.edges.entry((q, r)).or_insert((0.0, 0.0));
                entry.0 += lat + ser;
                entry.1 += delay.max(0.0);
                r = q;
                t = pe;
            }
            SpanKind::Other => unreachable!("event index excludes container spans"),
        }
    }
}

fn fmt_s(v: f64) -> String {
    if v >= 1.0 {
        format!("{v:.3}s")
    } else if v >= 1e-3 {
        format!("{:.3}ms", v * 1e3)
    } else {
        format!("{:.3}us", v * 1e6)
    }
}

impl Profile {
    /// Human-readable critical-path report.
    pub fn text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== critical path == makespan {} | path {} | imbalance {:.3}",
            fmt_s(self.makespan_s),
            fmt_s(self.critical_path_s),
            self.imbalance
        );
        let total = self.critical_path_s.max(f64::MIN_POSITIVE);
        for (i, name) in CATEGORIES.iter().enumerate() {
            let v = self.categories[i];
            let _ = writeln!(
                out,
                "  {name:<12} {:>12}  {:5.1}%",
                fmt_s(v),
                100.0 * v / total
            );
        }
        out.push_str("  by subsystem:");
        for (sub, v) in &self.by_subsystem {
            let _ = write!(out, " {sub}={}", fmt_s(*v));
        }
        out.push('\n');
        let _ = writeln!(out, "  stragglers (blocked+retransmit residency first):");
        for &rank in self.stragglers.iter().take(8) {
            let rp = self
                .ranks
                .iter()
                .find(|r| r.rank == rank)
                .expect("straggler list mirrors ranks");
            let _ = writeln!(
                out,
                "    rank {rank:<4} path {:>10}  blocked {:>10}  end {:>10}",
                fmt_s(rp.residency_total()),
                fmt_s(rp.residency[Cat::Blocked as usize]),
                fmt_s(rp.end_s)
            );
        }
        match self.dominant_rank {
            Some(r) => {
                let _ = writeln!(out, "  dominant straggler: rank {r}");
            }
            None => out.push_str("  dominant straggler: (none)\n"),
        }
        if let Some(e) = self.dominant_edge {
            let _ = writeln!(
                out,
                "  dominant edge: rank {} -> rank {} ({} on path, {} blocked)",
                e.src,
                e.dst,
                fmt_s(e.total_s),
                fmt_s(e.blocked_s)
            );
        }
        if self.orphan_consumers > 0 || self.dropped_spans > 0 {
            let _ = writeln!(
                out,
                "  WARNING: profile truncated — {} orphan flow edges, {} dropped spans",
                self.orphan_consumers, self.dropped_spans
            );
        }
        out
    }

    /// Machine-readable JSON profile (validates under `crate::json`).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let num = |v: f64| {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            }
        };
        let vec5 = |v: &[f64; 5]| {
            let parts: Vec<String> = CATEGORIES
                .iter()
                .zip(v.iter())
                .map(|(k, x)| format!("\"{k}\":{}", num(*x)))
                .collect();
            format!("{{{}}}", parts.join(","))
        };
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"makespan_s\":{},\"critical_path_s\":{},\"imbalance\":{},\"categories\":{}",
            num(self.makespan_s),
            num(self.critical_path_s),
            num(self.imbalance),
            vec5(&self.categories)
        );
        out.push_str(",\"by_subsystem\":{");
        for (i, (sub, v)) in self.by_subsystem.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", escape_json(sub), num(*v));
        }
        out.push_str("},\"ranks\":[");
        for (i, r) in self.ranks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rank\":{},\"end_s\":{},\"residency\":{},\"load\":{}}}",
                r.rank,
                num(r.end_s),
                vec5(&r.residency),
                vec5(&r.load)
            );
        }
        out.push_str("],\"stragglers\":[");
        for (i, r) in self.stragglers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{r}");
        }
        out.push(']');
        match self.dominant_rank {
            Some(r) => {
                let _ = write!(out, ",\"dominant_rank\":{r}");
            }
            None => out.push_str(",\"dominant_rank\":null"),
        }
        match self.dominant_edge {
            Some(e) => {
                let _ = write!(
                    out,
                    ",\"dominant_edge\":{{\"src\":{},\"dst\":{},\"total_s\":{},\"blocked_s\":{}}}",
                    e.src,
                    e.dst,
                    num(e.total_s),
                    num(e.blocked_s)
                );
            }
            None => out.push_str(",\"dominant_edge\":null"),
        }
        let _ = write!(
            out,
            ",\"orphan_consumers\":{},\"unconsumed_producers\":{},\"dropped_spans\":{}}}",
            self.orphan_consumers, self.unconsumed_producers, self.dropped_spans
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow;
    use crate::span::SpanEvent;

    #[allow(clippy::too_many_arguments)]
    fn ev(
        rank: usize,
        name: &str,
        start: f64,
        end: f64,
        kind: SpanKind,
        flow_out: u64,
        flow_in: u64,
        args_v: &[(&'static str, f64)],
    ) -> (Option<usize>, SpanEvent) {
        (
            Some(rank),
            SpanEvent {
                cat: "comm",
                name: name.to_string().into(),
                virt_start_s: start,
                virt_end_s: end,
                wall_start_s: 0.0,
                wall_end_s: 0.0,
                args: args_v.to_vec(),
                kind,
                flow_out,
                flow_in,
            },
        )
    }

    /// One delayed message: sender posts at 1.0 (o=0.1, post_end=1.1),
    /// wire 0.2 so an on-time depart would be 1.3, but the NIC held it
    /// until 2.3 (1.0 s injected delay); L=0.1 → arrive 2.4. The receiver
    /// waits from 0.5 and unblocks at 2.4 (+o → end 2.5).
    fn delayed_pair() -> Pag {
        let f = flow::data(flow::next_domain(), 1);
        let rings = vec![
            (
                Some(0),
                0,
                vec![
                    ev(
                        0,
                        "send",
                        1.0,
                        2.3,
                        SpanKind::Send,
                        f,
                        0,
                        &[
                            (args::POST_END, 1.1),
                            (args::DEPART, 2.3),
                            (args::WIRE, 0.2),
                        ],
                    )
                    .1,
                ],
            ),
            (
                Some(1),
                0,
                vec![
                    ev(
                        1,
                        "recv",
                        0.5,
                        2.5,
                        SpanKind::Recv,
                        0,
                        f,
                        &[
                            (args::ARRIVE, 2.4),
                            (args::BLOCKED, 1.9),
                            (args::ADV, 2.0),
                            (args::LAT, 0.1),
                        ],
                    )
                    .1,
                ],
            ),
        ];
        Pag::from_snapshot(rings)
    }

    #[test]
    fn categories_sum_bitwise_to_path_length() {
        let p = profile(&delayed_pair());
        assert_eq!(p.categories.iter().sum::<f64>(), p.critical_path_s);
        // And the path tiles the makespan exactly (single chain → equal).
        assert!((p.critical_path_s - p.makespan_s).abs() < 1e-12);
    }

    #[test]
    fn injected_delay_lands_on_blocked_and_names_the_sender() {
        let p = profile(&delayed_pair());
        // delay = (depart − post_end) − wire = 1.2 − 0.2 = 1.0.
        let blocked = p.categories[Cat::Blocked as usize];
        assert!((blocked - 1.0).abs() < 1e-12, "blocked = {blocked}");
        assert_eq!(p.dominant_rank, Some(0), "delay charged to the sender");
        let e = p.dominant_edge.expect("one hop on the path");
        assert_eq!((e.src, e.dst), (0, 1));
        assert!((e.blocked_s - 1.0).abs() < 1e-12);
        // Sender residency holds the blocked share.
        let r0 = &p.ranks[0];
        assert!((r0.residency[Cat::Blocked as usize] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unblocked_receive_stays_on_the_local_timeline() {
        let f = flow::data(flow::next_domain(), 1);
        let rings = vec![(
            Some(0),
            0,
            vec![
                ev(
                    0,
                    "send",
                    0.0,
                    0.3,
                    SpanKind::Send,
                    f,
                    0,
                    &[
                        (args::POST_END, 0.1),
                        (args::DEPART, 0.3),
                        (args::WIRE, 0.2),
                    ],
                )
                .1,
                // Self-message consumed long after arrival: no block.
                ev(
                    0,
                    "recv",
                    0.0,
                    2.1,
                    SpanKind::Recv,
                    0,
                    f,
                    &[
                        (args::ARRIVE, 0.4),
                        (args::BLOCKED, 0.0),
                        (args::ADV, 0.1),
                        (args::LAT, 0.1),
                    ],
                )
                .1,
            ],
        )];
        let p = profile(&Pag::from_snapshot(rings));
        assert_eq!(p.categories[Cat::Blocked as usize], 0.0);
        assert_eq!(p.categories.iter().sum::<f64>(), p.critical_path_s);
        assert!((p.critical_path_s - p.makespan_s).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_profiles_to_zero() {
        let p = profile(&Pag::from_snapshot(Vec::new()));
        assert_eq!(p.critical_path_s, 0.0);
        assert_eq!(p.dominant_rank, None);
        assert!(p.text().contains("(none)"));
        crate::json::validate(&p.to_json()).unwrap();
    }

    #[test]
    fn report_renders_and_json_validates() {
        let p = profile(&delayed_pair());
        let txt = p.text();
        assert!(txt.contains("dominant straggler: rank 0"));
        assert!(txt.contains("blocked"));
        crate::json::validate(&p.to_json()).unwrap();
        assert!(p.to_json().contains("\"dominant_rank\":0"));
    }
}
