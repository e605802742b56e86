//! Collective operations built from point-to-point messages.
//!
//! Each collective supports multiple algorithms selected by
//! [`CollectiveAlgo`]; because the virtual-time model charges every
//! constituent p2p message, the modeled cost of a collective reflects the
//! algorithm actually run. Experiment E12 ablates linear vs tree vs
//! recursive-doubling at simulated scales.
//!
//! Every collective invocation draws a fresh tag from a per-communicator
//! sequence counter, so concurrent collectives and user p2p traffic can
//! never match each other's messages. Collectives panic on substrate
//! failure (a peer thread died), mirroring MPI's default error handler.

use crate::comm::{Comm, Src, Tag, MAX_USER_TAG};
use crate::model::NetworkModel;
use crate::wire::Wire;

/// Algorithm family used by collectives. [`CollectiveAlgo::Auto`] is the
/// default; a fixed family is an ablation setting
/// ([`crate::UniverseConfig::with_algo`]).
///
/// **Reduction order.** Every algorithm combines in rank order, so a
/// merely associative `op` gives the same value everywhere, but the
/// *bracketing* belongs to the algorithm: `Linear` folds left to right,
/// `Tree` and `RecursiveDoubling` pair ranks across bit 0, then bit 1, ….
/// At a power-of-two rank count the binomial tree and the hypercube
/// bracket identically (`((v0+v1)+(v2+v3))+…`), so a floating-point
/// allreduce is bitwise the same under `Tree`, `RecursiveDoubling` and
/// whatever `Auto` resolves small payloads to. At any other rank count
/// the three families may round differently, and so may `Auto`
/// (`allreduce_bracketing_across_algorithms` in this module records
/// where they do).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollectiveAlgo {
    /// Root-centric flat algorithms: O(P) messages through one rank.
    Linear,
    /// Binomial trees: O(log P) rounds; allreduce is reduce *then* bcast,
    /// two dependent sweeps.
    Tree,
    /// Recursive doubling / ring: O(log P) rounds, no root hotspot; an
    /// allreduce is one sweep of pairwise exchanges.
    RecursiveDoubling,
    /// Model-driven selection: each call picks the cheapest fixed
    /// algorithm for its (ranks, payload bytes) from the LogGP
    /// parameters. The choice must be a pure function of values every
    /// rank computes identically, or ranks disagree on the wire pattern
    /// and stall. Rooted ops (`bcast`/`scatter`) and `allgatherv`
    /// resolve payload-blind; `reduce`/`allreduce`/`allgather` resolve
    /// from the caller's own payload size and therefore require every
    /// rank to pass a value of the same encoded size (`allgather` checks
    /// it; rank-varying blocks go through `allgatherv`). Ablated in
    /// experiment E19.
    #[default]
    Auto,
}

/// Namespace of ready-made reduction operators.
///
/// ```
/// use comm::ReduceOp;
/// let op = ReduceOp::sum::<i64>();
/// assert_eq!(op(&2, &3), 5);
/// ```
pub struct ReduceOp;

impl ReduceOp {
    /// Elementwise addition.
    pub fn sum<T: Copy + std::ops::Add<Output = T>>() -> impl Fn(&T, &T) -> T + Copy {
        |a, b| *a + *b
    }

    /// Elementwise multiplication.
    pub fn prod<T: Copy + std::ops::Mul<Output = T>>() -> impl Fn(&T, &T) -> T + Copy {
        |a, b| *a * *b
    }

    /// Minimum (by `PartialOrd`; on NaN keeps the right operand).
    pub fn min<T: Copy + PartialOrd>() -> impl Fn(&T, &T) -> T + Copy {
        |a, b| if a < b { *a } else { *b }
    }

    /// Maximum (by `PartialOrd`; on NaN keeps the right operand).
    pub fn max<T: Copy + PartialOrd>() -> impl Fn(&T, &T) -> T + Copy {
        |a, b| if a > b { *a } else { *b }
    }

    /// Vector (elementwise) sum for `Vec<T>` payloads.
    pub fn vec_sum<T: Copy + std::ops::Add<Output = T>>(
    ) -> impl Fn(&Vec<T>, &Vec<T>) -> Vec<T> + Copy {
        |a, b| {
            assert_eq!(a.len(), b.len(), "vec_sum length mismatch");
            a.iter().zip(b.iter()).map(|(x, y)| *x + *y).collect()
        }
    }
}

impl CollectiveAlgo {
    /// Short name used in span labels and metrics: `linear`, `tree`,
    /// `rd`, or `auto`.
    pub fn label(self) -> &'static str {
        match self {
            CollectiveAlgo::Linear => "linear",
            CollectiveAlgo::Tree => "tree",
            CollectiveAlgo::RecursiveDoubling => "rd",
            CollectiveAlgo::Auto => "auto",
        }
    }
}

/// Collectives the autotuner distinguishes. The remaining collectives
/// (barrier, gather, scatter, alltoallv, scan, exscan) have a single wire
/// pattern, so `Auto` has nothing to decide for them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CollOp {
    Bcast,
    Reduce,
    Allreduce,
    Allgather,
}

impl CollOp {
    fn name(self) -> &'static str {
        match self {
            CollOp::Bcast => "bcast",
            CollOp::Reduce => "reduce",
            CollOp::Allreduce => "allreduce",
            CollOp::Allgather => "allgather",
        }
    }
}

/// ⌈log₂ p⌉ as a float (0 for p ≤ 1).
fn ceil_log2(p: usize) -> f64 {
    p.max(1).next_power_of_two().trailing_zeros() as f64
}

/// Analytic LogGP makespan of `op` over `p` ranks with an `n`-byte
/// per-rank payload under `algo`. Mirrors the simulator's charging rules
/// — the sender pays `o + n·G` serialized on its NIC, the receiver pays
/// `L + o` past the departure — closely enough to *rank* the algorithms;
/// `tests/model_gates.rs::auto_tracks_the_best_fixed_collective` holds the
/// ranking to the simulated makespans (`experiments --only e19` prints them).
fn predict(op: CollOp, algo: CollectiveAlgo, p: usize, n: usize, m: &NetworkModel) -> f64 {
    let o = m.overhead_s;
    let l = m.latency_s;
    let ng = n as f64 * m.seconds_per_byte;
    // One store-and-forward hop: blocking send (o + n·G), then the
    // receiver's delivery rule (L + o) past the departure.
    let hop = 2.0 * o + ng + l;
    match (op, algo) {
        // Root serializes P−1 copies back-to-back; the last receiver
        // adds one flight + delivery.
        (CollOp::Bcast, CollectiveAlgo::Linear) => (p - 1) as f64 * (o + ng) + l + o,
        // Binomial critical path: the root's k-th send departs after k
        // serialized (o + n·G), its child's after k−1, … — the last leaf
        // sits below k(k+1)/2 sends and k flights. (Tree *reduce* has no
        // such serialization: every path node sends once, to its parent.)
        (CollOp::Bcast, _) => {
            let k = ceil_log2(p);
            k * (k + 1.0) / 2.0 * (o + ng) + k * (l + o)
        }
        // Leaves send concurrently (receiver NICs are not contended in
        // the model); the root then pays `o` per sequential delivery.
        (CollOp::Reduce, CollectiveAlgo::Linear) => o + ng + l + (p - 1) as f64 * o,
        (CollOp::Reduce, _) => ceil_log2(p) * hop,
        (CollOp::Allreduce, CollectiveAlgo::RecursiveDoubling) => {
            let p2 = prev_power_of_two(p);
            // Non-power-of-two sizes fold the extra ranks in and out.
            let fold = if p2 == p { 0.0 } else { 2.0 * hop };
            p2.trailing_zeros() as f64 * hop + fold
        }
        (CollOp::Allreduce, algo) => {
            predict(CollOp::Reduce, algo, p, n, m) + predict(CollOp::Bcast, algo, p, n, m)
        }
        // Ring: P−1 pipelined neighbor exchanges.
        (CollOp::Allgather, CollectiveAlgo::RecursiveDoubling) => (p - 1) as f64 * hop,
        (CollOp::Allgather, algo) => {
            // Gather is always root-linear; the rebroadcast carries all
            // P blocks.
            predict(CollOp::Reduce, CollectiveAlgo::Linear, p, n, m)
                + predict(CollOp::Bcast, algo, p, p * n, m)
        }
    }
}

/// Candidate algorithms per op. Bcast and reduce execute `Tree` and
/// `RecursiveDoubling` identically (one binomial-tree arm), so only
/// distinct wire patterns are scored.
fn candidates(op: CollOp) -> &'static [CollectiveAlgo] {
    match op {
        CollOp::Bcast | CollOp::Reduce => &[CollectiveAlgo::Linear, CollectiveAlgo::Tree],
        CollOp::Allreduce | CollOp::Allgather => &[
            CollectiveAlgo::Linear,
            CollectiveAlgo::Tree,
            CollectiveAlgo::RecursiveDoubling,
        ],
    }
}

/// Pick the cheapest algorithm for `op` and return it with its predicted
/// cost. The tie-break (strict `<` over a fixed candidate order) is
/// deterministic, so every rank resolves identically.
fn pick(op: CollOp, p: usize, n: usize, m: &NetworkModel) -> (CollectiveAlgo, f64) {
    let mut best = (CollectiveAlgo::Tree, f64::INFINITY);
    for &algo in candidates(op) {
        let cost = predict(op, algo, p, n, m);
        if cost < best.1 {
            best = (algo, cost);
        }
    }
    best
}

/// The collective-plane tag for sequence number `seq`.
fn coll_tag(seq: u64) -> Tag {
    MAX_USER_TAG + ((seq as u32) & (MAX_USER_TAG - 1))
}

impl Comm {
    fn next_coll_tag(&self) -> Tag {
        coll_tag(self.reserve_coll_seq(1))
    }

    /// Advance the collective sequence by `n` and return its old value:
    /// `coll_tag(s)`, …, `coll_tag(s + n − 1)` are the tags `n` successive
    /// [`Comm::next_coll_tag`] calls would have produced.
    fn reserve_coll_seq(&self, n: u64) -> u64 {
        let s = self.coll_seq.get();
        self.coll_seq.set(s.wrapping_add(n));
        s
    }

    /// Allocate a tag from the same SPMD-ordered sequence the collectives
    /// use, for point-to-point exchanges that every rank nevertheless
    /// executes in the same order (communication-plan executions). Each
    /// execution gets a distinct tag, so back-to-back executions of
    /// identically-shaped plans can never cross-match — even when
    /// reliable delivery retransmits around a delayed message and
    /// per-sender arrival order is no longer FIFO.
    pub fn next_spmd_tag(&self) -> Tag {
        self.next_coll_tag()
    }

    /// Span start for a collective; `None` unless observability is on.
    fn coll_span(&self) -> Option<obs::span::SpanTimer> {
        if obs::enabled() {
            Some(obs::span::span_start(self.virtual_time()))
        } else {
            None
        }
    }

    /// Close a collective span, named `op(algo)`, e.g. `allreduce(tree)`.
    /// Composite collectives (linear/tree allreduce = reduce + bcast,
    /// exscan = scan + shift) nest their constituents' spans inside.
    /// `algo` is the algorithm actually run, so spans under `Auto` name
    /// the resolved choice.
    #[cold]
    fn coll_finish(&self, timer: obs::span::SpanTimer, op: &'static str, algo: CollectiveAlgo) {
        timer.finish(
            "comm",
            format!("{op}({})", algo.label()),
            self.virtual_time(),
            &[("ranks", self.size() as f64)],
        );
        obs::global()
            .counter(&obs::registry::key("comm.collectives", &[("op", op)]))
            .inc();
    }

    /// Resolve the configured algorithm for one collective call: fixed
    /// algorithms pass through untouched; `Auto` consults the LogGP
    /// model. `bytes` is the encoded payload size, or 0 for rooted
    /// collectives where non-root ranks cannot know it.
    fn resolve_algo(&self, op: CollOp, bytes: usize) -> CollectiveAlgo {
        match self.algo() {
            CollectiveAlgo::Auto => {
                let (algo, cost) = pick(op, self.size(), bytes, &self.model);
                if obs::enabled() {
                    self.obs_autotune(op, algo, cost);
                }
                algo
            }
            fixed => fixed,
        }
    }

    /// Record one autotune decision: which algorithm won, and the
    /// model's predicted makespan for it.
    #[cold]
    fn obs_autotune(&self, op: CollOp, algo: CollectiveAlgo, predicted_s: f64) {
        let g = obs::global();
        g.counter(&obs::registry::key(
            "comm.autotune.decision",
            &[("op", op.name()), ("algo", algo.label())],
        ))
        .inc();
        g.histogram(&obs::registry::key(
            "comm.autotune.predicted_ns",
            &[("op", op.name())],
        ))
        .record((predicted_s * 1e9) as u64);
    }

    /// Payload size for resolving a symmetric (payload-aware) collective;
    /// 0 unless `Auto` is configured.
    fn auto_bytes<T: Wire>(&self, value: &T) -> usize {
        if self.algo() == CollectiveAlgo::Auto {
            value.wire_size()
        } else {
            0
        }
    }

    /// Block until every rank of the communicator has entered the barrier.
    /// Dissemination algorithm: ⌈log₂ P⌉ rounds.
    pub fn barrier(&self) {
        let timer = self.coll_span();
        self.barrier_impl();
        if let Some(t) = timer {
            self.coll_finish(t, "barrier", self.algo());
        }
    }

    fn barrier_impl(&self) {
        let size = self.size();
        if size == 1 {
            return;
        }
        let mut d = 1;
        while d < size {
            let tag = self.next_coll_tag();
            let to = (self.rank() + d) % size;
            let from = (self.rank() + size - d) % size;
            self.send(to, tag, &()).expect("barrier send");
            self.recv::<()>(Src::Rank(from), tag).expect("barrier recv");
            d <<= 1;
        }
    }

    /// Broadcast from `root`. The root passes `Some(value)`, everyone else
    /// `None`; all ranks return the value.
    pub fn bcast<T: Wire>(&self, root: usize, value: Option<T>) -> T {
        // Resolved payload-blind: only the root holds the payload, and
        // resolution must be identical on every rank.
        let algo = self.resolve_algo(CollOp::Bcast, 0);
        self.bcast_as(algo, root, value)
    }

    /// Run a bcast under an explicit algorithm. Composites pass their own
    /// resolved choice down so `Auto` decides once per user-visible call.
    fn bcast_as<T: Wire>(&self, algo: CollectiveAlgo, root: usize, value: Option<T>) -> T {
        let timer = self.coll_span();
        let out = self.bcast_impl(algo, root, value);
        if let Some(t) = timer {
            self.coll_finish(t, "bcast", algo);
        }
        out
    }

    fn bcast_impl<T: Wire>(&self, algo: CollectiveAlgo, root: usize, value: Option<T>) -> T {
        let size = self.size();
        if self.rank() == root {
            assert!(value.is_some(), "bcast root must supply a value");
        }
        if size == 1 {
            return value.expect("bcast root must supply a value");
        }
        let tag = self.next_coll_tag();
        match algo {
            CollectiveAlgo::Linear => {
                if self.rank() == root {
                    let v = value.unwrap();
                    for r in 0..size {
                        if r != root {
                            self.send(r, tag, &v).expect("bcast send");
                        }
                    }
                    v
                } else {
                    self.recv::<T>(Src::Rank(root), tag).expect("bcast recv").0
                }
            }
            CollectiveAlgo::Auto => unreachable!("Auto resolves before dispatch"),
            CollectiveAlgo::Tree | CollectiveAlgo::RecursiveDoubling => {
                // Binomial tree rooted at `root`.
                let rel = (self.rank() + size - root) % size;
                let v = if rel == 0 {
                    value.unwrap()
                } else {
                    let parent_rel = rel & (rel - 1); // clear lowest set bit
                    let parent = (parent_rel + root) % size;
                    self.recv::<T>(Src::Rank(parent), tag)
                        .expect("bcast recv")
                        .0
                };
                let lsb_bound = if rel == 0 {
                    size.next_power_of_two()
                } else {
                    rel & rel.wrapping_neg()
                };
                let mut k = 1;
                while k < lsb_bound {
                    let child_rel = rel + k;
                    if child_rel < size {
                        let child = (child_rel + root) % size;
                        self.send(child, tag, &v).expect("bcast send");
                    }
                    k <<= 1;
                }
                v
            }
        }
    }

    /// Reduce all ranks' values to `root` with `op`; only the root gets
    /// `Some(result)`. `op` must be associative.
    pub fn reduce<T, F>(&self, root: usize, value: &T, op: F) -> Option<T>
    where
        T: Wire + Clone,
        F: Fn(&T, &T) -> T,
    {
        let algo = self.resolve_algo(CollOp::Reduce, self.auto_bytes(value));
        self.reduce_as(algo, root, value, op)
    }

    /// Run a reduce under an explicit algorithm (see [`Comm::bcast_as`]).
    fn reduce_as<T, F>(&self, algo: CollectiveAlgo, root: usize, value: &T, op: F) -> Option<T>
    where
        T: Wire + Clone,
        F: Fn(&T, &T) -> T,
    {
        let timer = self.coll_span();
        let out = self.reduce_impl(algo, root, value, op);
        if let Some(t) = timer {
            self.coll_finish(t, "reduce", algo);
        }
        out
    }

    fn reduce_impl<T, F>(&self, algo: CollectiveAlgo, root: usize, value: &T, op: F) -> Option<T>
    where
        T: Wire + Clone,
        F: Fn(&T, &T) -> T,
    {
        let size = self.size();
        if size == 1 {
            return Some(value.clone());
        }
        let tag = self.next_coll_tag();
        match algo {
            CollectiveAlgo::Linear => {
                if self.rank() == root {
                    // Combine strictly in rank order for determinism.
                    let mut acc: Option<T> = None;
                    let mut inbox: Vec<Option<T>> = (0..size).map(|_| None).collect();
                    inbox[root] = Some(value.clone());
                    for (r, slot) in inbox.iter_mut().enumerate() {
                        if r != root {
                            let (v, _) = self.recv::<T>(Src::Rank(r), tag).expect("reduce recv");
                            *slot = Some(v);
                        }
                    }
                    for v in inbox.into_iter().flatten() {
                        acc = Some(match acc {
                            None => v,
                            Some(a) => op(&a, &v),
                        });
                    }
                    acc
                } else {
                    self.send(root, tag, value).expect("reduce send");
                    None
                }
            }
            CollectiveAlgo::Auto => unreachable!("Auto resolves before dispatch"),
            CollectiveAlgo::Tree | CollectiveAlgo::RecursiveDoubling => {
                // Binomial tree mirrored from bcast: leaves send first.
                let rel = (self.rank() + size - root) % size;
                let lsb_bound = if rel == 0 {
                    size.next_power_of_two()
                } else {
                    rel & rel.wrapping_neg()
                };
                let mut acc = value.clone();
                let mut k = 1;
                while k < lsb_bound {
                    let child_rel = rel + k;
                    if child_rel < size {
                        let child = (child_rel + root) % size;
                        let (v, _) = self.recv::<T>(Src::Rank(child), tag).expect("reduce recv");
                        acc = op(&acc, &v);
                    }
                    k <<= 1;
                }
                if rel == 0 {
                    Some(acc)
                } else {
                    let parent_rel = rel & (rel - 1);
                    let parent = (parent_rel + root) % size;
                    self.send(parent, tag, &acc).expect("reduce send");
                    None
                }
            }
        }
    }

    /// Reduce with `op` and give every rank the result.
    pub fn allreduce<T, F>(&self, value: &T, op: F) -> T
    where
        T: Wire + Clone,
        F: Fn(&T, &T) -> T,
    {
        let algo = self.resolve_algo(CollOp::Allreduce, self.auto_bytes(value));
        let timer = self.coll_span();
        let out = self.allreduce_impl(algo, value, op);
        if let Some(t) = timer {
            self.coll_finish(t, "allreduce", algo);
        }
        out
    }

    fn allreduce_impl<T, F>(&self, algo: CollectiveAlgo, value: &T, op: F) -> T
    where
        T: Wire + Clone,
        F: Fn(&T, &T) -> T,
    {
        let size = self.size();
        if size == 1 {
            return value.clone();
        }
        match algo {
            CollectiveAlgo::Auto => unreachable!("Auto resolves before dispatch"),
            CollectiveAlgo::Linear | CollectiveAlgo::Tree => {
                // The resolved algorithm is passed down so the composite
                // executes exactly one fixed algorithm end to end.
                let reduced = self.reduce_as(algo, 0, value, &op);
                self.bcast_as(algo, 0, reduced)
            }
            CollectiveAlgo::RecursiveDoubling => {
                // Reserve every tag up front, identically on every rank:
                // ranks folded away (≥ p2) skip the hypercube rounds but
                // must still advance the collective tag counter, or the
                // *next* collective deadlocks on mismatched tags.
                let tag = self.next_coll_tag();
                let rank = self.rank();
                let p2 = prev_power_of_two(size);
                let extra = size - p2;
                let round_seq = self.reserve_coll_seq(u64::from(p2.trailing_zeros()));
                if rank >= p2 {
                    // Fold this rank onto its partner, then wait for result.
                    let sreq = self.isend(rank - p2, tag, value).expect("allreduce send");
                    let (v, _) = self
                        .recv::<T>(Src::Rank(rank - p2), tag)
                        .expect("allreduce recv");
                    self.wait(sreq).expect("allreduce send wait");
                    return v;
                }
                let mut acc = value.clone();
                if rank < extra {
                    let (v, _) = self
                        .recv::<T>(Src::Rank(rank + p2), tag)
                        .expect("allreduce recv");
                    acc = op(&acc, &v);
                }
                let mut mask = 1;
                while mask < p2 {
                    // Round i exchanges across bit i and uses the i-th tag.
                    let round = u64::from(mask.trailing_zeros());
                    let round_tag = coll_tag(round_seq.wrapping_add(round));
                    let partner = rank ^ mask;
                    // Post the outgoing block, receive the partner's, then
                    // settle the send: the outgoing serialization overlaps
                    // the wait for the incoming message.
                    let sreq = self
                        .isend(partner, round_tag, &acc)
                        .expect("allreduce send");
                    let rreq = self
                        .irecv(Src::Rank(partner), round_tag)
                        .expect("allreduce irecv");
                    let (theirs, _) = self.wait_recv::<T>(rreq).expect("allreduce recv");
                    self.wait(sreq).expect("allreduce send wait");
                    // Combine in rank order so all ranks compute the same
                    // bracketing even for merely-associative ops.
                    acc = if partner < rank {
                        op(&theirs, &acc)
                    } else {
                        op(&acc, &theirs)
                    };
                    mask <<= 1;
                }
                if rank < extra {
                    self.send(rank + p2, tag, &acc).expect("allreduce send");
                }
                acc
            }
        }
    }

    /// Gather every rank's value to `root`, in rank order.
    pub fn gather<T: Wire + Clone>(&self, root: usize, value: &T) -> Option<Vec<T>> {
        let timer = self.coll_span();
        let out = self.gather_impl(root, value);
        if let Some(t) = timer {
            self.coll_finish(t, "gather", self.algo());
        }
        out
    }

    fn gather_impl<T: Wire + Clone>(&self, root: usize, value: &T) -> Option<Vec<T>> {
        let size = self.size();
        let tag = self.next_coll_tag();
        if self.rank() == root {
            let mut out: Vec<Option<T>> = (0..size).map(|_| None).collect();
            out[root] = Some(value.clone());
            for (r, slot) in out.iter_mut().enumerate() {
                if r != root {
                    let (v, _) = self.recv::<T>(Src::Rank(r), tag).expect("gather recv");
                    *slot = Some(v);
                }
            }
            Some(out.into_iter().map(|v| v.unwrap()).collect())
        } else {
            self.send(root, tag, value).expect("gather send");
            None
        }
    }

    /// Gather every rank's value to every rank, in rank order. Every rank
    /// must pass a value of the same encoded size (`MPI_Allgather`'s
    /// contract): `Auto` sizes the wire pattern from the caller's own
    /// block, so blocks that straddle a crossover would send ranks into
    /// different algorithms. Blocks whose size depends on the rank go
    /// through [`Comm::allgatherv`].
    ///
    /// # Panics
    /// If the gathered blocks differ in encoded size — under every
    /// algorithm, so a violation fails at any size, not only at the ones
    /// that straddle a crossover.
    pub fn allgather<T: Wire + Clone>(&self, value: &T) -> Vec<T> {
        let mine = value.wire_size();
        let blocks = self.allgather_sized(mine, value);
        assert!(
            blocks.iter().all(|b| b.wire_size() == mine),
            "allgather needs equal-sized blocks (use allgatherv): rank {} holds wire sizes {:?}",
            self.rank(),
            blocks.iter().map(Wire::wire_size).collect::<Vec<_>>()
        );
        blocks
    }

    /// [`Comm::allgather`] for blocks whose encoded size may differ from
    /// rank to rank (`MPI_Allgatherv`). Resolved payload-blind, as
    /// [`Comm::bcast`] is: no rank knows another's block size.
    pub fn allgatherv<T: Wire + Clone>(&self, value: &T) -> Vec<T> {
        self.allgather_sized(0, value)
    }

    /// Resolve for `bytes`-sized blocks, then run and record one allgather.
    fn allgather_sized<T: Wire + Clone>(&self, bytes: usize, value: &T) -> Vec<T> {
        let algo = self.resolve_algo(CollOp::Allgather, bytes);
        let timer = self.coll_span();
        let out = self.allgather_impl(algo, value);
        if let Some(t) = timer {
            self.coll_finish(t, "allgather", algo);
        }
        out
    }

    fn allgather_impl<T: Wire + Clone>(&self, algo: CollectiveAlgo, value: &T) -> Vec<T> {
        let size = self.size();
        if size == 1 {
            return vec![value.clone()];
        }
        match algo {
            CollectiveAlgo::Auto => unreachable!("Auto resolves before dispatch"),
            CollectiveAlgo::Linear | CollectiveAlgo::Tree => {
                let gathered = self.gather(0, value);
                self.bcast_as(algo, 0, gathered)
            }
            CollectiveAlgo::RecursiveDoubling => {
                // Ring algorithm: P-1 steps, each passing one block right.
                let rank = self.rank();
                let right = (rank + 1) % size;
                let left = (rank + size - 1) % size;
                let mut blocks: Vec<Option<T>> = (0..size).map(|_| None).collect();
                blocks[rank] = Some(value.clone());
                let mut carry = value.clone();
                for step in 0..size - 1 {
                    let tag = self.next_coll_tag();
                    // Request-layer ring step: the rightward send drains on
                    // the NIC while this rank waits on its left neighbor.
                    let sreq = self.isend(right, tag, &carry).expect("allgather send");
                    let rreq = self.irecv(Src::Rank(left), tag).expect("allgather irecv");
                    let (v, _) = self.wait_recv::<T>(rreq).expect("allgather recv");
                    self.wait(sreq).expect("allgather send wait");
                    let idx = (rank + size - step - 1) % size;
                    blocks[idx] = Some(v.clone());
                    carry = v;
                }
                blocks.into_iter().map(|v| v.unwrap()).collect()
            }
        }
    }

    /// Scatter one value per rank from `root` (root passes `Some(vec)` with
    /// exactly `size` entries); each rank returns its entry.
    pub fn scatter<T: Wire + Clone>(&self, root: usize, values: Option<Vec<T>>) -> T {
        let timer = self.coll_span();
        let out = self.scatter_impl(root, values);
        if let Some(t) = timer {
            self.coll_finish(t, "scatter", self.algo());
        }
        out
    }

    fn scatter_impl<T: Wire + Clone>(&self, root: usize, values: Option<Vec<T>>) -> T {
        let size = self.size();
        let tag = self.next_coll_tag();
        if self.rank() == root {
            let values = values.expect("scatter root must supply values");
            assert_eq!(
                values.len(),
                size,
                "scatter requires exactly one value per rank"
            );
            let mut own = None;
            for (r, v) in values.into_iter().enumerate() {
                if r == root {
                    own = Some(v);
                } else {
                    self.send(r, tag, &v).expect("scatter send");
                }
            }
            own.unwrap()
        } else {
            self.recv::<T>(Src::Rank(root), tag)
                .expect("scatter recv")
                .0
        }
    }

    /// Personalized all-to-all: `outgoing[d]` is this rank's payload for
    /// rank `d`; returns `incoming[s]` = rank `s`'s payload for this rank.
    /// Pairwise-exchange schedule, `P-1` rounds plus a local move. Each
    /// per-peer payload is owned, so bulk exchanges ride the zero-copy
    /// region arm above the threshold (redistribution and triplet
    /// exchange are the heaviest alltoallv users).
    pub fn alltoallv<T>(&self, outgoing: Vec<Vec<T>>) -> Vec<Vec<T>>
    where
        T: Wire + Clone + Send + Sync + 'static,
    {
        let timer = self.coll_span();
        let out = self.alltoallv_impl(outgoing);
        if let Some(t) = timer {
            self.coll_finish(t, "alltoallv", self.algo());
        }
        out
    }

    fn alltoallv_impl<T>(&self, mut outgoing: Vec<Vec<T>>) -> Vec<Vec<T>>
    where
        T: Wire + Clone + Send + Sync + 'static,
    {
        let size = self.size();
        assert_eq!(
            outgoing.len(),
            size,
            "alltoallv requires one payload per destination"
        );
        let rank = self.rank();
        let mut incoming: Vec<Vec<T>> = (0..size).map(|_| Vec::new()).collect();
        incoming[rank] = std::mem::take(&mut outgoing[rank]);
        for shift in 1..size {
            let tag = self.next_coll_tag();
            let dest = (rank + shift) % size;
            let src = (rank + size - shift) % size;
            let sreq = self
                .isend_zc(dest, tag, std::mem::take(&mut outgoing[dest]))
                .expect("alltoall send");
            let (v, _) = self
                .recv_zc::<Vec<T>>(Src::Rank(src), tag)
                .expect("alltoall recv");
            self.wait(sreq).expect("alltoall send wait");
            incoming[src] = v;
        }
        incoming
    }

    /// Inclusive prefix reduction: rank `i` gets `op(v₀, …, vᵢ)`.
    /// Hillis–Steele: ⌈log₂ P⌉ rounds.
    pub fn scan<T, F>(&self, value: &T, op: F) -> T
    where
        T: Wire + Clone,
        F: Fn(&T, &T) -> T,
    {
        let timer = self.coll_span();
        let out = self.scan_impl(value, op);
        if let Some(t) = timer {
            self.coll_finish(t, "scan", self.algo());
        }
        out
    }

    fn scan_impl<T, F>(&self, value: &T, op: F) -> T
    where
        T: Wire + Clone,
        F: Fn(&T, &T) -> T,
    {
        let size = self.size();
        let rank = self.rank();
        let mut acc = value.clone();
        let mut d = 1;
        while d < size {
            let tag = self.next_coll_tag();
            if rank + d < size {
                self.send(rank + d, tag, &acc).expect("scan send");
            }
            if rank >= d {
                let (v, _) = self.recv::<T>(Src::Rank(rank - d), tag).expect("scan recv");
                acc = op(&v, &acc);
            }
            d <<= 1;
        }
        acc
    }

    /// Exclusive prefix reduction: rank `i` gets `op(v₀, …, vᵢ₋₁)`, rank 0
    /// gets `identity`.
    pub fn exscan<T, F>(&self, value: &T, identity: T, op: F) -> T
    where
        T: Wire + Clone,
        F: Fn(&T, &T) -> T,
    {
        let timer = self.coll_span();
        let out = self.exscan_impl(value, identity, op);
        if let Some(t) = timer {
            self.coll_finish(t, "exscan", self.algo());
        }
        out
    }

    fn exscan_impl<T, F>(&self, value: &T, identity: T, op: F) -> T
    where
        T: Wire + Clone,
        F: Fn(&T, &T) -> T,
    {
        let inclusive = self.scan(value, op);
        let size = self.size();
        let rank = self.rank();
        let tag = self.next_coll_tag();
        if rank + 1 < size {
            self.send(rank + 1, tag, &inclusive).expect("exscan send");
        }
        if rank == 0 {
            identity
        } else {
            self.recv::<T>(Src::Rank(rank - 1), tag)
                .expect("exscan recv")
                .0
        }
    }
}

fn prev_power_of_two(n: usize) -> usize {
    debug_assert!(n > 0);
    let npot = n.next_power_of_two();
    if npot == n {
        n
    } else {
        npot / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::{Universe, UniverseConfig};

    fn all_algos() -> [CollectiveAlgo; 4] {
        [
            CollectiveAlgo::Linear,
            CollectiveAlgo::Tree,
            CollectiveAlgo::RecursiveDoubling,
            CollectiveAlgo::Auto,
        ]
    }

    /// Run under `algo`, with a deadline that turns a wire-pattern
    /// disagreement into a `Stalled` panic instead of a hung test binary.
    fn run_with_algo<R, F>(size: usize, algo: CollectiveAlgo, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut crate::Comm) -> R + Send + Sync,
    {
        let cfg = UniverseConfig::default()
            .with_algo(algo)
            .with_stall_timeout(std::time::Duration::from_secs(10));
        Universe::run_report(cfg, size, f).results
    }

    #[test]
    fn barrier_completes_for_various_sizes() {
        for size in [1, 2, 3, 5, 8] {
            Universe::run(size, |comm| comm.barrier());
        }
    }

    #[test]
    fn bcast_all_algos_all_roots() {
        for algo in all_algos() {
            for size in [1, 2, 3, 4, 7] {
                for root in 0..size {
                    let out = run_with_algo(size, algo, move |comm| {
                        let v = if comm.rank() == root {
                            Some(vec![root as u64, 99])
                        } else {
                            None
                        };
                        comm.bcast(root, v)
                    });
                    for v in out {
                        assert_eq!(v, vec![root as u64, 99], "algo {algo:?} size {size}");
                    }
                }
            }
        }
    }

    #[test]
    fn reduce_sum_matches_formula() {
        for algo in all_algos() {
            for size in [1, 2, 3, 6, 9] {
                for root in [0, size - 1] {
                    let out = run_with_algo(size, algo, move |comm| {
                        comm.reduce(root, &(comm.rank() as i64 + 1), ReduceOp::sum())
                    });
                    let expect = (size * (size + 1) / 2) as i64;
                    for (r, v) in out.into_iter().enumerate() {
                        if r == root {
                            assert_eq!(v, Some(expect), "algo {algo:?} size {size}");
                        } else {
                            assert_eq!(v, None);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn allreduce_min_max_all_algos() {
        for algo in all_algos() {
            for size in [1, 2, 5, 8] {
                let out = run_with_algo(size, algo, move |comm| {
                    let v = comm.rank() as f64 - 2.0;
                    (
                        comm.allreduce(&v, ReduceOp::min()),
                        comm.allreduce(&v, ReduceOp::max()),
                    )
                });
                for (mn, mx) in out {
                    assert_eq!(mn, -2.0);
                    assert_eq!(mx, size as f64 - 3.0);
                }
            }
        }
    }

    #[test]
    fn consecutive_collectives_stay_in_sync_non_power_of_two() {
        // Regression: recursive-doubling allreduce must consume the same
        // number of collective tags on every rank, or the next collective
        // deadlocks. Run several back-to-back on awkward sizes.
        for size in [3, 5, 6, 7] {
            let out = run_with_algo(size, CollectiveAlgo::RecursiveDoubling, move |comm| {
                let a = comm.allreduce(&(comm.rank() as i64), ReduceOp::min());
                let b = comm.allreduce(&(comm.rank() as i64), ReduceOp::max());
                let c = comm.allreduce(&1i64, ReduceOp::sum());
                comm.barrier();
                let d = comm.allgather(&comm.rank());
                (a, b, c, d.len())
            });
            for (a, b, c, d) in out {
                assert_eq!(a, 0);
                assert_eq!(b, size as i64 - 1);
                assert_eq!(c, size as i64);
                assert_eq!(d, size);
            }
        }
    }

    #[test]
    fn allreduce_non_power_of_two_recursive_doubling() {
        for size in [3, 5, 6, 7] {
            let out = run_with_algo(size, CollectiveAlgo::RecursiveDoubling, move |comm| {
                comm.allreduce(&(1u64 << comm.rank()), |a, b| a | b)
            });
            for v in out {
                assert_eq!(v, (1u64 << size) - 1, "size {size}");
            }
        }
    }

    #[test]
    fn gather_orders_by_rank() {
        let out = Universe::run(4, |comm| comm.gather(2, &(comm.rank() as u32 * 10)));
        assert_eq!(out[2], Some(vec![0, 10, 20, 30]));
        assert_eq!(out[0], None);
    }

    #[test]
    fn allgather_all_algos() {
        for algo in all_algos() {
            for size in [1, 2, 3, 5, 8] {
                let out = run_with_algo(size, algo, move |comm| {
                    comm.allgather(&format!("r{}", comm.rank()))
                });
                let expect: Vec<String> = (0..size).map(|r| format!("r{r}")).collect();
                for v in out {
                    assert_eq!(v, expect, "algo {algo:?} size {size}");
                }
            }
        }
    }

    #[test]
    fn allgatherv_takes_rank_varying_blocks_across_a_crossover() {
        // Four blocks of 62/62/61/61 lanes are 1008/1008/992/992 B of
        // (gids, values): under the default model they straddle the
        // payload-aware ring/linear crossover, which is what stalled
        // `DistVector::gather_global` while it used `allgather`.
        let m = NetworkModel::default();
        assert_ne!(
            pick(CollOp::Allgather, 4, 1008, &m).0,
            pick(CollOp::Allgather, 4, 992, &m).0,
            "the sizes below no longer straddle a crossover; pick new ones"
        );
        for algo in all_algos() {
            let out = run_with_algo(4, algo, |comm| {
                let lanes = if comm.rank() < 2 { 62 } else { 61 };
                comm.allgatherv(&(vec![comm.rank(); lanes], vec![0.5f64; lanes]))
            });
            for blocks in out {
                for (r, (ids, vals)) in blocks.into_iter().enumerate() {
                    let lanes = if r < 2 { 62 } else { 61 };
                    assert_eq!(ids, vec![r; lanes], "{algo:?}");
                    assert_eq!(vals.len(), lanes, "{algo:?}");
                }
            }
        }
    }

    #[test]
    fn allgather_rejects_unequal_blocks_under_every_algorithm() {
        // 1 vs 2 lanes straddles nothing, so every rank reaches the
        // check: the contract fails at any size, not only unlucky ones.
        for algo in all_algos() {
            let caught = std::panic::catch_unwind(|| {
                run_with_algo(2, algo, |comm| comm.allgather(&vec![0u8; comm.rank() + 1]))
            });
            let msg = *caught
                .expect_err("unequal blocks must be refused")
                .downcast::<String>()
                .expect("assert message");
            assert!(
                msg.contains("use allgatherv") && msg.contains("[9, 10]"),
                "{algo:?}: {msg}"
            );
        }
    }

    /// Values whose `f64` sum depends on the bracketing at every size
    /// the test below visits from four ranks up.
    fn rounding_sensitive(rank: usize) -> f64 {
        1.0 / (1.1 * rank as f64 + 0.5)
    }

    fn allreduce_bits(size: usize, cfg: UniverseConfig) -> u64 {
        let out = Universe::run_report(cfg, size, |comm| {
            comm.allreduce(&rounding_sensitive(comm.rank()), ReduceOp::sum())
                .to_bits()
        })
        .results;
        assert!(out.iter().all(|&b| b == out[0]), "ranks disagree at {size}");
        out[0]
    }

    #[test]
    fn allreduce_bracketing_across_algorithms() {
        let with = |algo| UniverseConfig::default().with_algo(algo);
        // A revert of the default is a failure here, not a silently
        // slower two-rank solve (21–29 % on the repo benchmark's CG).
        assert_eq!(CollectiveAlgo::default(), CollectiveAlgo::Auto);
        // Power of two: binomial tree and hypercube pair ranks across
        // bit 0, then bit 1, … — one bracketing, so the flip of the
        // default from `Tree` moved no floating-point sum.
        for size in [2, 4, 8, 16] {
            let tree = allreduce_bits(size, with(CollectiveAlgo::Tree));
            for cfg in [
                with(CollectiveAlgo::RecursiveDoubling),
                with(CollectiveAlgo::Auto),
                UniverseConfig::default(),
            ] {
                assert_eq!(
                    allreduce_bits(size, cfg),
                    tree,
                    "{size} ranks, {:?}",
                    cfg.algo
                );
            }
            // The values do tell bracketings apart: the left-to-right
            // fold rounds differently from the tree.
            if size > 2 {
                let linear = allreduce_bits(size, with(CollectiveAlgo::Linear));
                assert_ne!(linear, tree, "{size} ranks");
            }
        }
        // Otherwise recursive doubling folds the ranks above the largest
        // power of two in first, and `Auto` resolves small payloads to
        // `Linear`: sums agree to rounding, not to the bit (three ranks
        // are the exception for tree and linear: both are (v0+v1)+v2).
        // Recorded as (size, tree == rd, tree == auto) on these values.
        let seen: Vec<_> = [3, 5, 6, 7]
            .into_iter()
            .map(|size| {
                let tree = allreduce_bits(size, with(CollectiveAlgo::Tree));
                let rd = allreduce_bits(size, with(CollectiveAlgo::RecursiveDoubling));
                let auto = allreduce_bits(size, UniverseConfig::default());
                assert_eq!(auto, allreduce_bits(size, with(CollectiveAlgo::Linear)));
                (size, tree == rd, tree == auto)
            })
            .collect();
        assert_eq!(
            seen,
            [
                (3, true, true),
                (5, true, false),
                (6, false, false),
                (7, false, false)
            ]
        );
    }

    #[test]
    fn scatter_delivers_per_rank_values() {
        let out = Universe::run(3, |comm| {
            let vals = if comm.rank() == 1 {
                Some(vec![vec![0i32], vec![1, 1], vec![2, 2, 2]])
            } else {
                None
            };
            comm.scatter(1, vals)
        });
        assert_eq!(out, vec![vec![0], vec![1, 1], vec![2, 2, 2]]);
    }

    #[test]
    fn alltoallv_transposes_payloads() {
        let size = 4;
        let out = Universe::run(size, move |comm| {
            let outgoing: Vec<Vec<u64>> = (0..size)
                .map(|d| vec![(comm.rank() * 100 + d) as u64])
                .collect();
            comm.alltoallv(outgoing)
        });
        for (r, incoming) in out.iter().enumerate() {
            for (s, payload) in incoming.iter().enumerate() {
                assert_eq!(payload, &vec![(s * 100 + r) as u64]);
            }
        }
    }

    #[test]
    fn scan_computes_inclusive_prefix() {
        for size in [1, 2, 3, 7, 8] {
            let out = Universe::run(size, |comm| {
                comm.scan(&((comm.rank() + 1) as i64), ReduceOp::sum())
            });
            for (r, v) in out.into_iter().enumerate() {
                assert_eq!(v, ((r + 1) * (r + 2) / 2) as i64, "size {size}");
            }
        }
    }

    #[test]
    fn exscan_computes_exclusive_prefix() {
        let out = Universe::run(5, |comm| {
            comm.exscan(&((comm.rank() + 1) as i64), 0, ReduceOp::sum())
        });
        assert_eq!(out, vec![0, 1, 3, 6, 10]);
    }

    #[test]
    fn scan_with_noncommutative_op_is_ordered() {
        // String concatenation is associative but not commutative.
        let out = Universe::run(4, |comm| {
            comm.scan(&comm.rank().to_string(), |a: &String, b: &String| {
                format!("{a}{b}")
            })
        });
        assert_eq!(out, vec!["0", "01", "012", "0123"]);
    }

    #[test]
    fn tree_beats_linear_in_the_right_regimes_modeled() {
        let time = |algo, ranks: usize, bytes: usize| {
            let cfg = UniverseConfig {
                algo,
                ..Default::default()
            };
            Universe::run_report(cfg, ranks, move |comm| {
                let v = if comm.rank() == 0 {
                    Some(vec![0u8; bytes])
                } else {
                    None
                };
                comm.bcast(0, v);
            })
            .makespan_s
        };
        // Bandwidth-bound: the root serializes P−1 copies in a linear
        // bcast; the binomial tree spreads the load.
        let linear = time(CollectiveAlgo::Linear, 16, 256 * 1024);
        let tree = time(CollectiveAlgo::Tree, 16, 256 * 1024);
        assert!(
            tree < linear,
            "256KiB: tree ({tree:.2e}s) should beat linear ({linear:.2e}s)"
        );
        // Overhead-bound at large P: P·o from the root vs log₂(P) rounds.
        let linear = time(CollectiveAlgo::Linear, 128, 8);
        let tree = time(CollectiveAlgo::Tree, 128, 8);
        assert!(
            tree < linear,
            "128 ranks: tree ({tree:.2e}s) should beat linear ({linear:.2e}s)"
        );
        // Small message, small P: linear legitimately wins (store-and-
        // forward hops each pay the full wire latency) — document the
        // crossover rather than pretending trees always win.
        let linear = time(CollectiveAlgo::Linear, 8, 8);
        let tree = time(CollectiveAlgo::Tree, 8, 8);
        assert!(linear <= tree, "8 ranks / 8 bytes: linear should win");
    }

    #[test]
    fn auto_picks_match_measured_regimes() {
        // The analytic model must reproduce the crossovers the simulator
        // measures in `tree_beats_linear_in_the_right_regimes_modeled`.
        let m = NetworkModel::default();
        // Payload-blind bcast: linear wins small P, tree wins large P.
        assert_eq!(pick(CollOp::Bcast, 8, 0, &m).0, CollectiveAlgo::Linear);
        assert_eq!(pick(CollOp::Bcast, 128, 0, &m).0, CollectiveAlgo::Tree);
        // Bandwidth-bound bcast: the root's serialized copies lose.
        assert_eq!(
            pick(CollOp::Bcast, 16, 256 * 1024, &m).0,
            CollectiveAlgo::Tree
        );
        // Recursive doubling owns large-payload allreduce (log₂ P rounds
        // of n bytes vs 2·log₂ P for reduce+bcast).
        assert_eq!(
            pick(CollOp::Allreduce, 16, 128 * 1024, &m).0,
            CollectiveAlgo::RecursiveDoubling
        );
        // Every pick is deterministic and carries a finite cost.
        for op in [
            CollOp::Bcast,
            CollOp::Reduce,
            CollOp::Allreduce,
            CollOp::Allgather,
        ] {
            for p in [2usize, 3, 5, 8, 64] {
                for n in [0usize, 8, 4096] {
                    let (a, c) = pick(op, p, n, &m);
                    assert_eq!((a, c), pick(op, p, n, &m));
                    assert!(c.is_finite() && a != CollectiveAlgo::Auto);
                }
            }
        }
    }

    #[test]
    fn auto_allreduce_pick_is_the_same_for_one_scalar_and_a_few() {
        // `dlinalg`'s fused k-lane dots promise each lane bitwise equal to
        // the separate one-scalar allreduce. Under `Auto` that needs the
        // 8-byte and the k·8/k·16-byte payloads to resolve to one
        // algorithm, i.e. one bracketing of the ranks' partial sums.
        let m = NetworkModel::default();
        for p in 2..=300 {
            let one = pick(CollOp::Allreduce, p, 8, &m).0;
            for n in [16, 24, 32, 48, 64] {
                assert_eq!(pick(CollOp::Allreduce, p, n, &m).0, one, "p={p} n={n}");
            }
        }
    }

    #[test]
    fn auto_stays_in_sync_across_mixed_collectives() {
        // Auto must consume collective tags identically on every rank
        // even when consecutive calls resolve to different algorithms.
        for size in [1, 2, 3, 5, 8] {
            let out = run_with_algo(size, CollectiveAlgo::Auto, move |comm| {
                let s = comm.allreduce(&(comm.rank() as u64 + 1), ReduceOp::sum());
                let g = comm.allgather(&(comm.rank() as u32));
                let b = comm.bcast(0, (comm.rank() == 0).then(|| vec![7u8; 1024]));
                let r = comm.reduce(size - 1, &1i64, ReduceOp::sum());
                comm.barrier();
                (s, g, b, r)
            });
            for (rank, (s, g, b, r)) in out.into_iter().enumerate() {
                assert_eq!(s, (size * (size + 1) / 2) as u64);
                assert_eq!(g, (0..size as u32).collect::<Vec<_>>());
                assert_eq!(b, vec![7u8; 1024]);
                let expect = (rank == size - 1).then_some(size as i64);
                assert_eq!(r, expect, "size {size} rank {rank}");
            }
        }
    }

    #[test]
    fn vec_sum_reduces_elementwise() {
        let out = Universe::run(3, |comm| {
            let v = vec![comm.rank() as i64; 4];
            comm.allreduce(&v, ReduceOp::vec_sum())
        });
        for v in out {
            assert_eq!(v, vec![3, 3, 3, 3]);
        }
    }
}
