//! Distributed vectors (Tpetra `Vector` analog).

use comm::{Comm, CommError, Cursor, ReduceOp, Wire};
use dmap::{CommPlan, Directory, DistMap};

use crate::scalar::{RealScalar, Scalar};

/// A vector distributed over the ranks of a communicator according to a
/// [`DistMap`]. Each rank holds only its local entries; global operations
/// (dot products, norms) take the communicator explicitly, mirroring the
/// SPMD execution model.
#[derive(Debug, Clone)]
pub struct DistVector<S: Scalar> {
    map: DistMap,
    data: Vec<S>,
}

/// The `K` partial sums of one fused reduction as they travel through
/// `Comm::allreduce`: `K` is part of the type, so there is no length
/// prefix and encoding, decoding and cloning never touch the heap.
#[derive(Clone, Copy)]
struct Lanes<S, const K: usize>([S; K]);

impl<S: Scalar, const K: usize> Wire for Lanes<S, K> {
    fn encode(&self, buf: &mut Vec<u8>) {
        for lane in &self.0 {
            lane.encode(buf);
        }
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, CommError> {
        let mut lanes = [S::zero(); K];
        for lane in &mut lanes {
            *lane = S::decode(cur)?;
        }
        Ok(Lanes(lanes))
    }
    fn wire_size(&self) -> usize {
        self.0.iter().map(Wire::wire_size).sum()
    }
}

impl<S: Scalar> DistVector<S> {
    /// All-zeros vector over `map`.
    pub fn zeros(map: DistMap) -> Self {
        let n = map.my_count();
        DistVector {
            map,
            data: vec![S::zero(); n],
        }
    }

    /// Constant vector over `map`.
    pub fn constant(map: DistMap, value: S) -> Self {
        let n = map.my_count();
        DistVector {
            map,
            data: vec![value; n],
        }
    }

    /// Build from a function of the *global* index — the distributed
    /// equivalent of `np.fromfunction`.
    pub fn from_fn(map: DistMap, f: impl Fn(usize) -> S) -> Self {
        let data = (0..map.my_count())
            .map(|l| f(map.local_to_global(l)))
            .collect();
        DistVector { map, data }
    }

    /// Adopt pre-laid-out local data (must match the map's local count).
    pub fn from_local(map: DistMap, data: Vec<S>) -> Self {
        assert_eq!(data.len(), map.my_count(), "local data length mismatch");
        DistVector { map, data }
    }

    /// The distribution map.
    pub fn map(&self) -> &DistMap {
        &self.map
    }

    /// Local entries (in local-index order).
    pub fn local(&self) -> &[S] {
        &self.data
    }

    /// Mutable local entries.
    pub fn local_mut(&mut self) -> &mut [S] {
        &mut self.data
    }

    /// Global length.
    pub fn n_global(&self) -> usize {
        self.map.n_global()
    }

    /// Set every entry to `value`.
    pub fn fill(&mut self, value: S) {
        self.data.iter_mut().for_each(|x| *x = value);
    }

    /// `self ← alpha * self`.
    pub fn scale(&mut self, alpha: S) {
        self.data.iter_mut().for_each(|x| *x *= alpha);
    }

    /// `self ← self + alpha * x` (BLAS axpy).
    pub fn axpy(&mut self, alpha: S, x: &DistVector<S>) {
        debug_assert!(self.map.same_as(&x.map), "axpy maps must match");
        for (y, &xv) in self.data.iter_mut().zip(x.data.iter()) {
            *y += alpha * xv;
        }
    }

    /// `self ← alpha * x + beta * self` (Tpetra `update`).
    pub fn update(&mut self, alpha: S, x: &DistVector<S>, beta: S) {
        debug_assert!(self.map.same_as(&x.map), "update maps must match");
        for (y, &xv) in self.data.iter_mut().zip(x.data.iter()) {
            *y = alpha * xv + beta * *y;
        }
    }

    /// Elementwise product `self ← self ∘ x`.
    pub fn pointwise_mul(&mut self, x: &DistVector<S>) {
        debug_assert!(self.map.same_as(&x.map));
        for (y, &xv) in self.data.iter_mut().zip(x.data.iter()) {
            *y *= xv;
        }
    }

    /// The vector work of one single-reduction (Chronopoulos–Gear) CG
    /// iteration, in one pass over memory: `p ← u + β·p`, `s ← w + β·s`,
    /// `x ← x + α·p`, `r ← r − α·s`, then `u ← d∘r` when a pointwise
    /// multiplier `d` is given (`u` is left alone otherwise). `beta: None`
    /// is the first iteration, which copies (`p = u`, `s = w`) instead of
    /// scaling a zero direction — `0·β + (−0.0)` would be `+0.0`. Every
    /// element sees the operations, in the operand order, of `p.scale(β);
    /// p.axpy(1, u)`, the same for `s`, `x.axpy(α, p)`, `r.axpy(−α, s)`
    /// and a copy of `r` then `pointwise_mul(d)`, so the sweep is bitwise
    /// those calls made one after another. Local; no modeled flops (the
    /// `axpy`s it replaces account none).
    pub fn cg_sweep(
        [p, s, x, r]: [&mut DistVector<S>; 4],
        u: &mut DistVector<S>,
        w: &DistVector<S>,
        d: Option<&DistVector<S>>,
        beta: Option<S>,
        alpha: S,
    ) {
        let n = u.data.len();
        debug_assert!(
            [&*p, &*s, &*x, &*r, w]
                .into_iter()
                .chain(d)
                .all(|v| v.map.same_as(&u.map) && v.data.len() == n),
            "cg_sweep maps must match"
        );
        let v = [
            &mut p.data,
            &mut s.data,
            &mut x.data,
            &mut r.data,
            &mut u.data,
        ];
        let (w, dd) = (&w.data[..], d.map_or(&[][..], |d| &d.data[..]));
        match (beta, d.is_some()) {
            (None, false) => sweep_rows::<S, true, false>(v, w, dd, S::zero(), alpha),
            (None, true) => sweep_rows::<S, true, true>(v, w, dd, S::zero(), alpha),
            (Some(b), false) => sweep_rows::<S, false, false>(v, w, dd, b, alpha),
            (Some(b), true) => sweep_rows::<S, false, true>(v, w, dd, b, alpha),
        }
    }

    /// Conjugated dot product `⟨self, other⟩ = Σ conj(selfᵢ)·otherᵢ`.
    /// Collective; accounts `2n` modeled flops on this rank.
    pub fn dot(&self, other: &DistVector<S>, comm: &Comm) -> S {
        Self::dots([(self, other)], comm)[0]
    }

    /// `K` conjugated dot products `⟨aₖ, bₖ⟩` over one map, fused: one pass
    /// over memory with `K` independent accumulators, then **one**
    /// allreduce of the `K` partial sums. Each lane adds its terms in the
    /// order [`DistVector::dot`] does and the ranks' partials combine
    /// lane by lane under the same bracketing, so lane `k` is bitwise
    /// `aₖ.dot(bₖ)` — what fusing saves is `K − 1` synchronizations. A
    /// squared norm is the lane `(x, x)`: its real part is bitwise
    /// `x.norm2()²` before the square root (`conj(x)·x` and `|x|²` round
    /// identically). Collective; accounts `2n` modeled flops per lane.
    pub fn dots<const K: usize>(
        pairs: [(&DistVector<S>, &DistVector<S>); K],
        comm: &Comm,
    ) -> [S; K] {
        let n = pairs.first().map_or(0, |(a, _)| a.data.len());
        let lanes = pairs.map(|(a, b)| {
            debug_assert!(
                a.map.same_as(&b.map) && a.data.len() == n,
                "dot maps must match"
            );
            (&a.data[..n], &b.data[..n])
        });
        let mut acc = [S::zero(); K];
        for i in 0..n {
            for (sum, (a, b)) in acc.iter_mut().zip(&lanes) {
                *sum += a[i].conj() * b[i];
            }
        }
        comm.advance_compute(2.0 * (K * n) as f64);
        comm.allreduce(&Lanes(acc), |x: &Lanes<S, K>, y: &Lanes<S, K>| {
            Lanes(std::array::from_fn(|k| x.0[k] + y.0[k]))
        })
        .0
    }

    /// Euclidean norm. Collective.
    pub fn norm2(&self, comm: &Comm) -> S::Real {
        let mut acc = S::Real::zero();
        for &a in &self.data {
            acc += a.abs_sq();
        }
        comm.advance_compute(2.0 * self.data.len() as f64);
        let total = comm.allreduce(&acc, |x: &S::Real, y: &S::Real| *x + *y);
        total.sqrt()
    }

    /// 1-norm (sum of moduli). Collective.
    pub fn norm1(&self, comm: &Comm) -> S::Real {
        let mut acc = S::Real::zero();
        for &a in &self.data {
            acc += a.abs();
        }
        comm.advance_compute(self.data.len() as f64);
        comm.allreduce(&acc, |x: &S::Real, y: &S::Real| *x + *y)
    }

    /// ∞-norm (max modulus). Collective.
    pub fn norm_inf(&self, comm: &Comm) -> S::Real {
        let mut acc = S::Real::zero();
        for &a in &self.data {
            let m = a.abs();
            if m > acc {
                acc = m;
            }
        }
        comm.advance_compute(self.data.len() as f64);
        comm.allreduce(&acc, ReduceOp::max())
    }

    /// Sum of entries. Collective.
    pub fn sum(&self, comm: &Comm) -> S {
        let mut acc = S::zero();
        for &a in &self.data {
            acc += a;
        }
        comm.advance_compute(self.data.len() as f64);
        comm.allreduce(&acc, |x: &S, y: &S| *x + *y)
    }

    /// Redistribute into `new_map` (same global size). Collective: builds
    /// the import plan on every call, which every rank enters in program
    /// order and which sends nothing when both maps are structured; a
    /// caller that repeats one redistribution holds a [`CommPlan`] itself.
    pub fn redistribute(&self, comm: &Comm, new_map: DistMap) -> DistVector<S> {
        let dir = Directory::build(comm, &self.map);
        let plan = CommPlan::import(comm, &self.map, &new_map, &dir);
        let mut out = vec![S::zero(); new_map.my_count()];
        plan.execute(comm, &self.data, &mut out);
        DistVector {
            map: new_map,
            data: out,
        }
    }

    /// Gather the whole vector (in global order) onto every rank.
    /// Collective; intended for small vectors and tests.
    pub fn gather_global(&self, comm: &Comm) -> Vec<S> {
        // Block sizes follow the map, i.e. the rank: `allgatherv`.
        let pieces: Vec<(Vec<usize>, Vec<S>)> =
            comm.allgatherv(&(self.map.my_gids(), self.data.clone()));
        let mut out = vec![S::zero(); self.map.n_global()];
        for (gids, vals) in pieces {
            for (g, v) in gids.into_iter().zip(vals) {
                out[g] = v;
            }
        }
        out
    }
}

/// [`DistVector::cg_sweep`]'s loop, monomorphised per (copy iteration,
/// pointwise multiplier) so neither branch is taken per element. Kept out
/// of line: inlined into `solvers::cg`'s loop body the same loop made the
/// repo benchmark's `cg_poisson2d` solve ~10 % slower (20.2–21.1 → 22.8–23.6
/// ms in alternating runs), a code-generation effect of the host function
/// rather than of this one.
#[inline(never)]
fn sweep_rows<S: Scalar, const FIRST: bool, const POINTWISE: bool>(
    [p, s, x, r, u]: [&mut Vec<S>; 5],
    w: &[S],
    d: &[S],
    beta: S,
    alpha: S,
) {
    let n = u.len();
    let (p, s, x, r, u, w) = (
        &mut p[..n],
        &mut s[..n],
        &mut x[..n],
        &mut r[..n],
        &mut u[..n],
        &w[..n],
    );
    let d = if POINTWISE { &d[..n] } else { d };
    let neg_alpha = -alpha;
    // Each element is loaded and stored once; the locals carry it
    // through the same operations the separate calls apply.
    for i in 0..n {
        let (mut pi, mut si) = if FIRST { (u[i], w[i]) } else { (p[i], s[i]) };
        if !FIRST {
            pi *= beta;
            pi += S::one() * u[i];
            si *= beta;
            si += S::one() * w[i];
        }
        let mut ri = r[i];
        ri += neg_alpha * si;
        (p[i], s[i], r[i]) = (pi, si, ri);
        x[i] += alpha * pi;
        if POINTWISE {
            let mut ui = ri;
            ui *= d[i];
            u[i] = ui;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comm::Universe;

    fn block_vec(comm: &Comm, n: usize, f: impl Fn(usize) -> f64) -> DistVector<f64> {
        let map = DistMap::block(n, comm.size(), comm.rank());
        DistVector::from_fn(map, f)
    }

    #[test]
    fn dot_matches_serial() {
        let out = Universe::run(3, |comm| {
            let x = block_vec(comm, 10, |g| g as f64);
            let y = block_vec(comm, 10, |_| 2.0);
            x.dot(&y, comm)
        });
        let expect: f64 = (0..10).map(|g| g as f64 * 2.0).sum();
        for v in out {
            assert_eq!(v, expect);
        }
    }

    #[test]
    fn norms_match_serial() {
        let out = Universe::run(4, |comm| {
            let x = block_vec(comm, 9, |g| if g == 4 { -10.0 } else { 1.0 });
            (x.norm1(comm), x.norm2(comm), x.norm_inf(comm))
        });
        for (n1, n2, ninf) in out {
            assert!((n1 - 18.0).abs() < 1e-12);
            assert!((n2 - (8.0f64 + 100.0).sqrt()).abs() < 1e-12);
            assert_eq!(ninf, 10.0);
        }
    }

    #[test]
    fn axpy_update_scale() {
        Universe::run(2, |comm| {
            let mut y = block_vec(comm, 6, |g| g as f64);
            let x = block_vec(comm, 6, |_| 1.0);
            y.axpy(2.0, &x); // y = g + 2
            y.update(3.0, &x, 0.5); // y = 3 + (g+2)/2
            y.scale(2.0); // y = 6 + g + 2 = g + 8
            for (l, &v) in y.local().iter().enumerate() {
                let g = y.map().local_to_global(l);
                assert_eq!(v, g as f64 + 8.0);
            }
        });
    }

    #[test]
    fn complex_dot_conjugates() {
        use crate::scalar::Complex64;
        let out = Universe::run(2, |comm| {
            let map = DistMap::block(4, comm.size(), comm.rank());
            let x = DistVector::from_fn(map.clone(), |_| Complex64::new(0.0, 1.0));
            let y = DistVector::from_fn(map, |_| Complex64::new(0.0, 1.0));
            x.dot(&y, comm)
        });
        // ⟨i, i⟩ = conj(i)·i summed over 4 entries = 4
        for v in out {
            assert_eq!(v, crate::scalar::Complex64::new(4.0, 0.0));
        }
    }

    /// Every lane of a fused reduction must be bitwise the separate
    /// `dot` (and, for an `(x, x)` lane, `norm2`) under every collective
    /// algorithm — non-power-of-two rank counts included, where the
    /// algorithms bracket the ranks' partial sums differently.
    #[test]
    fn fused_lanes_are_bitwise_the_separate_reductions() {
        use crate::scalar::Complex64;
        use comm::{CollectiveAlgo, UniverseConfig};

        fn check<S: Scalar>(comm: &Comm, f: impl Fn(usize, f64) -> S) {
            // Irrational strides: the partial sums do not round trivially.
            let map = DistMap::block(53, comm.size(), comm.rank());
            let x = DistVector::from_fn(map.clone(), |g| f(g, 0.7391));
            let y = DistVector::from_fn(map.clone(), |g| f(g, 1.6180));
            let z = DistVector::from_fn(map, |g| f(g, 2.2361));
            let [xx, xy, zy] = DistVector::dots([(&x, &x), (&x, &y), (&z, &y)], comm);
            assert_eq!(xy, x.dot(&y, comm));
            assert_eq!(zy, z.dot(&y, comm));
            assert_eq!(xx, x.dot(&x, comm));
            assert_eq!(xx.re().sqrt(), x.norm2(comm));
            let [yx] = DistVector::dots([(&y, &x)], comm);
            assert_eq!(yx, y.dot(&x, comm));
            assert_eq!(DistVector::<S>::dots([], comm), []);
        }

        for algo in [
            CollectiveAlgo::Linear,
            CollectiveAlgo::Tree,
            CollectiveAlgo::RecursiveDoubling,
            CollectiveAlgo::Auto,
        ] {
            for ranks in [1, 2, 3, 4, 5, 6, 7] {
                let cfg = UniverseConfig {
                    algo,
                    ..Default::default()
                };
                Universe::run_report(cfg, ranks, |comm| {
                    check::<f64>(comm, |g, w| (g as f64 * w).sin() / 3.0);
                    check::<Complex64>(comm, |g, w| {
                        Complex64::new((g as f64 * w).sin() / 3.0, (g as f64 * w).cos() / 7.0)
                    });
                });
            }
        }
    }

    /// `cg_sweep` is bitwise the separate `scale`/`axpy`/copy/
    /// `pointwise_mul` calls it fuses — both scalar kinds, with and without
    /// a multiplier, on the copy iteration and after it — and the copy
    /// iteration keeps a `-0.0` in `u` that `0·β + u` would turn into `+0.0`.
    #[test]
    fn cg_sweep_is_bitwise_the_separate_calls() {
        use crate::scalar::Complex64;
        use comm::encode_to_vec;

        fn check<S: Scalar>(f: impl Fn(usize, f64) -> S, neg_zero: S) {
            let map = DistMap::block(23, 1, 0);
            let vec = |k: f64| DistVector::from_fn(map.clone(), |g| f(g, k));
            let bits = |v: &DistVector<S>| encode_to_vec(&v.local().to_vec());
            let mut u = vec(0.7391);
            u.local_mut()[3] = neg_zero;
            let (w, d) = (vec(1.6180), vec(2.2361));
            let (alpha, beta) = (f(5, 0.31), f(7, 0.43));
            for first in [true, false] {
                for mult in [None, Some(&d)] {
                    let [mut p, mut s, mut x, mut r] = [0.11, 0.23, 0.37, 0.53].map(vec);
                    let [mut p2, mut s2, mut x2, mut r2, mut u2] =
                        [&p, &s, &x, &r, &u].map(DistVector::clone);
                    if first {
                        p2.local_mut().copy_from_slice(u.local());
                        s2.local_mut().copy_from_slice(w.local());
                    } else {
                        p2.scale(beta);
                        p2.axpy(S::one(), &u);
                        s2.scale(beta);
                        s2.axpy(S::one(), &w);
                    }
                    x2.axpy(alpha, &p2);
                    r2.axpy(-alpha, &s2);
                    if let Some(d) = mult {
                        u2.local_mut().copy_from_slice(r2.local());
                        u2.pointwise_mul(d);
                    }
                    let mut u1 = u.clone();
                    let b = (!first).then_some(beta);
                    DistVector::cg_sweep(
                        [&mut p, &mut s, &mut x, &mut r],
                        &mut u1,
                        &w,
                        mult,
                        b,
                        alpha,
                    );
                    let cell = format!("first {first}, multiplier {}", mult.is_some());
                    for (name, got, want) in [
                        ("p", &p, &p2),
                        ("s", &s, &s2),
                        ("x", &x, &x2),
                        ("r", &r, &r2),
                        ("u", &u1, &u2),
                    ] {
                        assert_eq!(bits(got), bits(want), "{cell}: {name}");
                    }
                    if first {
                        let sign = encode_to_vec(&p.local()[3]);
                        assert_eq!(sign, encode_to_vec(&neg_zero), "{cell}: -0.0 copied");
                    }
                }
            }
        }

        check::<f64>(|g, k| (g as f64 * k).sin() / 3.0, -0.0);
        check::<Complex64>(
            |g, k| Complex64::new((g as f64 * k).sin() / 3.0, (g as f64 * k).cos() / 7.0),
            Complex64::new(-0.0, -0.0),
        );
    }

    #[test]
    fn redistribute_preserves_values() {
        Universe::run(3, |comm| {
            let x = block_vec(comm, 13, |g| g as f64 * 1.5);
            let cyc = DistMap::cyclic(13, comm.size(), comm.rank());
            let y = x.redistribute(comm, cyc);
            for (l, &v) in y.local().iter().enumerate() {
                let g = y.map().local_to_global(l);
                assert_eq!(v, g as f64 * 1.5);
            }
        });
    }

    #[test]
    fn gather_global_reassembles() {
        Universe::run(4, |comm| {
            let x = block_vec(comm, 7, |g| (g * g) as f64);
            let full = x.gather_global(comm);
            let expect: Vec<f64> = (0..7).map(|g| (g * g) as f64).collect();
            assert_eq!(full, expect);
        });
    }

    #[test]
    fn gather_global_survives_uneven_blocks_under_auto() {
        // 246 entries over 4 ranks are 62/62/61/61-entry blocks of 1008
        // and 992 B: either side of `Auto`'s payload-aware ring/linear
        // allgather crossover, so sizing the wire pattern from a rank's
        // own block stalled here while 240 and 248 (even blocks) passed.
        // The deadline turns a relapse into a `Stalled` panic.
        let cfg = comm::UniverseConfig::default()
            .with_algo(comm::CollectiveAlgo::Auto)
            .with_stall_timeout(std::time::Duration::from_secs(10));
        for n in [240, 246, 248] {
            let out = Universe::run_report(cfg, 4, |comm| {
                block_vec(comm, n, |g| g as f64 * 0.5).gather_global(comm)
            });
            let expect: Vec<f64> = (0..n).map(|g| g as f64 * 0.5).collect();
            assert!(out.results.iter().all(|full| *full == expect), "n = {n}");
        }
    }

    #[test]
    fn pointwise_and_sum() {
        let out = Universe::run(2, |comm| {
            let mut x = block_vec(comm, 5, |g| g as f64 + 1.0);
            let y = block_vec(comm, 5, |_| 2.0);
            x.pointwise_mul(&y);
            x.sum(comm)
        });
        // 2*(1+2+3+4+5) = 30
        for v in out {
            assert_eq!(v, 30.0);
        }
    }

    #[test]
    fn fill_and_constant() {
        Universe::run(2, |comm| {
            let map = DistMap::block(6, comm.size(), comm.rank());
            let mut v = DistVector::constant(map, 7.0);
            assert!(v.local().iter().all(|&x| x == 7.0));
            v.fill(0.0);
            assert!(v.local().iter().all(|&x| x == 0.0));
        });
    }
}
