//! SpMV parity grid: `CsrMatrix::matvec_into` reads `x` in place through
//! an owned-first column numbering and gathers ghosts only, whatever the
//! row and domain maps look like. Every cell of ranks 1–5 × row map ×
//! domain map {block, cyclic, scrambled} × shape × scalar type holds the
//! overlapped product bitwise to a serial per-row sum in stored entry
//! order and to the blocking reference, and checks the structure the
//! sweep and AMG rely on.

use std::time::Duration;

use hpc_framework::comm::{Comm, Delivery, FaultPlan, Universe, UniverseConfig};
use hpc_framework::dlinalg::{reference, Complex64, CsrMatrix, DistVector, Scalar};
use hpc_framework::dmap::DistMap;
use obs::SplitMix64;

#[derive(Clone, Copy, Debug)]
enum Layout {
    Block,
    Cyclic,
    /// `from_my_gids` with hashed ownership, local order reversed on odd
    /// ranks so local ids do not follow global ids.
    Scrambled,
}

const LAYOUTS: [Layout; 3] = [Layout::Block, Layout::Cyclic, Layout::Scrambled];

fn layout(comm: &Comm, kind: Layout, n: usize) -> DistMap {
    let (p, me) = (comm.size(), comm.rank());
    match kind {
        Layout::Block => DistMap::block(n, p, me),
        Layout::Cyclic => DistMap::cyclic(n, p, me),
        Layout::Scrambled => {
            let mut gids: Vec<usize> = (0..n).filter(|g| (g * 7 + 3) % p == me).collect();
            if me % 2 == 1 {
                gids.reverse();
            }
            DistMap::from_my_gids(comm, gids)
        }
    }
}

/// What the grid needs of a scalar beyond `Scalar`: seeded values, a NaN
/// and its bit pattern.
trait Cell: Scalar {
    fn draw(r: &mut SplitMix64) -> Self;
    fn nan() -> Self;
    fn bits(self) -> [u64; 2];
}

impl Cell for f64 {
    fn draw(r: &mut SplitMix64) -> Self {
        r.gen_range_f64(-4.0, 4.0)
    }
    fn nan() -> Self {
        f64::NAN
    }
    fn bits(self) -> [u64; 2] {
        [self.to_bits(), 0]
    }
}

impl Cell for Complex64 {
    fn draw(r: &mut SplitMix64) -> Self {
        Complex64::new(r.gen_range_f64(-4.0, 4.0), r.gen_range_f64(-4.0, 4.0))
    }
    fn nan() -> Self {
        Complex64::new(f64::NAN, f64::NAN)
    }
    fn bits(self) -> [u64; 2] {
        [self.re.to_bits(), self.im.to_bits()]
    }
}

/// Entries of global row `g`: zero to six of them, columns unsorted and
/// sometimes repeated, every fifth row empty.
fn row_of<S: Cell>(seed: u64, g: usize, n_cols: usize) -> Vec<(usize, S)> {
    let mut r = SplitMix64::new(seed ^ (g as u64).wrapping_mul(0x9e37_79b9));
    if g % 5 == 2 {
        return Vec::new();
    }
    (0..r.gen_index(7))
        .map(|_| (r.gen_index(n_cols), S::draw(&mut r)))
        .collect()
}

fn x_at<S: Cell>(seed: u64, g: usize) -> S {
    S::draw(&mut SplitMix64::new(seed ^ 0xabcd ^ g as u64))
}

fn check_cell<S: Cell>(comm: &Comm, rows: Layout, cols: Layout, shape: (usize, usize), seed: u64) {
    let ctx = format!(
        "p={} rows={rows:?} cols={cols:?} shape={shape:?}",
        comm.size()
    );
    let (row_map, dom) = (layout(comm, rows, shape.0), layout(comm, cols, shape.1));
    let a = CsrMatrix::<S>::from_row_fn(comm, row_map.clone(), dom.clone(), |g| {
        row_of(seed, g, shape.1)
    });
    let n_rows = row_map.my_count();
    let n_owned = dom.my_count();
    let is_ghost = |g: usize| dom.global_to_local(g).is_none();

    // Column numbering: owned columns under their domain-local ids, then
    // the referenced ghosts, increasing.
    let col_gids = a.col_gids();
    assert_eq!(col_gids[..n_owned], dom.my_gids()[..], "{ctx}");
    let ghosts = &col_gids[n_owned..];
    assert_eq!(ghosts.len(), a.n_ghost_cols(), "{ctx}");
    assert!(ghosts.windows(2).all(|w| w[0] < w[1]), "{ctx}");
    assert!(ghosts.iter().all(|&g| is_ghost(g)), "{ctx}");

    // interior ∪ boundary partitions the rows, each increasing; interior
    // rows reference owned columns only, boundary rows at least one ghost.
    let interior: Vec<usize> = a.interior_rows().collect();
    let boundary: Vec<usize> = a.boundary_rows().collect();
    assert!(interior.windows(2).all(|w| w[0] < w[1]), "{ctx}");
    assert!(boundary.windows(2).all(|w| w[0] < w[1]), "{ctx}");
    let mut all = [interior.clone(), boundary.clone()].concat();
    all.sort_unstable();
    assert_eq!(all, (0..n_rows).collect::<Vec<_>>(), "{ctx}");
    for &i in &interior {
        assert!(a.row_entries(i).all(|(g, _)| !is_ghost(g)), "{ctx} row {i}");
    }
    for &i in &boundary {
        assert!(a.row_entries(i).any(|(g, _)| is_ghost(g)), "{ctx} row {i}");
    }

    // Leave NaN in every ghost slot of the matrix's workspace, then
    // multiply for real: interior rows are swept while those NaNs are
    // still there, so any read of the workspace from an interior range
    // would poison its row.
    let poisoned = a.matvec(comm, &DistVector::constant(dom.clone(), S::nan()));
    assert_eq!(poisoned.local().len(), n_rows);
    let x = DistVector::from_fn(dom.clone(), |g| x_at::<S>(seed, g));
    let mut y = DistVector::constant(row_map.clone(), S::nan());
    a.matvec_into(comm, &x, &mut y);
    let y_ref = reference::matvec_blocking(&a, comm, &x);
    for (l, (yl, rl)) in y.local().iter().zip(y_ref.local()).enumerate() {
        let g = row_map.local_to_global(l);
        let mut acc = S::zero();
        for (c, v) in row_of::<S>(seed, g, shape.1) {
            acc += v * x_at::<S>(seed, c);
        }
        assert_eq!(yl.bits(), acc.bits(), "{ctx} row {g} vs serial");
        assert_eq!(yl.bits(), rl.bits(), "{ctx} row {g} vs reference");
    }

    // The AMG contract: a halo gather lines up with `entry_local_col`.
    let tag = |g: usize| 1000 + 3 * g as u64;
    let owned_tags: Vec<u64> = dom.my_gids().into_iter().map(tag).collect();
    let halo = a.halo_gather(comm, &owned_tags, u64::MAX);
    assert_eq!(halo.len(), col_gids.len(), "{ctx}");
    for i in 0..n_rows {
        let ks = a.rowptr()[i]..a.rowptr()[i + 1];
        assert_eq!(ks.len(), a.row_entries(i).count());
        for (k, (g, v)) in ks.zip(a.row_entries(i)) {
            assert_eq!(halo[a.entry_local_col(k)], tag(g), "{ctx} entry {k}");
            assert_eq!(v.bits(), a.values()[k].bits());
        }
    }
}

fn sweep<S: Cell>(seed: u64) {
    // square, rectangular both ways, and fewer rows than ranks
    let shapes = [(23, 23), (17, 29), (29, 11), (3, 11)];
    for p in 1..=5 {
        Universe::run(p, |comm| {
            for rows in LAYOUTS {
                for cols in LAYOUTS {
                    for (si, &shape) in shapes.iter().enumerate() {
                        check_cell::<S>(comm, rows, cols, shape, seed + si as u64);
                    }
                }
            }
        });
    }
}

#[test]
fn matvec_reads_x_in_place_bitwise_on_every_layout_f64() {
    sweep::<f64>(0x51c0);
}

#[test]
fn matvec_reads_x_in_place_bitwise_on_every_layout_complex() {
    sweep::<Complex64>(0xc0a1);
}

/// A matrix owns its halo plan and builds it where it is constructed, so
/// two sparsities on one domain map need nothing between them. `b` is the
/// 1-D Laplacian `a` plus the entry (3, 0): rank 1 owns row 3 and gains
/// column 0 as a ghost, rank 0 gains a row to send, and every other
/// rank's ghost list is the same for both matrices — the case a per-rank
/// memo of the build got wrong (one rank replaying while its peers
/// exchange request lists). A regression is a `Stalled` panic, not a hang.
#[test]
fn two_sparsities_on_one_domain_map_build_back_to_back() {
    let row = |extra: bool, n: usize, g: usize| {
        let mut r = vec![(g, 2.0)];
        r.extend((g > 0).then(|| (g - 1, -1.0)));
        r.extend((g + 1 < n).then(|| (g + 1, -1.0)));
        r.extend((extra && g == 3).then_some((0, 0.5)));
        r
    };
    for p in 2..=5 {
        // clean, then the three chaos seeds ci.sh sweeps
        for seed in [None, Some(42), Some(1009), Some(777_216)] {
            let mut config = UniverseConfig::default().with_stall_timeout(Duration::from_secs(5));
            if let Some(seed) = seed {
                config = config
                    .with_fault(FaultPlan::messages(seed, 0.08, 0.04, 0.04, 0.03))
                    .with_delivery(Delivery::Reliable);
            }
            Universe::run_report(config, p, |comm| {
                let ctx = format!("p={p} seed={seed:?} rank={}", comm.rank());
                let n = 3 * p;
                let map = DistMap::block(n, p, comm.rank());
                let build = |extra| {
                    CsrMatrix::<f64>::from_row_fn(comm, map.clone(), map.clone(), |g| {
                        row(extra, n, g)
                    })
                };
                let (a, b) = (build(false), build(true));
                let ghosts = |m: &CsrMatrix<f64>| m.col_gids()[map.my_count()..].to_vec();
                assert_eq!(ghosts(&a) != ghosts(&b), comm.rank() == 1, "{ctx}");

                let x_at = |g: usize| 1.0 + (g * g) as f64;
                let x = DistVector::from_fn(map.clone(), x_at);
                for (extra, m) in [(false, &a), (true, &b)] {
                    let y = m.matvec(comm, &x);
                    let y_ref = reference::matvec_blocking(m, comm, &x);
                    for (l, (yl, rl)) in y.local().iter().zip(y_ref.local()).enumerate() {
                        let g = map.local_to_global(l);
                        let serial: f64 = row(extra, n, g).iter().map(|&(c, v)| v * x_at(c)).sum();
                        assert_eq!(yl.to_bits(), serial.to_bits(), "{ctx} row {g} vs serial");
                        assert_eq!(yl.to_bits(), rl.to_bits(), "{ctx} row {g} vs reference");
                    }
                }
            });
        }
    }
}

/// The ghost exchange of the benchmark's own matrix: one message per
/// neighbour carrying one grid line, and one contiguous interior range.
#[test]
fn laplace_2d_halo_is_one_grid_line_per_neighbour() {
    for p in 2..=4 {
        Universe::run(p, |comm| {
            let nx = 128;
            let a = hpc_framework::galeri::laplace_2d(comm, nx, nx);
            let me = comm.rank();
            let neighbours = usize::from(me > 0) + usize::from(me + 1 < comm.size());
            assert_eq!(a.n_ghost_cols(), neighbours * nx);
            let x = DistVector::from_fn(a.domain_map().clone(), |g| g as f64);
            let mut y = DistVector::zeros(a.row_map().clone());
            a.matvec_into(comm, &x, &mut y); // warm: plan built, buffers pooled
            let before = comm.stats();
            a.matvec_into(comm, &x, &mut y);
            let after = comm.stats();
            assert_eq!(after.msgs_sent - before.msgs_sent, neighbours as u64);
            // whole interior grid lines are one contiguous row range
            assert_eq!(a.interior_rows().count(), y.local().len() - neighbours * nx);
        });
    }
}
