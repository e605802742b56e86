//! SpMV parity grid: `CsrMatrix::matvec_into` reads `x` in place through
//! an owned-first column numbering and gathers ghosts only, whatever the
//! row and domain maps look like, and whichever constructor built the
//! matrix. Every cell of ranks 1–5 × row map × domain map {block, cyclic,
//! scrambled} × shape × build {short rows, long rows, ghost-only rows,
//! `from_triplets`, `transpose`} × scalar type holds the overlapped product
//! bitwise to a serial per-row sum in stored entry order and to the
//! blocking reference, and checks the structure the sweep and AMG rely on.
//! The sweep reads its operands unchecked, so this grid is also its
//! bounds proof in practice: run it in release too, where the sweep's
//! `debug_assert!`s are compiled out.

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

/// The gids rank `r` of `p` owns under `kind`, in local order.
fn gids(kind: Layout, n: usize, p: usize, r: usize) -> Vec<usize> {
    match kind {
        Layout::Block => DistMap::block(n, p, r).my_gids(),
        Layout::Cyclic => DistMap::cyclic(n, p, r).my_gids(),
        Layout::Scrambled => {
            let mut gids: Vec<usize> = (0..n).filter(|g| (g * 7 + 3) % p == r).collect();
            if r % 2 == 1 {
                gids.reverse();
            }
            gids
        }
    }
}

fn layout(comm: &Comm, kind: Layout, n: usize) -> DistMap {
    let (p, me) = (comm.size(), comm.rank());
    match kind {
        Layout::Block => DistMap::block(n, p, me),
        Layout::Cyclic => DistMap::cyclic(n, p, me),
        Layout::Scrambled => DistMap::from_my_gids(comm, gids(kind, n, p, me)),
    }
}

/// How a cell's matrix is built.
#[derive(Clone, Copy, Debug)]
enum Build {
    /// `from_row_fn` over [`short_row`].
    Short,
    /// `from_row_fn` over [`long_row`].
    Long,
    /// `from_row_fn` over [`ghost_only_row`].
    GhostOnly,
    /// `from_triplets` over [`triplets_of`]: duplicates summed.
    Triplets,
    /// `transpose` of a [`long_row`] matrix: repeated columns become
    /// summed duplicates of the transposed rows.
    Transpose,
}

const BUILDS: [Build; 5] = [
    Build::Short,
    Build::Long,
    Build::GhostOnly,
    Build::Triplets,
    Build::Transpose,
];

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
fn short_row<S: Cell>(seed: u64, g: usize, n_cols: usize) -> Vec<(usize, S)> {
    let mut r = SplitMix64::new(seed ^ (g as u64).wrapping_mul(0x9e37_79b9));
    if g % 5 == 2 {
        return Vec::new();
    }
    (0..r.gen_index(7))
        .map(|_| (r.gen_index(n_cols), S::draw(&mut r)))
        .collect()
}

/// Entries of global row `g`: 16 to 24 of them, columns unsorted, about a
/// quarter repeating an earlier column of the row.
fn long_row<S: Cell>(seed: u64, g: usize, n_cols: usize) -> Vec<(usize, S)> {
    let mut r = SplitMix64::new(seed ^ 0x1095 ^ (g as u64).wrapping_mul(0x9e37_79b9));
    let mut row: Vec<(usize, S)> = Vec::new();
    for _ in 0..16 + r.gen_index(9) {
        let c = if !row.is_empty() && r.gen_index(4) == 0 {
            row[r.gen_index(row.len())].0
        } else {
            r.gen_index(n_cols)
        };
        row.push((c, S::draw(&mut r)));
    }
    row
}

/// Every even row holds one to five entries, all in columns this rank
/// does not own (`foreign`, repeats allowed): a boundary row that reads
/// the ghost workspace only. Odd rows, and every row when nothing is
/// foreign, are [`short_row`]s.
fn ghost_only_row<S: Cell>(
    seed: u64,
    g: usize,
    n_cols: usize,
    foreign: &[usize],
) -> Vec<(usize, S)> {
    if g % 2 == 1 || foreign.is_empty() {
        return short_row(seed, g, n_cols);
    }
    let mut r = SplitMix64::new(seed ^ 0x6057 ^ (g as u64).wrapping_mul(0x9e37_79b9));
    (0..1 + r.gen_index(5))
        .map(|_| (foreign[r.gen_index(foreign.len())], S::draw(&mut r)))
        .collect()
}

/// The `(row, col, value)` triplets rank `r` contributes: every rank
/// adds to the first rows' diagonals, so ranks collide, and about a third
/// of the rest repeat an earlier coordinate of the same rank.
fn triplets_of<S: Cell>(seed: u64, r: usize, shape: (usize, usize)) -> Vec<(usize, usize, S)> {
    let mut rng = SplitMix64::new(seed ^ 0x7a1 ^ (r as u64).wrapping_mul(0x9e37_79b9));
    let mut out: Vec<(usize, usize, S)> = (0..shape.0.min(3))
        .map(|g| (g, g % shape.1, S::draw(&mut rng)))
        .collect();
    for _ in 0..2 * shape.0 {
        let (g, c) = if rng.gen_index(3) == 0 {
            let t = out[rng.gen_index(out.len())];
            (t.0, t.1)
        } else {
            (rng.gen_index(shape.0), rng.gen_index(shape.1))
        };
        out.push((g, c, S::draw(&mut rng)));
    }
    out
}

/// The stored rows of a matrix assembled from `batches` (one per source
/// rank, in rank order): a coordinate's duplicates summed from zero in
/// arrival order, each row sorted by column.
fn summed_rows<S: Cell>(
    n_rows: usize,
    batches: impl Iterator<Item = Vec<(usize, usize, S)>>,
) -> Vec<Vec<(usize, S)>> {
    let mut rows: Vec<Vec<(usize, S)>> = vec![Vec::new(); n_rows];
    for (g, c, v) in batches.flatten() {
        let at = match rows[g].iter().position(|e| e.0 == c) {
            Some(at) => at,
            None => {
                rows[g].push((c, S::zero()));
                rows[g].len() - 1
            }
        };
        rows[g][at].1 += v;
    }
    for row in &mut rows {
        row.sort_unstable_by_key(|e| e.0);
    }
    rows
}

fn x_at<S: Cell>(seed: u64, g: usize) -> S {
    S::draw(&mut SplitMix64::new(seed ^ 0xabcd ^ g as u64))
}

/// The cell's matrix, and the entries each of its local rows must hold,
/// in stored order.
fn build_cell<S: Cell>(
    comm: &Comm,
    build: Build,
    rows: Layout,
    cols: Layout,
    shape: (usize, usize),
    seed: u64,
) -> (CsrMatrix<S>, Vec<Vec<(usize, S)>>) {
    let p = comm.size();
    let local = |a: &CsrMatrix<S>, all: Vec<Vec<(usize, S)>>| {
        let mine = a.row_map().my_gids();
        mine.into_iter().map(|g| all[g].clone()).collect()
    };
    match build {
        Build::Short | Build::Long | Build::GhostOnly => {
            let (row_map, dom) = (layout(comm, rows, shape.0), layout(comm, cols, shape.1));
            let foreign: Vec<usize> = (0..shape.1)
                .filter(|&c| dom.global_to_local(c).is_none())
                .collect();
            let row = |g: usize| match build {
                Build::Short => short_row(seed, g, shape.1),
                Build::Long => long_row(seed, g, shape.1),
                _ => ghost_only_row(seed, g, shape.1, &foreign),
            };
            let stored = row_map.my_gids().into_iter().map(row).collect();
            (CsrMatrix::from_row_fn(comm, row_map, dom, row), stored)
        }
        Build::Triplets => {
            let (row_map, dom) = (layout(comm, rows, shape.0), layout(comm, cols, shape.1));
            let mine = triplets_of(seed, comm.rank(), shape);
            let a = CsrMatrix::from_triplets(comm, row_map, dom, mine);
            let all = summed_rows(shape.0, (0..p).map(|r| triplets_of(seed, r, shape)));
            let stored = local(&a, all);
            (a, stored)
        }
        Build::Transpose => {
            // Aᵀ has the cell's row and domain maps, so A has them swapped;
            // rank r sends A's rows in its local order, entries in stored
            // order.
            let (a_rows, a_dom) = (layout(comm, cols, shape.1), layout(comm, rows, shape.0));
            let a = CsrMatrix::from_row_fn(comm, a_rows, a_dom, |g| long_row(seed, g, shape.0));
            let at = a.transpose(comm);
            let batch = |r: usize| -> Vec<(usize, usize, S)> {
                let row_gids = gids(cols, shape.1, p, r);
                let entries = |gr: usize| long_row::<S>(seed, gr, shape.0).into_iter();
                row_gids
                    .into_iter()
                    .flat_map(|gr| entries(gr).map(move |(gc, v)| (gc, gr, v)))
                    .collect()
            };
            let stored = local(&at, summed_rows(shape.0, (0..p).map(batch)));
            (at, stored)
        }
    }
}

fn check_cell<S: Cell>(
    comm: &Comm,
    build: Build,
    rows: Layout,
    cols: Layout,
    shape: (usize, usize),
    seed: u64,
) {
    let ctx = format!(
        "p={} build={build:?} rows={rows:?} cols={cols:?} shape={shape:?}",
        comm.size()
    );
    let (a, stored) = build_cell::<S>(comm, build, rows, cols, shape, seed);
    let (row_map, dom) = (a.row_map().clone(), a.domain_map().clone());
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
        let entries: Vec<_> = a.row_entries(l).map(|(c, v)| (c, v.bits())).collect();
        let want: Vec<_> = stored[l].iter().map(|&(c, v)| (c, v.bits())).collect();
        assert_eq!(entries, want, "{ctx} row {g} stored entries");
        let mut acc = S::zero();
        for &(c, v) in &stored[l] {
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
                        for build in BUILDS {
                            check_cell::<S>(comm, build, rows, cols, shape, seed + si as u64);
                        }
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
