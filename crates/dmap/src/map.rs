//! Distribution maps: who owns which global index.

use std::collections::HashMap;

use comm::{Comm, CommError, Cursor, Wire};

use crate::runs::{compress, Run};

/// The distribution *pattern* of a map — the vocabulary the paper's ODIN
/// exposes for array creation ("block, cyclic, block-cyclic, or another
/// arbitrary global-to-local index mapping", §III-A). Wire-encodable, so
/// the layers above can ship it inside control messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Distribution {
    /// Contiguous, nearly equal blocks in rank order.
    Block,
    /// Round-robin by element.
    Cyclic,
    /// Round-robin by fixed-size blocks.
    BlockCyclic(usize),
}

impl Wire for Distribution {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Distribution::Block => buf.push(0),
            Distribution::Cyclic => buf.push(1),
            Distribution::BlockCyclic(b) => {
                buf.push(2);
                b.encode(buf);
            }
        }
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, CommError> {
        match u8::decode(cur)? {
            0 => Ok(Distribution::Block),
            1 => Ok(Distribution::Cyclic),
            2 => Ok(Distribution::BlockCyclic(usize::decode(cur)?)),
            b => Err(CommError::Decode(format!("bad dist byte {b}"))),
        }
    }
}

#[derive(Debug, Clone)]
enum MapKind {
    /// Contiguous blocks described by `offsets` (length `P+1`): rank `r`
    /// owns global indices `offsets[r]..offsets[r+1]`. Covers both uniform
    /// and non-uniform block maps.
    Block {
        offsets: Vec<usize>,
    },
    Cyclic,
    BlockCyclic {
        block: usize,
    },
    /// Arbitrary: this rank knows only its own global ids; cross-rank owner
    /// lookup requires a [`crate::Directory`].
    Arbitrary {
        my_gids: Vec<usize>,
        gid_to_lid: HashMap<usize, usize>,
    },
}

/// A distribution of `n_global` indices over `n_ranks` ranks, as seen from
/// `my_rank`. Cheap to clone for the structured kinds.
#[derive(Debug, Clone)]
pub struct DistMap {
    n_global: usize,
    n_ranks: usize,
    my_rank: usize,
    kind: MapKind,
}

/// Start offset of rank `r`'s uniform block.
pub(crate) fn block_start(n: usize, p: usize, r: usize) -> usize {
    let q = n / p;
    let rem = n % p;
    r * q + r.min(rem)
}

impl DistMap {
    /// Uniform block map: rank `r` owns a contiguous run of
    /// `⌈n/P⌉`-or-`⌊n/P⌋` indices.
    pub fn block(n_global: usize, n_ranks: usize, my_rank: usize) -> Self {
        assert!(my_rank < n_ranks, "rank {my_rank} out of {n_ranks}");
        let offsets = (0..=n_ranks)
            .map(|r| block_start(n_global, n_ranks, r.min(n_ranks)))
            .collect::<Vec<_>>();
        DistMap {
            n_global,
            n_ranks,
            my_rank,
            kind: MapKind::Block { offsets },
        }
    }

    /// Non-uniform block map from explicit per-rank counts
    /// (`counts.len() == n_ranks`, summing to the global size).
    pub fn block_from_counts(counts: &[usize], my_rank: usize) -> Self {
        assert!(my_rank < counts.len());
        let mut offsets = Vec::with_capacity(counts.len() + 1);
        let mut acc = 0;
        offsets.push(0);
        for &c in counts {
            acc += c;
            offsets.push(acc);
        }
        DistMap {
            n_global: acc,
            n_ranks: counts.len(),
            my_rank,
            kind: MapKind::Block { offsets },
        }
    }

    /// Cyclic (round-robin) map: global index `g` lives on rank `g mod P`.
    pub fn cyclic(n_global: usize, n_ranks: usize, my_rank: usize) -> Self {
        assert!(my_rank < n_ranks);
        DistMap {
            n_global,
            n_ranks,
            my_rank,
            kind: MapKind::Cyclic,
        }
    }

    /// Block-cyclic map with blocks of `block` indices dealt round-robin.
    pub fn block_cyclic(n_global: usize, block: usize, n_ranks: usize, my_rank: usize) -> Self {
        assert!(my_rank < n_ranks);
        assert!(block > 0, "block size must be positive");
        DistMap {
            n_global,
            n_ranks,
            my_rank,
            kind: MapKind::BlockCyclic { block },
        }
    }

    /// Build a map with one of the structured [`Distribution`] patterns.
    pub fn with_distribution(
        dist: Distribution,
        n_global: usize,
        n_ranks: usize,
        my_rank: usize,
    ) -> Self {
        match dist {
            Distribution::Block => Self::block(n_global, n_ranks, my_rank),
            Distribution::Cyclic => Self::cyclic(n_global, n_ranks, my_rank),
            Distribution::BlockCyclic(b) => Self::block_cyclic(n_global, b, n_ranks, my_rank),
        }
    }

    /// Arbitrary map from this rank's global ids. Collective: validates
    /// (via an allreduce) that the pieces tile `0..n` exactly once.
    pub fn from_my_gids(comm: &Comm, my_gids: Vec<usize>) -> Self {
        let local = my_gids.len();
        let n_global = comm.allreduce(&local, comm::ReduceOp::sum());
        // Cheap distributed sanity check: XOR of all gids must equal the
        // XOR of 0..n when the gids partition the range.
        let my_xor = my_gids.iter().fold(0usize, |a, &g| a ^ g);
        let all_xor = comm.allreduce(&my_xor, |a: &usize, b: &usize| a ^ b);
        let expect_xor = (0..n_global).fold(0usize, |a, g| a ^ g);
        assert_eq!(
            all_xor, expect_xor,
            "gids do not partition 0..{n_global} (xor check failed)"
        );
        let gid_to_lid = my_gids
            .iter()
            .enumerate()
            .map(|(l, &g)| (g, l))
            .collect::<HashMap<_, _>>();
        assert_eq!(
            gid_to_lid.len(),
            my_gids.len(),
            "duplicate global id on rank {}",
            comm.rank()
        );
        DistMap {
            n_global,
            n_ranks: comm.size(),
            my_rank: comm.rank(),
            kind: MapKind::Arbitrary {
                my_gids,
                gid_to_lid,
            },
        }
    }

    /// Total number of global indices.
    pub fn n_global(&self) -> usize {
        self.n_global
    }

    /// Number of ranks the map distributes over.
    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    /// The rank this view belongs to.
    pub fn my_rank(&self) -> usize {
        self.my_rank
    }

    /// Number of indices owned by `rank`.
    fn count_on(&self, rank: usize) -> usize {
        match &self.kind {
            MapKind::Block { offsets } => offsets[rank + 1] - offsets[rank],
            MapKind::Cyclic => block_count_cyclic(self.n_global, self.n_ranks, rank),
            MapKind::BlockCyclic { block } => {
                block_cyclic_count(self.n_global, *block, self.n_ranks, rank)
            }
            MapKind::Arbitrary { my_gids, .. } => {
                assert_eq!(
                    rank, self.my_rank,
                    "arbitrary maps only know their own count; use a Directory"
                );
                my_gids.len()
            }
        }
    }

    /// Number of indices owned by this rank.
    pub fn my_count(&self) -> usize {
        self.count_on(self.my_rank)
    }

    /// Owning rank of global index `g`, when computable locally.
    /// `None` for arbitrary maps when `g` is not local (use a
    /// [`crate::Directory`]).
    pub fn owner_of(&self, g: usize) -> Option<usize> {
        assert!(g < self.n_global, "gid {g} out of range {}", self.n_global);
        match &self.kind {
            MapKind::Block { offsets } => {
                // binary search over offsets
                let r = match offsets.binary_search(&g) {
                    Ok(mut i) => {
                        // g equals an offset: it belongs to the first rank
                        // whose block starts there and is non-empty.
                        while i + 1 < offsets.len() && offsets[i + 1] == offsets[i] {
                            i += 1;
                        }
                        i
                    }
                    Err(i) => i - 1,
                };
                Some(r.min(self.n_ranks - 1))
            }
            MapKind::Cyclic => Some(g % self.n_ranks),
            MapKind::BlockCyclic { block } => Some((g / block) % self.n_ranks),
            MapKind::Arbitrary { gid_to_lid, .. } => {
                if gid_to_lid.contains_key(&g) {
                    Some(self.my_rank)
                } else {
                    None
                }
            }
        }
    }

    /// Local index of global index `g` on this rank, if owned here.
    pub fn global_to_local(&self, g: usize) -> Option<usize> {
        if g >= self.n_global {
            return None;
        }
        match &self.kind {
            MapKind::Block { offsets } => {
                let (lo, hi) = (offsets[self.my_rank], offsets[self.my_rank + 1]);
                (g >= lo && g < hi).then(|| g - lo)
            }
            MapKind::Cyclic => (g % self.n_ranks == self.my_rank).then(|| g / self.n_ranks),
            MapKind::BlockCyclic { block } => {
                let blk = g / block;
                if blk % self.n_ranks == self.my_rank {
                    Some((blk / self.n_ranks) * block + g % block)
                } else {
                    None
                }
            }
            MapKind::Arbitrary { gid_to_lid, .. } => gid_to_lid.get(&g).copied(),
        }
    }

    /// Global index of local index `l` on this rank.
    pub fn local_to_global(&self, l: usize) -> usize {
        debug_assert!(l < self.my_count(), "lid {l} out of {}", self.my_count());
        match &self.kind {
            MapKind::Block { offsets } => offsets[self.my_rank] + l,
            MapKind::Cyclic => l * self.n_ranks + self.my_rank,
            MapKind::BlockCyclic { block } => {
                let blk = l / block;
                let within = l % block;
                (blk * self.n_ranks + self.my_rank) * block + within
            }
            MapKind::Arbitrary { my_gids, .. } => my_gids[l],
        }
    }

    /// All global ids owned by this rank, in local-index order.
    pub fn my_gids(&self) -> Vec<usize> {
        (0..self.my_count())
            .map(|l| self.local_to_global(l))
            .collect()
    }

    /// The global ids this rank owns, in local-index order, as strided
    /// runs: one run for block and cyclic maps, one per owned block for
    /// block-cyclic maps, the compressed gid list for arbitrary maps.
    pub fn local_runs(&self) -> Vec<Run> {
        let (n, p, me) = (self.n_global, self.n_ranks, self.my_rank);
        match &self.kind {
            MapKind::Block { offsets } => vec![Run {
                start: offsets[me],
                step: 1,
                n: self.my_count(),
            }],
            // a block-cyclic map with blocks of one is cyclic
            MapKind::Cyclic | MapKind::BlockCyclic { block: 1 } => vec![Run {
                start: me,
                step: p,
                n: self.my_count(),
            }],
            MapKind::BlockCyclic { block } => (me * block..n)
                .step_by(p * block)
                .map(|start| Run {
                    start,
                    step: 1,
                    n: (n - start).min(*block),
                })
                .collect(),
            MapKind::Arbitrary { my_gids, .. } => compress(my_gids.iter().copied()),
        }
    }

    /// Start of this rank's block (contiguous maps only).
    pub fn my_block_start(&self) -> Option<usize> {
        match &self.kind {
            MapKind::Block { offsets } => Some(offsets[self.my_rank]),
            _ => None,
        }
    }

    /// Whether every rank's indices are contiguous and in rank order.
    pub fn is_contiguous_block(&self) -> bool {
        matches!(self.kind, MapKind::Block { .. })
    }

    /// Whether local owner lookup works for any gid (structured maps).
    pub fn has_global_view(&self) -> bool {
        !matches!(self.kind, MapKind::Arbitrary { .. })
    }

    /// Two maps are *compatible* when every rank owns the same gids in the
    /// same local order — data can be shared with no communication. Only an
    /// approximation is possible locally for arbitrary maps (it compares
    /// the local gid lists, which is exactly the property needed).
    pub fn same_as(&self, other: &DistMap) -> bool {
        if self.n_global != other.n_global
            || self.n_ranks != other.n_ranks
            || self.my_rank != other.my_rank
        {
            return false;
        }
        match (&self.kind, &other.kind) {
            (MapKind::Block { offsets: a }, MapKind::Block { offsets: b }) => a == b,
            (MapKind::Cyclic, MapKind::Cyclic) => true,
            (MapKind::BlockCyclic { block: a }, MapKind::BlockCyclic { block: b }) => a == b,
            _ => {
                self.my_count() == other.my_count()
                    && (0..self.my_count())
                        .all(|l| self.local_to_global(l) == other.local_to_global(l))
            }
        }
    }

    /// How many gids change owner between this map and `target` — the
    /// element traffic a redistribute from `self` to `target` must move.
    /// Both maps need a global owner view (structured maps); `None`
    /// otherwise, or when the maps don't describe the same index space.
    pub fn moved_count(&self, target: &DistMap) -> Option<usize> {
        if self.n_global != target.n_global
            || self.n_ranks != target.n_ranks
            || !self.has_global_view()
            || !target.has_global_view()
        {
            return None;
        }
        Some(
            (0..self.n_global)
                .filter(|&g| self.owner_of(g) != target.owner_of(g))
                .count(),
        )
    }
}

fn block_count_cyclic(n: usize, p: usize, r: usize) -> usize {
    n / p + usize::from(r < n % p)
}

fn block_cyclic_count(n: usize, block: usize, p: usize, r: usize) -> usize {
    let cycle = block * p;
    let full_cycles = n / cycle;
    let rem = n % cycle;
    let extra = rem.saturating_sub(r * block).min(block);
    full_cycles * block + extra
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_bijection(map: &DistMap) {
        for l in 0..map.my_count() {
            let g = map.local_to_global(l);
            assert_eq!(map.global_to_local(g), Some(l), "g={g} l={l}");
            assert_eq!(map.owner_of(g), Some(map.my_rank()));
        }
    }

    fn total_count(make: impl Fn(usize) -> DistMap, p: usize, n: usize) {
        let total: usize = (0..p).map(|r| make(r).my_count()).sum();
        assert_eq!(total, n);
        // and the union of gids is exactly 0..n
        let mut seen = vec![false; n];
        for r in 0..p {
            for g in make(r).my_gids() {
                assert!(!seen[g], "gid {g} owned twice");
                seen[g] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn block_partitions_exactly() {
        for (n, p) in [(10, 3), (7, 7), (3, 5), (0, 2), (100, 1), (13, 4)] {
            total_count(|r| DistMap::block(n, p, r), p, n);
            for r in 0..p {
                check_bijection(&DistMap::block(n, p, r));
            }
        }
    }

    #[test]
    fn cyclic_partitions_exactly() {
        for (n, p) in [(10, 3), (7, 7), (3, 5), (0, 2), (13, 4)] {
            total_count(|r| DistMap::cyclic(n, p, r), p, n);
            for r in 0..p {
                check_bijection(&DistMap::cyclic(n, p, r));
            }
        }
    }

    #[test]
    fn block_cyclic_partitions_exactly() {
        for (n, p, b) in [(10, 3, 2), (17, 4, 3), (8, 2, 8), (5, 3, 1), (0, 2, 4)] {
            total_count(|r| DistMap::block_cyclic(n, b, p, r), p, n);
            for r in 0..p {
                check_bijection(&DistMap::block_cyclic(n, b, p, r));
            }
        }
    }

    #[test]
    fn moved_count_measures_redistribute_traffic() {
        // Identical maps move nothing; a block→cyclic reshuffle of 12
        // elements over 3 ranks keeps exactly the gids whose block owner
        // happens to equal their cyclic owner.
        let block = DistMap::block(12, 3, 0);
        let cyclic = DistMap::cyclic(12, 3, 0);
        assert_eq!(block.moved_count(&DistMap::block(12, 3, 0)), Some(0));
        let moved = block.moved_count(&cyclic).unwrap();
        let stay = (0..12)
            .filter(|&g| block.owner_of(g) == cyclic.owner_of(g))
            .count();
        assert_eq!(moved, 12 - stay);
        assert!(moved > 0);
        // Symmetric, and off for mismatched index spaces.
        assert_eq!(cyclic.moved_count(&block), Some(moved));
        assert_eq!(block.moved_count(&DistMap::block(13, 3, 0)), None);
    }

    #[test]
    fn block_owner_lookup() {
        let map = DistMap::block(10, 3, 0);
        // counts are 4,3,3 → offsets 0,4,7,10
        assert_eq!(map.owner_of(0), Some(0));
        assert_eq!(map.owner_of(3), Some(0));
        assert_eq!(map.owner_of(4), Some(1));
        assert_eq!(map.owner_of(6), Some(1));
        assert_eq!(map.owner_of(7), Some(2));
        assert_eq!(map.owner_of(9), Some(2));
    }

    #[test]
    fn block_with_empty_ranks() {
        // n < p: some ranks own nothing.
        let p = 5;
        let n = 3;
        for r in 0..p {
            let map = DistMap::block(n, p, r);
            assert_eq!(map.my_count(), usize::from(r < 3));
        }
        let map = DistMap::block(n, p, 0);
        assert_eq!(map.owner_of(2), Some(2));
    }

    #[test]
    fn cyclic_layout_is_round_robin() {
        let map = DistMap::cyclic(10, 3, 1);
        assert_eq!(map.my_gids(), vec![1, 4, 7]);
    }

    #[test]
    fn block_cyclic_layout() {
        // n=10, b=2, p=2: blocks [0,1][2,3][4,5][6,7][8,9] dealt 0,1,0,1,0
        let map0 = DistMap::block_cyclic(10, 2, 2, 0);
        assert_eq!(map0.my_gids(), vec![0, 1, 4, 5, 8, 9]);
        let map1 = DistMap::block_cyclic(10, 2, 2, 1);
        assert_eq!(map1.my_gids(), vec![2, 3, 6, 7]);
    }

    #[test]
    fn block_from_counts_nonuniform() {
        let map = DistMap::block_from_counts(&[5, 0, 2], 2);
        assert_eq!(map.n_global(), 7);
        assert_eq!(map.my_gids(), vec![5, 6]);
        assert_eq!(map.owner_of(4), Some(0));
        assert_eq!(map.owner_of(5), Some(2));
        // the empty rank owns nothing
        let m1 = DistMap::block_from_counts(&[5, 0, 2], 1);
        assert_eq!(m1.my_count(), 0);
    }

    #[test]
    fn same_as_distinguishes_kinds() {
        let a = DistMap::block(12, 3, 1);
        let b = DistMap::block(12, 3, 1);
        let c = DistMap::cyclic(12, 3, 1);
        assert!(a.same_as(&b));
        assert!(!a.same_as(&c));
        assert!(!a.same_as(&DistMap::block(12, 4, 1)));
    }

    #[test]
    fn with_distribution_dispatches() {
        assert!(DistMap::with_distribution(Distribution::Block, 9, 3, 0).is_contiguous_block());
        assert_eq!(
            DistMap::with_distribution(Distribution::Cyclic, 9, 3, 1).my_gids(),
            vec![1, 4, 7]
        );
        assert_eq!(
            DistMap::with_distribution(Distribution::BlockCyclic(3), 9, 3, 2).my_gids(),
            vec![6, 7, 8]
        );
    }

    #[test]
    fn arbitrary_map_via_universe() {
        let out = comm::Universe::run(3, |comm| {
            // interleave oddly: rank r owns gids where g/2 % 3 == r
            let gids: Vec<usize> = (0..12).filter(|g| (g / 2) % 3 == comm.rank()).collect();
            let map = DistMap::from_my_gids(comm, gids.clone());
            assert_eq!(map.n_global(), 12);
            assert_eq!(map.my_gids(), gids);
            assert!(!map.has_global_view());
            check_bijection(&map);
            map.my_count()
        });
        assert_eq!(out, vec![4, 4, 4]);
    }

    #[test]
    #[should_panic(expected = "xor check failed")]
    fn arbitrary_map_rejects_bad_partition() {
        comm::Universe::run(2, |comm| {
            // both ranks claim gid 0
            let gids = vec![0];
            let _ = DistMap::from_my_gids(comm, gids);
        });
    }
}
