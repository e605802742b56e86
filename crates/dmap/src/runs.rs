//! Strided runs: an index sequence described as `(start, step, n)` triples
//! instead of one entry per index, and the bulk typed copies that execute
//! them. Every structured [`crate::DistMap`] is a handful of runs per rank, and so
//! is the route between two of them, so data-movement plans built on runs
//! are O(runs) in memory and move whole segments with `copy_from_slice`.
//!
//! Indices are in units of a caller-chosen `width` (elements per index),
//! the blocklength of an MPI vector type: a 2-D array routed by rows uses
//! row indices with `width` = row length.

/// The indices `start, start + step, …` (`n` of them). `step ≥ 1`; it
/// carries no meaning when `n ≤ 1`, and neither does `start` when `n = 0`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Run {
    /// First index.
    pub start: usize,
    /// Distance between consecutive indices.
    pub step: usize,
    /// Number of indices.
    pub n: usize,
}

impl Run {
    /// The indices of the run, in order.
    pub fn indices(self) -> impl Iterator<Item = usize> {
        (0..self.n).map(move |k| self.start + k * self.step)
    }

    /// The part of the run whose indices fall in `lo..hi`: how many
    /// leading indices were skipped, and the remaining sub-run.
    pub fn clip(self, lo: usize, hi: usize) -> (usize, Run) {
        let skip = lo
            .saturating_sub(self.start)
            .div_ceil(self.step)
            .min(self.n);
        let start = self.start + skip * self.step;
        let n = hi
            .saturating_sub(start)
            .div_ceil(self.step)
            .min(self.n - skip);
        (skip, Run { start, n, ..self })
    }
}

/// Append index `i` to a run list, extending the last run when `i`
/// continues it (greedy: the first two indices of a run fix its step).
/// Expanding the list always reproduces the pushed sequence exactly;
/// only increasing continuations compress.
pub fn push_index(runs: &mut Vec<Run>, i: usize) {
    if let Some(last) = runs.last_mut() {
        if last.n == 1 && i > last.start {
            last.step = i - last.start;
            last.n = 2;
            return;
        }
        if last.n >= 2 && i == last.start + last.n * last.step {
            last.n += 1;
            return;
        }
    }
    runs.push(Run {
        start: i,
        step: 1,
        n: 1,
    });
}

/// Run-compress an index sequence.
pub fn compress(indices: impl IntoIterator<Item = usize>) -> Vec<Run> {
    let mut runs = Vec::new();
    for i in indices {
        push_index(&mut runs, i);
    }
    runs
}

/// Total number of indices in a run list.
pub fn run_len(runs: &[Run]) -> usize {
    runs.iter().map(|r| r.n).sum()
}

/// `src[i·width .. (i+1)·width]` for every index `i` of `runs`, in order.
pub fn gather_runs<T: Copy>(src: &[T], runs: &[Run], width: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(run_len(runs) * width);
    for r in runs.iter().filter(|r| r.n > 0) {
        if r.step == 1 || r.n == 1 {
            out.extend_from_slice(&src[r.start * width..(r.start + r.n) * width]);
        } else if width == 1 {
            out.extend(src[r.start..].iter().step_by(r.step).take(r.n));
        } else {
            for i in r.indices() {
                out.extend_from_slice(&src[i * width..(i + 1) * width]);
            }
        }
    }
    out
}

/// Copy between two run lists of equal total length, in order: the `k`-th
/// index of `src_runs` (in `src`) lands on the `k`-th index of `dst_runs`
/// (in `dst`), `width` elements per index. Stretches where both sides are
/// contiguous are single `copy_from_slice` calls.
pub fn copy_runs<T: Copy>(
    dst: &mut [T],
    dst_runs: &[Run],
    src: &[T],
    src_runs: &[Run],
    width: usize,
) {
    assert_eq!(run_len(dst_runs), run_len(src_runs), "run length mismatch");
    let mut src_runs = src_runs.iter().filter(|r| r.n > 0);
    let (mut s, mut s_done) = (Run::default(), 0);
    for d in dst_runs {
        let mut d_done = 0;
        while d_done < d.n {
            if s_done == s.n {
                s = *src_runs.next().expect("lengths were checked equal");
                s_done = 0;
            }
            let m = (d.n - d_done).min(s.n - s_done);
            let d0 = d.start + d_done * d.step;
            let s0 = s.start + s_done * s.step;
            if m == 1 || (d.step == 1 && s.step == 1) {
                dst[d0 * width..(d0 + m) * width]
                    .copy_from_slice(&src[s0 * width..(s0 + m) * width]);
            } else if width == 1 {
                let from = src[s0..].iter().step_by(s.step);
                for (to, v) in dst[d0..].iter_mut().step_by(d.step).zip(from).take(m) {
                    *to = *v;
                }
            } else {
                for k in 0..m {
                    let (to, from) = ((d0 + k * d.step) * width, (s0 + k * s.step) * width);
                    dst[to..to + width].copy_from_slice(&src[from..from + width]);
                }
            }
            d_done += m;
            s_done += m;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DistMap;
    use obs::SplitMix64;

    fn expand(runs: &[Run]) -> Vec<usize> {
        runs.iter().flat_map(|r| r.indices()).collect()
    }

    #[test]
    fn expanding_the_runs_reproduces_any_sequence() {
        let mut rng = SplitMix64::new(0x5eed_0013);
        for case in 0..300 {
            // a mix of stretches (compressible) and noise (not)
            let mut seq = Vec::new();
            for _ in 0..rng.gen_index(8) {
                let (start, step, n) = (rng.gen_index(50), rng.gen_index(5), rng.gen_index(7));
                seq.extend((0..n).map(|k| start + k * step));
                seq.extend((0..rng.gen_index(3)).map(|_| rng.gen_index(50)));
            }
            let runs = compress(seq.iter().copied());
            assert_eq!(expand(&runs), seq, "case {case}");
            assert_eq!(run_len(&runs), seq.len());
            assert!(runs.iter().all(|r| r.n >= 1 && r.step >= 1), "case {case}");
            // gather then scatter through the runs is the identity on the
            // selected positions when they are distinct
            let mut distinct = seq.clone();
            distinct.sort_unstable();
            distinct.dedup();
            let runs = compress(distinct.iter().copied());
            for width in [1, 3] {
                let src: Vec<u64> = (0..80 * width as u64).map(|v| v * 7 + 1).collect();
                let picked = gather_runs(&src, &runs, width);
                let want: Vec<u64> = (distinct.iter())
                    .flat_map(|&i| src[i * width..(i + 1) * width].to_vec())
                    .collect();
                assert_eq!(picked, want, "case {case} width {width}");
                let mut back = vec![0u64; src.len()];
                let packed = [Run {
                    start: 0,
                    step: 1,
                    n: distinct.len(),
                }];
                copy_runs(&mut back, &runs, &picked, &packed, width);
                for (i, (&b, &s)) in back.iter().zip(&src).enumerate() {
                    let chosen = distinct.contains(&(i / width));
                    assert_eq!(b, if chosen { s } else { 0 }, "case {case} lane {i}");
                }
            }
        }
    }

    #[test]
    fn degenerate_sequences() {
        assert!(compress([]).is_empty());
        assert_eq!(gather_runs(&[1, 2, 3], &[], 1), Vec::<i32>::new());
        let one = compress([4]);
        assert_eq!(
            one,
            vec![Run {
                start: 4,
                step: 1,
                n: 1
            }]
        );
        assert_eq!(gather_runs(&[0, 1, 2, 3, 9], &one, 1), vec![9]);
        // an empty run may name a start past the end (an empty rank's block)
        let empty = [Run {
            start: 99,
            step: 4,
            n: 0,
        }];
        assert!(gather_runs(&[1.0, 2.0], &empty, 1).is_empty());
        copy_runs(&mut [1.0, 2.0], &empty, &[], &[], 2);
        // repeats and descents never merge
        assert_eq!(compress([3, 3, 3]).len(), 3);
        assert_eq!(expand(&compress([5, 4, 3])), vec![5, 4, 3]);
    }

    #[test]
    fn clip_keeps_the_indices_inside_the_window() {
        let mut rng = SplitMix64::new(77);
        for _ in 0..500 {
            let r = Run {
                start: rng.gen_index(20),
                step: 1 + rng.gen_index(4),
                n: rng.gen_index(9),
            };
            let lo = rng.gen_index(40);
            let hi = lo + rng.gen_index(20);
            let (skip, sub) = r.clip(lo, hi);
            let want: Vec<usize> = r.indices().filter(|i| (lo..hi).contains(i)).collect();
            assert_eq!(
                sub.indices().collect::<Vec<_>>(),
                want,
                "{r:?} in {lo}..{hi}"
            );
            if !want.is_empty() {
                assert_eq!(r.indices().nth(skip), Some(want[0]));
            }
        }
    }

    #[test]
    fn local_runs_expand_to_my_gids() {
        for p in 1..=8 {
            for n in [0, 1, p - 1, p, 63, 64, 65, 1000] {
                for r in 0..p {
                    let maps = [
                        DistMap::block(n, p, r),
                        DistMap::cyclic(n, p, r),
                        DistMap::block_cyclic(n, 1, p, r),
                        DistMap::block_cyclic(n, 3, p, r),
                        DistMap::block_cyclic(n, 64, p, r),
                    ];
                    for map in &maps {
                        assert_eq!(expand(&map.local_runs()), map.my_gids(), "{map:?}");
                    }
                    // one run, except one per owned block when block-cyclic
                    assert!(maps[..3].iter().all(|m| m.local_runs().len() == 1));
                    assert_eq!(maps[4].local_runs().len(), maps[4].my_count().div_ceil(64));
                }
            }
        }
    }

    /// The per-peer send runs of a redistribute from `src` to `dst` as
    /// `odin::slicing` builds them: my local rows, in order, by new owner.
    fn send_runs(src: &DistMap, dst: &DistMap) -> Vec<Vec<Run>> {
        let mut send = vec![Vec::new(); src.n_ranks()];
        for l in 0..src.my_count() {
            let to = dst.owner_of(src.local_to_global(l)).unwrap();
            push_index(&mut send[to], l);
        }
        send
    }

    #[test]
    fn structured_routes_compress_to_few_runs() {
        let n = 1 << 20;
        let total = |routes: &[Vec<Run>]| routes.iter().map(Vec::len).sum::<usize>();
        for r in 0..2 {
            let block = DistMap::block(n, 2, r);
            let cyclic = DistMap::cyclic(n, 2, r);
            let bc = DistMap::block_cyclic(n, 64, 2, r);
            // Block <-> Cyclic on two ranks: one strided run per peer
            let there = send_runs(&block, &cyclic);
            let back = send_runs(&cyclic, &block);
            assert_eq!((total(&there), total(&back)), (2, 2));
            let bytes = (total(&there) + total(&back)) * std::mem::size_of::<Run>();
            assert!(bytes < 4096, "a 2^20-lane plan stays under a few KiB");
            // Cyclic -> BlockCyclic(64): 32 of my rows per 64-row block
            assert_eq!(total(&send_runs(&cyclic, &bc)), n / 64);
            assert!(total(&send_runs(&cyclic, &bc)) <= n / 32);
            // and the way back is again one strided run per peer
            assert_eq!(total(&send_runs(&bc, &cyclic)), 2);
        }
    }
}
