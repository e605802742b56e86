//! Distributed file IO (§III-H): every worker writes/reads its own chunk
//! in parallel; the master only touches a small header. Files round-trip
//! across different worker counts because chunks are keyed by global row
//! ids (stored as strided runs), "full control to read or write any
//! arbitrary distributed file format".

use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use dmap::Run;

use crate::array::DistArray;
use crate::buffer::Buffer;
use crate::context::OdinContext;
use crate::protocol::ArrayMeta;

fn header_path(base: &Path) -> PathBuf {
    base.with_extension("odin")
}

fn part_path(base: &Path, rank: usize) -> PathBuf {
    base.with_extension(format!("part{rank}"))
}

/// One chunk file: the global rows it holds as `(start, step, n)` runs,
/// and the rows themselves in that order.
type Chunk = (Vec<(usize, usize, usize)>, Buffer);

impl OdinContext {
    /// Save an array: one header (master) plus one chunk file per worker,
    /// written concurrently by the workers themselves.
    pub fn save(&self, arr: &DistArray<'_>, base: impl AsRef<Path>) -> std::io::Result<()> {
        let base: PathBuf = base.as_ref().to_path_buf();
        let meta = arr.meta();
        // header: meta + part count
        {
            let mut f = std::fs::File::create(header_path(&base))?;
            let payload = comm::encode_to_vec(&(
                meta.shape.clone(),
                match meta.dist {
                    crate::protocol::Dist::Block => 0u64,
                    crate::protocol::Dist::Cyclic => 1,
                    crate::protocol::Dist::BlockCyclic(b) => 2 + b as u64,
                },
                self.n_workers(),
            ));
            f.write_all(&payload)?;
        }
        let base2 = base.clone();
        self.run_spmd(&[arr], move |scope, args| {
            let id = args[0];
            let map = scope.axis_map(id);
            let rows = map.local_runs().into_iter().map(|r| (r.start, r.step, r.n));
            let chunk: Chunk = (rows.collect(), scope.local(id).clone());
            let payload = comm::encode_to_vec(&chunk);
            let path = part_path(&base2, scope.rank());
            std::fs::write(path, payload).expect("chunk write failed");
        });
        Ok(())
    }

    /// Load an array saved by [`Self::save`], with any worker count: each
    /// worker scans the chunk files and keeps the rows it owns under a
    /// block distribution.
    pub fn load(&self, base: impl AsRef<Path>) -> std::io::Result<DistArray<'_>> {
        let base: PathBuf = base.as_ref().to_path_buf();
        let mut bytes = Vec::new();
        std::fs::File::open(header_path(&base))?.read_to_end(&mut bytes)?;
        let (shape, _dist_code, n_parts): (Vec<usize>, u64, usize) =
            comm::decode_from_slice(&bytes)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        // probe one chunk for the dtype
        let probe = std::fs::read(part_path(&base, 0))?;
        let (_, probe_buf): Chunk = comm::decode_from_slice(&probe)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let dtype = probe_buf.dtype();
        let out = self.zeros(&shape, dtype);
        let meta: ArrayMeta = out.meta();
        let slab = meta.slab();
        let base2 = base.clone();
        self.run_spmd(&[&out], move |scope, args| {
            let id = args[0];
            let map = scope.axis_map(id);
            // the loaded array is block-distributed: this worker keeps
            // the rows `lo..hi`
            let lo = map.my_block_start().expect("block map");
            let hi = lo + map.my_count();
            let mut parts: Vec<usize> = (0..n_parts).collect();
            // stagger the scan so workers do not all hit part 0 first
            parts.rotate_left(scope.rank() % n_parts.max(1));
            for p in parts {
                let bytes = std::fs::read(part_path(&base2, p)).expect("chunk read failed");
                let (rows, buf): Chunk =
                    comm::decode_from_slice(&bytes).expect("bad chunk encoding");
                let dst = scope.local_mut(id);
                let mut at = 0;
                for (start, step, n) in rows {
                    // the part of this run that falls in my block
                    let (skip, mine) = Run { start, step, n }.clip(lo, hi);
                    let from = Run {
                        start: at + skip,
                        step: 1,
                        n: mine.n,
                    };
                    let to = Run {
                        start: mine.start.saturating_sub(lo),
                        ..mine
                    };
                    dst.copy_runs(&[to], &buf, &[from], slab);
                    at += n;
                }
            }
        });
        Ok(out)
    }
}

/// Remove the files created by [`OdinContext::save`].
pub fn remove_saved(base: impl AsRef<Path>, n_parts: usize) {
    let base = base.as_ref();
    let _ = std::fs::remove_file(header_path(base));
    for r in 0..n_parts {
        let _ = std::fs::remove_file(part_path(base, r));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::DType;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("odin_io_{}_{}", std::process::id(), name));
        p
    }

    #[test]
    fn roundtrip_same_worker_count() {
        let base = tmp("same");
        let ctx = OdinContext::with_workers(3);
        let x = ctx.random(&[20], 9);
        let orig = x.to_vec();
        ctx.save(&x, &base).unwrap();
        let y = ctx.load(&base).unwrap();
        assert_eq!(y.to_vec(), orig);
        remove_saved(&base, 3);
    }

    #[test]
    fn roundtrip_across_worker_counts() {
        let base = tmp("cross");
        let orig = {
            let ctx = OdinContext::with_workers(4);
            let x = ctx.random(&[25], 13);
            ctx.save(&x, &base).unwrap();
            x.to_vec()
        };
        {
            let ctx = OdinContext::with_workers(2);
            let y = ctx.load(&base).unwrap();
            assert_eq!(y.to_vec(), orig);
        }
        remove_saved(&base, 4);
    }

    #[test]
    fn integer_arrays_roundtrip() {
        let base = tmp("ints");
        let ctx = OdinContext::with_workers(2);
        let x = ctx.arange(15);
        ctx.save(&x, &base).unwrap();
        let y = ctx.load(&base).unwrap();
        assert_eq!(y.dtype(), DType::I64);
        assert_eq!(y.to_vec_i64(), x.to_vec_i64());
        remove_saved(&base, 2);
    }

    #[test]
    fn two_d_arrays_roundtrip() {
        let base = tmp("twod");
        let ctx = OdinContext::with_workers(3);
        let x = ctx.random(&[6, 5], 21);
        let orig = x.to_vec();
        ctx.save(&x, &base).unwrap();
        let y = ctx.load(&base).unwrap();
        assert_eq!(y.shape(), vec![6, 5]);
        assert_eq!(y.to_vec(), orig);
        remove_saved(&base, 3);
    }
}
