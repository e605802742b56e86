//! Shared helpers for the experiment harness.
//!
//! `experiments` (one table-driven binary, `--list` / `--only e09,e17` /
//! `--gate`) regenerates the modeled LogGP tables the paper's scaling
//! claims need and runs the wall-ratio gates that cannot live in
//! `cargo test`; every other experiment gate is a tier-1 test (see
//! EXPERIMENTS.md). Wall-clock measurement belongs to the repo benchmark
//! (`benchmark/`), not here.

use std::time::Instant;

pub mod fixtures;

/// Time a closure, returning (result, seconds).
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Best-of-`reps` wall time, seconds.
pub fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let (_, t) = timed(&mut f);
        best = best.min(t);
    }
    best
}

/// Print an experiment header.
pub fn header(id: &str, title: &str, claim: &str) {
    println!("================================================================");
    println!("{id}: {title}");
    println!("paper claim: {claim}");
    println!("================================================================");
}

/// Format seconds human-readably.
pub fn fmt_s(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_helpers() {
        let (v, t) = timed(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(t >= 0.0);
        let b = best_of(3, || std::hint::black_box(1 + 1));
        assert!(b >= 0.0);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_s(2.0), "2.00s");
        assert_eq!(fmt_s(0.002), "2.00ms");
        assert_eq!(fmt_s(0.0000005), "0.5us");
    }
}
