//! Keeps the guest's CPUs from halting while a workload runs.
//!
//! This host is a small guest on a shared machine. When a guest CPU has
//! nothing to run it halts, and the next wake-up of a thread parked
//! there has to go through the *host's* scheduler first: how long that
//! takes depends on what the neighbours are doing, and it moved the
//! hand-off-heavy workloads (`cg_poisson2d`, `odin_shuffle`, `serve_mix`)
//! by 20-50 % for minutes at a time while `odin_kernel`, which hardly
//! ever parks, stood still. One `SCHED_IDLE` thread spinning on each CPU
//! is the in-guest equivalent of booting with `idle=poll`: the CPU never
//! halts, and since any normal thread pre-empts a `SCHED_IDLE` one at
//! once, the spinners take no time from the program under test.
//!
//! The spinners belong to the wrapper process, not to the child that
//! runs the workload, so the child's CPU time and memory stay its own.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

const SCHED_IDLE: i32 = 5;
/// `cpu_set_t` of glibc: 1024 bits.
const MASK_WORDS: usize = 16;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// The CPUs this thread may run on.
fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Pin the calling thread to `cpu` and drop it to `SCHED_IDLE`. False if
/// the kernel refused either: such a thread must not spin.
fn pin_and_idle(cpu: usize) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: both pointers are to live values of the layout the calls
    // expect (a 128-byte CPU mask with its size, a `struct sched_param`
    // whose only Linux member is the priority); pid 0 names the calling
    // thread, so no other thread's scheduling is touched.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0
            && sched_setscheduler(0, SCHED_IDLE, &param) == 0
    }
}

/// One idle-priority spinner per allowed CPU, from `start` until drop.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinners: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let spinners = allowed_cpus()
            .into_iter()
            .map(|cpu| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    if !pin_and_idle(cpu) {
                        eprintln!("cpu {cpu}: no SCHED_IDLE spinner (the kernel refused); this CPU may halt");
                        return;
                    }
                    // the flag publishes nothing else
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        KeepAwake { stop, spinners }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for spinner in self.spinners.drain(..) {
            // a spinner has nothing to panic about, and Drop must not
            let _ = spinner.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spinners_start_on_the_allowed_cpus_and_stop_on_drop() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty(), "this thread runs somewhere");
        let guard = KeepAwake::start();
        assert_eq!(guard.spinners.len(), cpus.len());
        // normal threads still get the CPUs at once
        let t = std::time::Instant::now();
        let sum: u64 = std::thread::spawn(|| (0..1_000_000u64).sum())
            .join()
            .unwrap();
        assert_eq!(sum, 499_999_500_000);
        assert!(t.elapsed().as_secs() < 5);
        drop(guard); // joins: would hang if a spinner ignored the flag
                     // the test thread itself was left alone
        assert_eq!(allowed_cpus(), cpus);
    }
}
