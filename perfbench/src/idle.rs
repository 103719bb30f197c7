//! Keeps the machine's CPUs from idling while a run lasts.
//!
//! On a virtual machine a CPU that goes idle is handed back to the host,
//! and waking it again (a request reaching the server thread, an answer
//! reaching the client) waits until the host runs it once more. That
//! delay follows the load of the host's other guests, not the program:
//! on a 2-vCPU guest, `paths_paper` with idle CPUs saw 4–24% of its CPU
//! time stolen and a `req_p90_us` of 0.57–1.7 ms, and with the CPUs kept
//! busy 0.7% and 0.49 ms. One busy thread per CPU in the lowest
//! scheduling class, `SCHED_IDLE`, keeps every CPU running: any other
//! thread that wakes preempts it at once, and it only gets CPU time that
//! no other thread wants. It is the per-run counterpart of booting with
//! `idle=poll`; the client itself still blocks on its sockets.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// `SCHED_IDLE` in Linux's `<sched.h>`.
const SCHED_IDLE: i32 = 5;

/// Moves the calling thread to `SCHED_IDLE`.
fn lowest_class() -> bool {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a valid `struct sched_param` that outlives the
    // call; pid 0 names the calling thread.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

/// The busy threads; dropping this stops and joins them.
pub struct Spinners {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Spinners {
    /// One `SCHED_IDLE` busy thread per CPU this process may use. A
    /// thread that cannot enter `SCHED_IDLE` exits at once rather than
    /// compete with the program; the note says how many run.
    pub fn start() -> (Spinners, String) {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let stop = Arc::new(AtomicBool::new(false));
        let (ready, entered) = mpsc::channel();
        let threads = (0..cpus)
            .map(|_| {
                let stop = Arc::clone(&stop);
                let ready = ready.clone();
                std::thread::spawn(move || {
                    let ok = lowest_class();
                    let _ = ready.send(ok);
                    drop(ready);
                    while ok && !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        drop(ready);
        let running = entered.iter().filter(|&ok| ok).count();
        let note = format!("idle spinners: {running} of {cpus} CPUs kept busy at SCHED_IDLE");
        (Spinners { stop, threads }, note)
    }
}

impl Drop for Spinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}
