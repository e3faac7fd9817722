//! Host conditioning: keep the vCPUs out of the hypervisor's halt path.
//!
//! The pool parks its workers between launches, and the serving path
//! launches every tick. On a virtual machine a vCPU with nothing to run
//! executes HLT and the host may deschedule it; whether the next futex
//! wake then costs 5 µs or 100 µs depends on the host's adaptive halt
//! polling, which changes state from minute to minute. Without this
//! module ten runs of `stack_serve`, `decode_swarm` or `evict_churn`
//! spread 11–23 % (quartile distance over median); with it, 5–12 %: the
//! README has the table. One `SCHED_IDLE` spinner per CPU keeps every
//! vCPU running, as the other tenants of a loaded serving box would: the
//! guest scheduler preempts a spinner the moment any normal thread
//! becomes runnable, so the spinners take time only from the idle loop.

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

/// Linux `SCHED_IDLE`: runs only when nothing else wants the CPU.
const SCHED_IDLE: i32 = 5;

/// The running spinners; dropping the guard stops and joins them.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
    /// Spinners that got the idle class. The rest exited at once: without
    /// the class a spinner would compete with the benchmark for its CPU.
    /// Reported in the fingerprint and as `host.idle_spinners`, because
    /// runs with and without spinners do not compare.
    pub active: usize,
}

impl KeepAwake {
    pub fn start(cpus: usize) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let (got_class, classes) = mpsc::channel();
        let handles = (0..cpus)
            .map(|_| {
                let (stop, got_class) = (stop.clone(), got_class.clone());
                std::thread::spawn(move || {
                    let param = SchedParam { sched_priority: 0 };
                    // SAFETY: `param` is a valid sched_param for the
                    // duration of the call; pid 0 names the calling thread.
                    let idle = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } == 0;
                    let _ = got_class.send(idle);
                    while idle && !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        let active = classes.iter().take(cpus).filter(|&idle| idle).count();
        KeepAwake {
            stop,
            handles,
            active,
        }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}
