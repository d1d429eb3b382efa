//! Keeps the host's CPUs from idling while a run measures.
//!
//! On the build host (a 2-vCPU VM) an idle virtual CPU is halted, and
//! waking it goes through the hypervisor: a wake-up that costs
//! microseconds in one minute costs milliseconds in the next. Every
//! workload here sleeps and wakes constantly (1 ms mesh ticks, round
//! barriers, the open-loop generator), so that cost decided the
//! run-to-run spread: ten `dkg_n16` runs spread 27 % without this
//! module and 4 % with it, for the same median.
//!
//! The remedy is the one latency benchmarks use on bare metal (disable
//! deep C-states): one spinning thread per CPU in the `SCHED_IDLE`
//! class, which the kernel runs only when nothing else wants the CPU.
//! The spinners are not free (`README.md` says what they cost), so
//! every run has them: a host that cannot provide them fails the run
//! instead of measuring in a second regime.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// The spinner threads; stopped and joined on drop.
pub struct AwakeCpus {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

/// Moves the calling thread into the `SCHED_IDLE` class. The standard
/// library has no call for it, so this binds the C library's, as
/// `net::ready` binds `poll`. No privilege is needed to lower oneself.
#[cfg(target_os = "linux")]
fn demote_to_idle_class() -> Result<(), String> {
    const SCHED_IDLE: i32 = 5;
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` outlives the call, which only reads it; pid 0
    // names the calling thread.
    if unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched_setscheduler(SCHED_IDLE): {}",
            std::io::Error::last_os_error()
        ))
    }
}

#[cfg(not(target_os = "linux"))]
fn demote_to_idle_class() -> Result<(), String> {
    Err("SCHED_IDLE is a Linux scheduling class".into())
}

impl AwakeCpus {
    /// Starts one idle-class spinner per available CPU; an error when
    /// any of them cannot demote itself (at normal priority it would
    /// take a CPU from the system under test).
    pub fn start() -> Result<AwakeCpus, String> {
        let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
        let mut awake = AwakeCpus {
            stop: Arc::new(AtomicBool::new(false)),
            threads: Vec::new(),
        };
        let (demoted_tx, demoted) = mpsc::channel();
        for _ in 0..cpus {
            let stop = Arc::clone(&awake.stop);
            let demoted_tx = demoted_tx.clone();
            awake.threads.push(std::thread::spawn(move || {
                let outcome = demote_to_idle_class();
                let spin = outcome.is_ok();
                // The receiver outlives every spinner's report.
                let _ = demoted_tx.send(outcome);
                // The flag publishes nothing else.
                while spin && !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            }));
        }
        for _ in 0..cpus {
            // On an error `awake` drops here, which stops the spinners
            // that did start.
            demoted
                .recv()
                .map_err(|_| "a spinner thread died".to_string())?
                .map_err(|e| format!("cannot keep the CPUs awake: {}", e))?;
        }
        Ok(awake)
    }
}

impl Drop for AwakeCpus {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            // A spinner has nothing to fail at.
            let _ = thread.join();
        }
    }
}
