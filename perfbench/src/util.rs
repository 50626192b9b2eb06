//! Small shared helpers: medians, process memory, and the resident-set
//! sampler.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`), 0 where the
/// file does not exist.
pub fn status_kb(field: &str) -> u64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Samples this process's resident set every few milliseconds and keeps
/// the peak, so set-up work done before the timed runs (the dataset, the
/// reference) does not count.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    peak_kb: Arc<AtomicU64>,
    thread: JoinHandle<()>,
}

impl RssSampler {
    pub fn start() -> RssSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let peak_kb = Arc::new(AtomicU64::new(status_kb("VmRSS")));
        let thread = {
            let (stop, peak_kb) = (Arc::clone(&stop), Arc::clone(&peak_kb));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    peak_kb.fetch_max(status_kb("VmRSS"), Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
        };
        RssSampler {
            stop,
            peak_kb,
            thread,
        }
    }

    /// Stop sampling and return the peak in kB.
    pub fn finish(self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("rss sampler thread panicked");
        self.peak_kb.load(Ordering::Relaxed)
    }
}
