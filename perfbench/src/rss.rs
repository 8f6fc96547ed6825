//! Resident memory sampled while a workload is measured.
//!
//! The process's whole-run high-water mark is set by whichever cells
//! happen to peak at the same moment on different `GridRun` threads, so
//! it moves by a fifth between identical runs. `peak_rss_mb` is instead
//! the median, over one-second windows, of the largest resident size
//! sampled in each window.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const INTERVAL: Duration = Duration::from_millis(5);

/// `VmRSS` of this process, in MiB.
fn current_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

pub struct RssSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<(f64, f64)>>,
}

impl RssSampler {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let start = Instant::now();
            let mut samples = Vec::new();
            // The flag publishes no other data, so Relaxed suffices.
            while !flag.load(Ordering::Relaxed) {
                if let Some(mb) = current_rss_mb() {
                    samples.push((start.elapsed().as_secs_f64(), mb));
                }
                std::thread::sleep(INTERVAL);
            }
            samples
        });
        RssSampler { stop, handle }
    }

    /// Stops sampling and returns the median over `window`-second
    /// windows of each window's largest sample, with the window count.
    pub fn finish(self, window: f64) -> (f64, usize) {
        self.stop.store(true, Ordering::Relaxed);
        let samples = self.handle.join().expect("RSS sampler thread");
        let mut peaks: Vec<f64> = Vec::new();
        for &(t, mb) in &samples {
            let w = (t / window) as usize;
            if peaks.len() <= w {
                peaks.resize(w + 1, f64::NAN);
            }
            // `max` ignores the NaN of a window with no sample yet.
            peaks[w] = peaks[w].max(mb);
        }
        peaks.retain(|p| !p.is_nan());
        (crate::stats::summarize(&peaks).median, peaks.len())
    }
}
