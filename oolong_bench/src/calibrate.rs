//! Machine-speed calibration.
//!
//! The benchmark was sized on a shared two-core machine whose speed
//! drifts as other tenants load its memory system: over minutes the same
//! paper pass timed anywhere from 174 ms to 295 ms, and single-threaded
//! checking slowed by up to 1.75× within one run. No amount of work per
//! run steadies a median against that, so every time the benchmark
//! reports is divided by the machine's *slowdown*, measured with a fixed
//! reference computation at both ends of the timed interval.
//!
//! The reference uses none of the code under test: it fills a hash map
//! with 2^18 random keys, which allocates, faults pages in, hashes, and
//! scatters writes over a few MiB, like the checker's term arena and
//! E-graph. It runs in a fresh child process (`oolong_bench reference`),
//! so the heap a workload leaves behind cannot change it. Of the
//! references tried — pointer chases through 64 KiB, 4 MiB, and 32 MiB
//! cycles, an ordered-map build, pure arithmetic, and this one in-process
//! — it tracked checking closest: over four minutes of a loaded machine,
//! raw paper-pass medians per 15 s window ranged 249–354 ms while their
//! ratio to the reference stayed within 9.9–11.6. Raw times are printed
//! beside the normalized ones.

use crate::inputs::SplitMix;
use crate::measure::median;
use std::collections::HashMap;
use std::process::Command;
use std::time::{Duration, Instant};

/// The reference's time in quiet periods of the machine the bounds were
/// set on (2 vCPUs of an Intel Xeon), in milliseconds. A normalized time
/// reads as the time that machine takes when quiet.
pub const NOMINAL_MS: f64 = 24.0;

/// Timed work between two reference runs, at least.
const LAP: Duration = Duration::from_millis(500);

/// Runs the reference computation once in this process; returns its wall
/// time in milliseconds.
pub fn reference_ms() -> f64 {
    let start = Instant::now();
    let mut rng = SplitMix::new(0x5eed);
    let mut map = HashMap::new();
    for i in 0..(1u64 << 18) {
        map.insert(rng.next_u64(), i);
    }
    std::hint::black_box(map.len());
    start.elapsed().as_secs_f64() * 1_000.0
}

/// Runs the reference in a fresh child process of this binary.
fn reference_in_child() -> f64 {
    let measured = std::env::current_exe()
        .ok()
        .and_then(|exe| Command::new(exe).arg("reference").output().ok())
        .and_then(|out| String::from_utf8_lossy(&out.stdout).trim().parse().ok());
    measured.expect("the reference child prints its time")
}

/// Measures the slowdown of consecutive intervals: each interval's
/// slowdown is the mean reference time at its two ends over
/// [`NOMINAL_MS`].
#[derive(Debug)]
pub struct Speedometer {
    last_ms: f64,
    opened: Instant,
    slowdowns: Vec<f64>,
}

impl Speedometer {
    /// Opens the first interval.
    pub fn start() -> Speedometer {
        Speedometer {
            last_ms: reference_in_child(),
            opened: Instant::now(),
            slowdowns: Vec::new(),
        }
    }

    /// Whether the open interval holds enough work to close.
    pub fn due(&self) -> bool {
        self.opened.elapsed() >= LAP
    }

    /// Closes the open interval, opens the next, and returns the closed
    /// interval's slowdown.
    pub fn lap(&mut self) -> f64 {
        let now_ms = reference_in_child();
        let slowdown = (self.last_ms + now_ms) / (2.0 * NOMINAL_MS);
        self.last_ms = now_ms;
        self.opened = Instant::now();
        self.slowdowns.push(slowdown);
        slowdown
    }

    /// Every closed interval's slowdown.
    pub fn slowdowns(&self) -> &[f64] {
        &self.slowdowns
    }
}

/// The slowdown now: the median of five reference runs over
/// [`NOMINAL_MS`]. Take it while nothing else of the benchmark runs.
pub fn slowdown_now() -> f64 {
    let runs: Vec<f64> = (0..5).map(|_| reference_in_child()).collect();
    median(&runs) / NOMINAL_MS
}
