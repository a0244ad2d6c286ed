//! Minimal self-timing harness behind the `harness = false` benchmark
//! binaries (formerly criterion-based). No statistics machinery: each
//! benchmark auto-calibrates an iteration count, takes the best of a few
//! measurement rounds, and prints one `group/name  time/iter` line —
//! enough to catch order-of-magnitude regressions by eye or by diffing
//! runs, with zero external dependencies.
//!
//! ```no_run
//! use parrot_bench::microbench::bench;
//!
//! bench("json", "parse_report", || {
//!     parrot_telemetry::json::parse("{\"cycles\":800}").unwrap()
//! });
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Minimum measured wall-time per round; the iteration count doubles until
/// a round takes at least this long.
const MIN_ROUND: Duration = Duration::from_millis(20);

/// Measurement rounds after calibration; the fastest is reported.
const ROUNDS: u32 = 3;

/// Time `f` and print one result line. The closure's return value is
/// routed through [`black_box`] so the work cannot be optimized away.
pub fn bench<T>(group: &str, name: &str, mut f: impl FnMut() -> T) {
    let mut iters: u64 = 1;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let dt = t0.elapsed();
        if dt >= MIN_ROUND || iters >= 1 << 30 {
            let mut best = dt;
            for _ in 1..ROUNDS {
                let t0 = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                best = best.min(t0.elapsed());
            }
            report(group, name, best, iters);
            return;
        }
        iters *= 2;
    }
}

/// Like [`bench()`], but each iteration consumes a fresh value from `setup`,
/// whose cost is excluded from the measurement. Per-iteration timing adds
/// ~tens of ns of `Instant` overhead, so reserve this for bodies that take
/// microseconds or more (simulation, optimization, stream generation).
pub fn bench_with_setup<S, T>(
    group: &str,
    name: &str,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(S) -> T,
) {
    let mut iters: u64 = 1;
    loop {
        let mut busy = Duration::ZERO;
        for _ in 0..iters {
            let input = setup();
            let t0 = Instant::now();
            black_box(f(input));
            busy += t0.elapsed();
        }
        if busy >= MIN_ROUND || iters >= 1 << 30 {
            let mut best = busy;
            for _ in 1..ROUNDS {
                let mut busy = Duration::ZERO;
                for _ in 0..iters {
                    let input = setup();
                    let t0 = Instant::now();
                    black_box(f(input));
                    busy += t0.elapsed();
                }
                best = best.min(busy);
            }
            report(group, name, best, iters);
            return;
        }
        iters *= 2;
    }
}

/// Time `f` exactly like [`bench()`] — auto-calibrated iteration count,
/// best of a few rounds — but return the best per-iteration time instead
/// of printing a line.
pub fn measure<T>(mut f: impl FnMut() -> T) -> Duration {
    let mut iters: u64 = 1;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let dt = t0.elapsed();
        if dt >= MIN_ROUND || iters >= 1 << 30 {
            let mut best = dt;
            for _ in 1..ROUNDS {
                let t0 = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                best = best.min(t0.elapsed());
            }
            return best / iters as u32;
        }
        iters *= 2;
    }
}

fn report(group: &str, name: &str, total: Duration, iters: u64) {
    let per = total.as_nanos() as f64 / iters as f64;
    let (value, unit) = if per >= 1e6 {
        (per / 1e6, "ms")
    } else if per >= 1e3 {
        (per / 1e3, "µs")
    } else {
        (per, "ns")
    };
    println!(
        "{:<40} {:>10.2} {}/iter   ({} iters)",
        format!("{group}/{name}"),
        value,
        unit,
        iters
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_calibrates() {
        // Smoke: a trivial body completes and does not loop forever.
        bench("test", "noop", || 1u64 + 1);
        bench_with_setup("test", "setup", || vec![1u8; 16], |v| v.len());
    }

    #[test]
    fn measure_returns_a_positive_per_iteration_time() {
        let per = measure(|| std::thread::sleep(Duration::from_micros(50)));
        assert!(per >= Duration::from_micros(50));
    }
}
