//! A dependency-free micro-benchmark timer: the self-calibrating
//! best-of-3 batch method of `f4t_bench::micro`, re-implemented here so
//! the benchmark binds to nothing outside the library crates.

use std::hint::black_box;
use std::time::Instant;

/// Batch sizing for one run of the standalone drivers.
#[derive(Debug, Clone, Copy)]
pub struct Micro {
    batch_ms: u128,
}

impl Micro {
    /// 10 ms batches, or 2 ms for smoke runs.
    pub fn new(quick: bool) -> Micro {
        Micro {
            batch_ms: if quick { 2 } else { 10 },
        }
    }

    /// Cycles for drivers that run a fixed schedule instead of a
    /// calibrated batch.
    pub fn fixed_cycles(&self) -> u64 {
        self.batch_ms as u64 * 5_000
    }

    /// Nanoseconds per call of `f`: grows the batch until it fills the
    /// batch time, then takes the best of three timed batches. Results
    /// pass through `black_box` so the work cannot be optimised away.
    pub fn bench<R>(&self, mut f: impl FnMut() -> R) -> f64 {
        let mut batch = 1u64;
        loop {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            if t.elapsed().as_millis() >= self.batch_ms || batch >= 1 << 28 {
                break;
            }
            batch *= 2;
        }
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            best = best.min(t.elapsed().as_nanos() as f64 / batch as f64);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_grows_with_work() {
        let m = Micro::new(true);
        let spin = |n: u64| move || (0..n).fold(0u64, |a, x| black_box(a ^ x.wrapping_mul(0x9e37)));
        let small = m.bench(spin(64));
        let large = m.bench(spin(64 * 32));
        assert!(
            large > small * 4.0,
            "64 iterations: {small} ns, 2048 iterations: {large} ns"
        );
    }
}
