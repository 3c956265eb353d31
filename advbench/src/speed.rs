//! The host's speed at a moment, read from a fixed reference workload.
//!
//! On a shared host the CPU's throughput drifts by ±20% over tens of
//! seconds (other tenants on the same physical cores, with no steal time
//! reported), so no run length averages it away, and two runs a minute
//! apart differ by more than any change worth catching. A run therefore
//! interleaves short probes of a fixed reference workload with its timed
//! slices and reports its end-to-end timings at the reference speed:
//! durations divided by the run's median slowness, rates multiplied by it.
//!
//! The reference is this file's own code, so no change to the library
//! moves it. It loads every core at once, as a saturated server does:
//! random read-modify-writes in a 1 MiB table per core (the access pattern
//! of a cache simulation) and a small f32 matrix product. Of the kernels
//! tried, these two tracked the two-thread `measure_batch` of both models
//! best.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// Words of each core's table: 1 MiB.
const TABLE_LEN: usize = 1 << 17;
const TABLE_STEPS: usize = 1_500_000;
const GEMM_N: usize = 48;
const GEMM_REPS: usize = 300;
/// Kernel passes per probe.
const PASSES: usize = 3;
/// Each kernel's time per probe on a quiet 2-core Xeon host, in ms; a
/// probe that takes this long reads slowness 1.
const NOMINAL_TABLE_MS: f64 = 15.0;
const NOMINAL_GEMM_MS: f64 = 12.0;

pub struct Reference {
    /// One table per core, so cores share no cache lines.
    tables: Vec<Mutex<Vec<u64>>>,
}

fn table_walk(table: &mut [u64], steps: usize) -> u64 {
    let mask = table.len() - 1;
    let (mut h, mut inserted) = (0x12345_u64, 0u64);
    for i in 0..steps {
        h = (h ^ i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let slot = &mut table[(h >> 20) as usize & mask];
        if *slot & 1 == 0 {
            *slot = slot.wrapping_add(h);
            inserted += 1;
        } else {
            *slot ^= h >> 3;
        }
    }
    inserted
}

fn gemm(reps: usize) -> f32 {
    let n = GEMM_N;
    let a = vec![1.0001_f32; n * n];
    let b = vec![0.9999_f32; n * n];
    let mut c = vec![0.0_f32; n * n];
    for _ in 0..reps {
        for i in 0..n {
            for k in 0..n {
                let av = black_box(a[i * n + k]);
                for j in 0..n {
                    c[i * n + j] += av * b[k * n + j];
                }
            }
        }
    }
    c.iter().sum()
}

impl Reference {
    pub fn new() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        Self {
            tables: (0..cores).map(|_| Mutex::new(vec![0; TABLE_LEN])).collect(),
        }
    }

    /// Wall ms of `kernel` run on every core at once.
    fn on_every_core(&self, kernel: impl Fn(&mut [u64]) + Sync) -> f64 {
        let start = Instant::now();
        std::thread::scope(|s| {
            for table in &self.tables {
                let kernel = &kernel;
                s.spawn(move || kernel(&mut table.lock().expect("a probe thread panicked")));
            }
        });
        start.elapsed().as_secs_f64() * 1e3
    }

    /// How much slower than nominal the host runs right now: the geometric
    /// mean of the two kernels' times over their nominal times.
    pub fn slowness(&self) -> f64 {
        let (mut table_ms, mut gemm_ms) = (0.0, 0.0);
        for _ in 0..PASSES {
            table_ms += self.on_every_core(|t| {
                black_box(table_walk(t, black_box(TABLE_STEPS)));
            });
            gemm_ms += self.on_every_core(|_| {
                black_box(gemm(black_box(GEMM_REPS)));
            });
        }
        (table_ms / NOMINAL_TABLE_MS * gemm_ms / NOMINAL_GEMM_MS).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowness_is_positive_and_finite() {
        let s = Reference::new().slowness();
        assert!(s.is_finite() && s > 0.0, "{s}");
    }
}
