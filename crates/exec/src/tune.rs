//! Plan-time GEMM autotuner with a pluggable persisted decision table.
//!
//! At [`TraceEngine`](crate::TraceEngine) construction, every distinct
//! [`GemmGeometry`] in the graph needs a [`KernelVariant`]. The decision
//! ladder, cheapest first:
//!
//! 1. the process-global memo (one benchmark per geometry per process, no
//!    matter how many engines are built);
//! 2. the caller's [`TunePersistence`] backend (the content-addressed
//!    artifact store, wired by `advhunter::Pipeline`), so warm runs pay
//!    zero tuning cost across processes;
//! 3. a micro-benchmark of every candidate variant on synthetic operands
//!    of the exact geometry — a few timed repetitions each, minimum wins —
//!    whose verdict is then memoized and persisted.
//!
//! A memo hit still write-through-fills an absent backend entry, so every
//! store an engine tunes against ends up holding the full decision table
//! even when the benchmarks ran earlier in the process.
//!
//! Because every variant is bit-exact (see `advhunter_tensor::ops::gemm`),
//! the tuner is free to pick differently on different machines or runs:
//! the choice changes timings only, never a single activation bit or
//! simulated HPC count.
//!
//! `ADVHUNTER_TUNE=off` (or `0`) overrides the ladder: it pins the
//! default variant without benchmarking or persistence.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use advhunter_nn::{Graph, MatKernels};
use advhunter_telemetry::Counter;
use advhunter_tensor::ops::{
    gemm_packed_bias_into, linear_packed_bias_into, GemmGeometry, GemmOpKind, KernelVariant,
    PackedWeights,
};

/// A backend that remembers tuning verdicts across processes (the pipeline
/// wires the content-addressed artifact store here).
pub trait TunePersistence: Send + Sync {
    /// A previously persisted verdict for `geometry`, if any.
    fn load(&self, geometry: &GemmGeometry) -> Option<KernelVariant>;
    /// Persists a fresh verdict for `geometry`.
    fn store(&self, geometry: &GemmGeometry, variant: KernelVariant);
}

fn memo() -> &'static Mutex<HashMap<GemmGeometry, KernelVariant>> {
    static MEMO: OnceLock<Mutex<HashMap<GemmGeometry, KernelVariant>>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Tuner telemetry, registered once in the global registry.
struct TuneMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evals: Arc<Counter>,
}

fn tune_metrics() -> &'static TuneMetrics {
    static METRICS: OnceLock<TuneMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = advhunter_telemetry::global();
        TuneMetrics {
            hits: r.counter(
                "advhunter_tune_hits_total",
                "GEMM tuning decisions answered by the memo or persisted table",
            ),
            misses: r.counter(
                "advhunter_tune_misses_total",
                "GEMM geometries that had to be benchmarked",
            ),
            evals: r.counter(
                "advhunter_tune_evals_total",
                "Candidate kernel variants benchmarked by the tuner",
            ),
        }
    })
}

/// A snapshot of the tuner counters (also rendered by `--metrics-json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuneStats {
    /// Decisions served without benchmarking.
    pub hits: u64,
    /// Geometries benchmarked.
    pub misses: u64,
    /// Candidate variants timed.
    pub evals: u64,
}

/// Reads the process-wide tuner counters.
pub fn tune_stats() -> TuneStats {
    let m = tune_metrics();
    TuneStats {
        hits: m.hits.get(),
        misses: m.misses.get(),
        evals: m.evals.get(),
    }
}

/// Whether `ADVHUNTER_TUNE` pins the default variant everywhere, with no
/// benchmarking or persistence.
fn tuning_off() -> bool {
    matches!(std::env::var("ADVHUNTER_TUNE").as_deref(), Ok("off" | "0"))
}

/// Resolves the kernel variant for one geometry through the decision
/// ladder (see the module docs), consulting and filling `backend` when
/// one is given.
pub fn choose_variant(
    geometry: GemmGeometry,
    backend: Option<&dyn TunePersistence>,
) -> KernelVariant {
    if tuning_off() {
        return KernelVariant::default();
    }
    let metrics = tune_metrics();
    let memoized = memo()
        .lock()
        .expect("tune memo poisoned")
        .get(&geometry)
        .copied();
    if let Some(v) = memoized {
        metrics.hits.inc();
        // Write-through: a backend that has never seen this geometry gets
        // the memoized verdict, so its decision table is complete even
        // though this process benchmarked before the backend existed.
        if let Some(b) = backend {
            if b.load(&geometry).is_none() {
                b.store(&geometry, v);
            }
        }
        return v;
    }
    if let Some(v) = backend.and_then(|b| b.load(&geometry)) {
        metrics.hits.inc();
        memo()
            .lock()
            .expect("tune memo poisoned")
            .insert(geometry, v);
        return v;
    }
    metrics.misses.inc();
    let v = benchmark_geometry(&geometry);
    // First write wins on a race: both racers benchmarked the same
    // bit-exact candidates, so either verdict is valid.
    let v = *memo()
        .lock()
        .expect("tune memo poisoned")
        .entry(geometry)
        .or_insert(v);
    if let Some(b) = backend {
        b.store(&geometry, v);
    }
    v
}

/// Packs every matrix node of `graph` with autotuned variants — the table
/// [`TraceEngine`](crate::TraceEngine) stores in its static plan.
pub fn tuned_kernels(graph: &Graph, backend: Option<&dyn TunePersistence>) -> MatKernels {
    MatKernels::pack_with(graph, &mut |geometry| choose_variant(geometry, backend))
}

/// Times every candidate on synthetic operands of the exact geometry and
/// returns the fastest (minimum over interleaved repetitions; ties break
/// toward the first candidate in [`KernelVariant::ALL`] order).
///
/// The rounds are interleaved round-robin across variants rather than run
/// back-to-back per variant: clock-frequency drift or a scheduler tick then
/// lands on every candidate equally instead of mis-ranking whichever one it
/// happened to hit, and min-of-rounds discards it entirely.
fn benchmark_geometry(geometry: &GemmGeometry) -> KernelVariant {
    const ROUNDS: usize = 5;
    let GemmGeometry { op, m, k, n } = *geometry;
    let a = synthetic(m * k, 1);
    let bias = synthetic(m, 2);
    let data = match op {
        GemmOpKind::Conv => synthetic(k * n, 3),
        GemmOpKind::Linear => synthetic(n * k, 3),
    };
    let mut out = vec![0.0f32; m * n];
    let candidates: Vec<_> = KernelVariant::ALL
        .iter()
        .map(|&variant| {
            tune_metrics().evals.inc();
            (variant, PackedWeights::pack(&a, m, k, variant), u128::MAX)
        })
        .collect();
    let mut candidates = candidates;
    // One warmup round plus timed rounds; keep each variant's minimum.
    for round in 0..=ROUNDS {
        for (_, packed, elapsed) in candidates.iter_mut() {
            let start = Instant::now();
            match op {
                GemmOpKind::Conv => gemm_packed_bias_into(packed, &data, n, &bias, &mut out),
                GemmOpKind::Linear => linear_packed_bias_into(packed, &data, n, &bias, &mut out),
            }
            if round > 0 {
                *elapsed = (*elapsed).min(start.elapsed().as_nanos());
            }
        }
    }
    candidates
        .iter()
        .min_by_key(|(_, _, elapsed)| *elapsed)
        .map(|(variant, _, _)| *variant)
        .unwrap_or_default()
}

/// Deterministic non-zero pseudo-random operand fill.
fn synthetic(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as i32 - (1 << 23)) as f32 / (1 << 24) as f32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Backend recording loads/stores for exactly one geometry (other
    /// concurrent tests tune other geometries; filtering keeps the
    /// assertions race-free).
    struct Recorder {
        watched: GemmGeometry,
        held: Mutex<Option<KernelVariant>>,
        loads: AtomicU64,
        stores: AtomicU64,
    }

    impl Recorder {
        fn new(watched: GemmGeometry, held: Option<KernelVariant>) -> Self {
            Self {
                watched,
                held: Mutex::new(held),
                loads: AtomicU64::new(0),
                stores: AtomicU64::new(0),
            }
        }
    }

    impl TunePersistence for Recorder {
        fn load(&self, geometry: &GemmGeometry) -> Option<KernelVariant> {
            if *geometry == self.watched {
                self.loads.fetch_add(1, Ordering::Relaxed);
                *self.held.lock().unwrap()
            } else {
                None
            }
        }
        fn store(&self, geometry: &GemmGeometry, variant: KernelVariant) {
            if *geometry == self.watched {
                self.stores.fetch_add(1, Ordering::Relaxed);
                *self.held.lock().unwrap() = Some(variant);
            }
        }
    }

    /// A geometry no other test tunes, so backend traffic is attributable.
    fn private_geometry(n: usize) -> GemmGeometry {
        GemmGeometry {
            op: GemmOpKind::Conv,
            m: 3,
            k: 5,
            n,
        }
    }

    #[test]
    fn fresh_geometry_benchmarks_once_then_hits_the_memo() {
        let geo = private_geometry(97);
        let backend = Recorder::new(geo, None);
        let before = tune_stats();
        let first = choose_variant(geo, Some(&backend));
        let mid = tune_stats();
        // `>=` everywhere: other tests tune other geometries concurrently.
        assert!(mid.misses > before.misses, "first call must benchmark");
        assert!(mid.evals >= before.evals + KernelVariant::ALL.len() as u64);
        assert_eq!(backend.stores.load(Ordering::Relaxed), 1, "verdict stored");

        let second = choose_variant(geo, Some(&backend));
        let after = tune_stats();
        assert_eq!(first, second, "memoized verdict must be stable");
        assert!(after.hits > mid.hits, "second call must hit the memo");
        // The memo hit found the backend already populated: no re-store.
        assert_eq!(backend.loads.load(Ordering::Relaxed), 2);
        assert_eq!(backend.stores.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn persisted_verdicts_are_honored_without_benchmarking() {
        let geo = private_geometry(89);
        let backend = Recorder::new(geo, Some(KernelVariant::Mr6Nr8));
        let v = choose_variant(geo, Some(&backend));
        assert_eq!(v, KernelVariant::Mr6Nr8);
        assert_eq!(
            backend.stores.load(Ordering::Relaxed),
            0,
            "a persisted hit must not be re-stored"
        );
        // The verdict is now memoized: no backend needed.
        assert_eq!(choose_variant(geo, None), KernelVariant::Mr6Nr8);
    }

    #[test]
    fn memo_hits_backfill_an_empty_backend() {
        let geo = private_geometry(83);
        choose_variant(geo, None); // benchmark + memoize, no backend
        let backend = Recorder::new(geo, None);
        let v = choose_variant(geo, Some(&backend));
        assert_eq!(
            backend.stores.load(Ordering::Relaxed),
            1,
            "memo hit must write through to a backend missing the verdict"
        );
        // Now that the backend holds the verdict, another hit leaves it be.
        assert_eq!(choose_variant(geo, Some(&backend)), v);
        assert_eq!(backend.stores.load(Ordering::Relaxed), 1);
    }
}
