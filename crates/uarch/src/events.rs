//! The HPC event set monitored by AdvHunter.

use std::fmt;

/// The hardware performance counter events the paper monitors.
///
/// The first five are the "core" events of Table 2; the last four are the
/// cache-related events of the ablation study (Table 3 / Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HpcEvent {
    /// Retired instructions.
    Instructions,
    /// Retired branch instructions.
    Branches,
    /// Mispredicted branches.
    BranchMisses,
    /// Last-level cache references (`perf`'s `cache-references`).
    CacheReferences,
    /// Last-level cache misses (`perf`'s `cache-misses`).
    CacheMisses,
    /// L1 data-cache load misses.
    L1dLoadMisses,
    /// L1 instruction-cache load misses.
    L1iLoadMisses,
    /// Last-level cache load misses.
    LlcLoadMisses,
    /// Last-level cache store misses.
    LlcStoreMisses,
}

impl HpcEvent {
    /// All nine events, in a stable order.
    pub const ALL: [HpcEvent; 9] = [
        HpcEvent::Instructions,
        HpcEvent::Branches,
        HpcEvent::BranchMisses,
        HpcEvent::CacheReferences,
        HpcEvent::CacheMisses,
        HpcEvent::L1dLoadMisses,
        HpcEvent::L1iLoadMisses,
        HpcEvent::LlcLoadMisses,
        HpcEvent::LlcStoreMisses,
    ];

    /// The five "core" events of the paper's Table 2.
    pub const CORE: [HpcEvent; 5] = [
        HpcEvent::Instructions,
        HpcEvent::Branches,
        HpcEvent::BranchMisses,
        HpcEvent::CacheReferences,
        HpcEvent::CacheMisses,
    ];

    /// The four cache-related events of the paper's ablation (Table 3).
    pub const CACHE_ABLATION: [HpcEvent; 4] = [
        HpcEvent::L1dLoadMisses,
        HpcEvent::L1iLoadMisses,
        HpcEvent::LlcLoadMisses,
        HpcEvent::LlcStoreMisses,
    ];

    /// Dense index into [`HpcEvent::ALL`].
    pub fn index(self) -> usize {
        match self {
            HpcEvent::Instructions => 0,
            HpcEvent::Branches => 1,
            HpcEvent::BranchMisses => 2,
            HpcEvent::CacheReferences => 3,
            HpcEvent::CacheMisses => 4,
            HpcEvent::L1dLoadMisses => 5,
            HpcEvent::L1iLoadMisses => 6,
            HpcEvent::LlcLoadMisses => 7,
            HpcEvent::LlcStoreMisses => 8,
        }
    }

    /// The `perf`-style event name.
    pub fn perf_name(self) -> &'static str {
        match self {
            HpcEvent::Instructions => "instructions",
            HpcEvent::Branches => "branches",
            HpcEvent::BranchMisses => "branch-misses",
            HpcEvent::CacheReferences => "cache-references",
            HpcEvent::CacheMisses => "cache-misses",
            HpcEvent::L1dLoadMisses => "L1-dcache-load-misses",
            HpcEvent::L1iLoadMisses => "L1-icache-load-misses",
            HpcEvent::LlcLoadMisses => "LLC-load-misses",
            HpcEvent::LlcStoreMisses => "LLC-store-misses",
        }
    }
}

impl fmt::Display for HpcEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.perf_name())
    }
}

/// Raw (noise-free) counter values for all nine events.
///
/// # Example
///
/// ```
/// use advhunter_uarch::{HpcCounts, HpcEvent};
///
/// let mut c = HpcCounts::default();
/// c.add(HpcEvent::CacheMisses, 10);
/// assert_eq!(c.get(HpcEvent::CacheMisses), 10);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HpcCounts {
    values: [u64; 9],
}

impl HpcCounts {
    /// Value of one event.
    pub fn get(&self, event: HpcEvent) -> u64 {
        self.values[event.index()]
    }

    /// Overwrites one event's value.
    pub fn set(&mut self, event: HpcEvent, value: u64) {
        self.values[event.index()] = value;
    }

    /// Increments one event by `delta`.
    pub fn add(&mut self, event: HpcEvent, delta: u64) {
        self.values[event.index()] += delta;
    }

    /// Element-wise difference `self - earlier`, saturating at zero.
    pub fn since(&self, earlier: &HpcCounts) -> HpcCounts {
        let mut out = HpcCounts::default();
        for (i, v) in out.values.iter_mut().enumerate() {
            *v = self.values[i].saturating_sub(earlier.values[i]);
        }
        out
    }
}

/// Floating-point counter readings — the paper's per-measurement values
/// `e_n^{(r)}`, or their mean over `R` repetitions.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HpcSample {
    pub(crate) values: [f64; 9],
}

impl HpcSample {
    /// Value of one event.
    pub fn get(&self, event: HpcEvent) -> f64 {
        self.values[event.index()]
    }

    /// Overwrites one event's value.
    pub fn set(&mut self, event: HpcEvent, value: f64) {
        self.values[event.index()] = value;
    }

    /// Mean of several samples (the paper's `Ē_n` over `R` repetitions).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn mean_of(samples: &[HpcSample]) -> HpcSample {
        assert!(!samples.is_empty(), "mean of zero samples");
        let mut out = HpcSample::default();
        for s in samples {
            for (o, v) in out.values.iter_mut().zip(s.values.iter()) {
                *o += v;
            }
        }
        for o in &mut out.values {
            *o /= samples.len() as f64;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_consistent() {
        for (i, e) in HpcEvent::ALL.iter().enumerate() {
            assert_eq!(e.index(), i);
        }
    }

    #[test]
    fn perf_names_match_the_paper() {
        assert_eq!(HpcEvent::CacheMisses.to_string(), "cache-misses");
        assert_eq!(HpcEvent::L1dLoadMisses.to_string(), "L1-dcache-load-misses");
        assert_eq!(HpcEvent::LlcStoreMisses.to_string(), "LLC-store-misses");
    }

    #[test]
    fn counts_accumulate_and_diff() {
        let mut a = HpcCounts::default();
        a.add(HpcEvent::Branches, 5);
        a.add(HpcEvent::Branches, 3);
        let mut b = a;
        b.add(HpcEvent::Branches, 10);
        assert_eq!(b.since(&a).get(HpcEvent::Branches), 10);
        assert_eq!(a.since(&b).get(HpcEvent::Branches), 0, "saturating");
    }

    #[test]
    fn sample_mean_averages_per_event() {
        let mut a = HpcSample::default();
        a.set(HpcEvent::CacheMisses, 10.0);
        let mut b = HpcSample::default();
        b.set(HpcEvent::CacheMisses, 20.0);
        let m = HpcSample::mean_of(&[a, b]);
        assert_eq!(m.get(HpcEvent::CacheMisses), 15.0);
        assert_eq!(m.get(HpcEvent::Instructions), 0.0);
    }

    #[test]
    fn core_and_ablation_subsets_are_disjoint_unions_of_all() {
        let mut all: Vec<HpcEvent> = HpcEvent::CORE.to_vec();
        all.extend_from_slice(&HpcEvent::CACHE_ABLATION);
        all.sort();
        let mut expect = HpcEvent::ALL.to_vec();
        expect.sort();
        assert_eq!(all, expect);
    }
}
