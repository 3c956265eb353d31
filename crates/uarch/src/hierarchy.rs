//! The three-cache memory hierarchy and its perf-event bookkeeping.

use crate::cache::{AccessKind, Cache, CacheConfig, CacheStats, Eviction};
use crate::events::{HpcCounts, HpcEvent};
use crate::prefetch::{NextLinePrefetcher, PrefetchConfig};

/// Sizing of the simulated machine.
///
/// The default models a scaled-down desktop part: 32 KiB / 8-way L1 caches
/// and a 512 KiB / 8-way unified LLC. The LLC is deliberately smaller than a
/// real i7-9700's 12 MiB because the micro-CNNs' weights are correspondingly
/// smaller than real EfficientNet/ResNet/DenseNet weights — what matters for
/// reproducing the paper is the *ratio* of model working set to LLC
/// capacity, which makes LLC miss counts sensitive to exactly which weight
/// lines an input's activation pattern touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Unified last-level cache geometry.
    pub llc: CacheConfig,
    /// log2 of the branch predictor table size.
    pub predictor_log2_entries: u32,
    /// Hardware prefetcher configuration (disabled by default; its
    /// statistical effect is part of the calibrated noise model).
    pub prefetch: PrefetchConfig,
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self {
            l1i: CacheConfig::new(32 * 1024, 8),
            l1d: CacheConfig::new(32 * 1024, 8),
            llc: CacheConfig::new(512 * 1024, 8),
            predictor_log2_entries: 12,
            prefetch: PrefetchConfig::default(),
        }
    }
}

/// Per-level statistics snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// L1d load accesses / misses.
    pub l1d_loads: u64,
    /// L1d load misses.
    pub l1d_load_misses: u64,
    /// L1d store accesses.
    pub l1d_stores: u64,
    /// L1d store misses.
    pub l1d_store_misses: u64,
    /// L1i fetch accesses.
    pub l1i_fetches: u64,
    /// L1i fetch misses.
    pub l1i_fetch_misses: u64,
    /// LLC load accesses (L1 read misses + instruction misses).
    pub llc_loads: u64,
    /// LLC load misses.
    pub llc_load_misses: u64,
    /// LLC store accesses (write-allocating store misses + L1 writebacks).
    pub llc_stores: u64,
    /// LLC store misses.
    pub llc_store_misses: u64,
}

impl HierarchyStats {
    /// Total LLC references (`perf` `cache-references`).
    pub fn llc_references(&self) -> u64 {
        self.llc_loads + self.llc_stores
    }

    /// Total LLC misses (`perf` `cache-misses`).
    pub fn llc_misses(&self) -> u64 {
        self.llc_load_misses + self.llc_store_misses
    }
}

/// L1i + L1d backed by a unified LLC, with write-back/write-allocate
/// semantics and the event accounting `perf` exposes on Intel parts.
///
/// # Example
///
/// ```
/// use advhunter_uarch::{MachineConfig, MemoryHierarchy};
///
/// let mut mem = MemoryHierarchy::new(MachineConfig::default());
/// mem.load(0x0);
/// mem.load(0x0);
/// assert_eq!(mem.stats().l1d_loads, 2);
/// assert_eq!(mem.stats().l1d_load_misses, 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryHierarchy {
    l1i: Cache,
    l1d: Cache,
    llc: Cache,
    prefetcher: NextLinePrefetcher,
    stats: HierarchyStats,
}

impl MemoryHierarchy {
    /// Creates cold caches.
    pub fn new(config: MachineConfig) -> Self {
        Self {
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            llc: Cache::new(config.llc),
            prefetcher: NextLinePrefetcher::new(config.prefetch),
            stats: HierarchyStats::default(),
        }
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// Invalidates all caches and clears statistics.
    pub fn reset(&mut self) {
        self.l1i.reset();
        self.l1d.reset();
        self.llc.reset();
        self.prefetcher.reset();
        self.stats = HierarchyStats::default();
    }

    /// Data load at byte address `addr`.
    pub fn load(&mut self, addr: u64) {
        self.stats.l1d_loads += 1;
        let (hit, ev) = self.l1d.access(addr, AccessKind::Read);
        if !hit {
            self.stats.l1d_load_misses += 1;
            self.llc_load(addr);
        }
        self.handle_l1_eviction(ev);
        // Stream prefetches fill the LLC and count as references, like the
        // hardware streamers on real parts.
        for pf_addr in self.prefetcher.observe(addr) {
            self.llc_load(pf_addr);
        }
    }

    /// Data store at byte address `addr` (write-allocate in L1d).
    pub fn store(&mut self, addr: u64) {
        self.stats.l1d_stores += 1;
        let (hit, ev) = self.l1d.access(addr, AccessKind::Write);
        if !hit {
            self.stats.l1d_store_misses += 1;
            // The allocating fill reaches the LLC as a store-class access
            // (read-for-ownership), which is what LLC-store events count.
            self.llc_store(addr);
        }
        self.handle_l1_eviction(ev);
    }

    /// Instruction fetch at byte address `addr`.
    pub fn fetch(&mut self, addr: u64) {
        self.stats.l1i_fetches += 1;
        let (hit, ev) = self.l1i.access(addr, AccessKind::Read);
        if !hit {
            self.stats.l1i_fetch_misses += 1;
            self.llc_load(addr);
        }
        // Instruction lines are never dirty; clean evictions are silent.
        debug_assert!(!matches!(ev, Eviction::Dirty(_)));
    }

    /// Data loads of `lines` consecutive cache lines starting at
    /// `base_addr`, equivalent to one [`load`](Self::load) per line in
    /// ascending order but simulated in one fused L1d→LLC pass.
    ///
    /// With the prefetcher enabled the per-line path is used verbatim (the
    /// prefetcher observes every demand load); with it disabled — the
    /// default, where its effect is part of the calibrated noise model —
    /// `observe` is a stateless no-op, so skipping it is exact.
    pub fn load_range(&mut self, base_addr: u64, lines: u64) {
        self.load_lines::<false>(base_addr, lines);
    }

    /// [`load_range`](Self::load_range) over lines that no access since
    /// the last [`reset`](Self::reset) has touched, so that no level holds
    /// them: each line is filled without a tag scan at L1d or the LLC.
    /// With the prefetcher enabled this is `load_range` itself, since the
    /// prefetcher fills LLC lines that no access touched.
    pub(crate) fn fill_load_range(&mut self, base_addr: u64, lines: u64) {
        self.load_lines::<true>(base_addr, lines);
    }

    fn load_lines<const FILL: bool>(&mut self, base_addr: u64, lines: u64) {
        if self.prefetcher.config().enabled {
            for i in 0..lines {
                self.load(base_addr + i * crate::LINE_BYTES);
            }
            return;
        }
        let (misses, llc) =
            self.l1d
                .range_through::<FILL>(&mut self.llc, base_addr, lines, AccessKind::Read);
        self.stats.l1d_loads += lines;
        self.stats.l1d_load_misses += misses;
        self.absorb_llc(&llc);
    }

    /// Data stores of `lines` consecutive cache lines starting at
    /// `base_addr`, equivalent to one [`store`](Self::store) per line in
    /// ascending order. Stores never consult the prefetcher.
    pub fn store_range(&mut self, base_addr: u64, lines: u64) {
        self.store_lines::<false>(base_addr, lines);
    }

    /// [`store_range`](Self::store_range) over untouched lines, filled
    /// without tag scans as in [`fill_load_range`](Self::fill_load_range)
    /// (and scanned like `store_range` with the prefetcher enabled).
    pub(crate) fn fill_store_range(&mut self, base_addr: u64, lines: u64) {
        self.store_lines::<true>(base_addr, lines);
    }

    fn store_lines<const FILL: bool>(&mut self, base_addr: u64, lines: u64) {
        if FILL && self.prefetcher.config().enabled {
            return self.store_lines::<false>(base_addr, lines);
        }
        let (misses, llc) =
            self.l1d
                .range_through::<FILL>(&mut self.llc, base_addr, lines, AccessKind::Write);
        self.stats.l1d_stores += lines;
        self.stats.l1d_store_misses += misses;
        self.absorb_llc(&llc);
    }

    /// Instruction fetches of `lines` consecutive cache lines starting at
    /// `base_addr`, equivalent to one [`fetch`](Self::fetch) per line in
    /// ascending order. Fetches never consult the prefetcher.
    pub fn fetch_range(&mut self, base_addr: u64, lines: u64) {
        self.fetch_lines::<false>(base_addr, lines);
    }

    /// [`fetch_range`](Self::fetch_range) over untouched lines, filled
    /// without tag scans as in [`fill_load_range`](Self::fill_load_range)
    /// (and scanned like `fetch_range` with the prefetcher enabled).
    pub(crate) fn fill_fetch_range(&mut self, base_addr: u64, lines: u64) {
        self.fetch_lines::<true>(base_addr, lines);
    }

    fn fetch_lines<const FILL: bool>(&mut self, base_addr: u64, lines: u64) {
        if FILL && self.prefetcher.config().enabled {
            return self.fetch_lines::<false>(base_addr, lines);
        }
        let (misses, llc) =
            self.l1i
                .range_through::<FILL>(&mut self.llc, base_addr, lines, AccessKind::Read);
        self.stats.l1i_fetches += lines;
        self.stats.l1i_fetch_misses += misses;
        // Instruction lines are never dirty; only allocating fills remain.
        debug_assert_eq!(llc.write_accesses, 0);
        self.absorb_llc(&llc);
    }

    /// Adds the LLC traffic of one fused range pass to the event counts:
    /// read fills are LLC loads; read-for-ownership fills and dirty L1
    /// write-backs are LLC stores.
    fn absorb_llc(&mut self, llc: &CacheStats) {
        self.stats.llc_loads += llc.read_accesses;
        self.stats.llc_load_misses += llc.read_misses;
        self.stats.llc_stores += llc.write_accesses;
        self.stats.llc_store_misses += llc.write_misses;
    }

    fn llc_load(&mut self, addr: u64) {
        self.stats.llc_loads += 1;
        let (hit, ev) = self.llc.access(addr, AccessKind::Read);
        if !hit {
            self.stats.llc_load_misses += 1;
        }
        // LLC dirty evictions go to DRAM; nothing further to model.
        let _ = ev;
    }

    fn llc_store(&mut self, addr: u64) {
        self.stats.llc_stores += 1;
        let (hit, ev) = self.llc.access(addr, AccessKind::Write);
        if !hit {
            self.stats.llc_store_misses += 1;
        }
        let _ = ev;
    }

    fn handle_l1_eviction(&mut self, ev: Eviction) {
        if let Eviction::Dirty(victim_addr) = ev {
            // Write-back of a dirty L1 line is an LLC store.
            self.llc_store(victim_addr);
        }
    }

    /// Copies the cache-side event values into an [`HpcCounts`].
    pub fn fill_counts(&self, counts: &mut HpcCounts) {
        counts.set(HpcEvent::CacheReferences, self.stats.llc_references());
        counts.set(HpcEvent::CacheMisses, self.stats.llc_misses());
        counts.set(HpcEvent::L1dLoadMisses, self.stats.l1d_load_misses);
        counts.set(HpcEvent::L1iLoadMisses, self.stats.l1i_fetch_misses);
        counts.set(HpcEvent::LlcLoadMisses, self.stats.llc_load_misses);
        counts.set(HpcEvent::LlcStoreMisses, self.stats.llc_store_misses);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReplacementPolicy;
    use proptest::prelude::*;

    fn small_machine() -> MemoryHierarchy {
        MemoryHierarchy::new(MachineConfig {
            l1i: CacheConfig::new(1024, 2),
            l1d: CacheConfig::new(1024, 2),
            llc: CacheConfig::new(4096, 4),
            predictor_log2_entries: 8,
            prefetch: PrefetchConfig::default(),
        })
    }

    #[test]
    fn load_miss_propagates_to_llc() {
        let mut m = small_machine();
        m.load(0);
        assert_eq!(m.stats().l1d_load_misses, 1);
        assert_eq!(m.stats().llc_loads, 1);
        assert_eq!(m.stats().llc_load_misses, 1);
        m.load(0);
        assert_eq!(m.stats().l1d_loads, 2);
        assert_eq!(m.stats().llc_loads, 1, "L1 hit does not reach LLC");
    }

    #[test]
    fn l1_miss_llc_hit_is_not_an_llc_miss() {
        let mut m = small_machine();
        // Touch enough lines to evict line 0 from tiny L1d (8 lines) but not
        // from the LLC (64 lines).
        m.load(0);
        for i in 1..32u64 {
            m.load(i * 64);
        }
        let before = m.stats().llc_load_misses;
        m.load(0);
        assert_eq!(m.stats().llc_load_misses, before, "LLC still holds line 0");
        assert!(m.stats().l1d_load_misses >= 2);
    }

    #[test]
    fn store_miss_counts_as_llc_store() {
        let mut m = small_machine();
        m.store(128);
        assert_eq!(m.stats().l1d_store_misses, 1);
        assert_eq!(m.stats().llc_stores, 1);
        assert_eq!(m.stats().llc_store_misses, 1);
    }

    #[test]
    fn dirty_writeback_reaches_llc_as_store() {
        let mut m = small_machine();
        // Dirty line 0 (set 0), then force its eviction from L1d by loading
        // two more lines of the same set (2-way, 8 sets => stride 8 lines).
        m.store(0);
        m.load(8 * 64);
        let stores_before = m.stats().llc_stores;
        m.load(16 * 64);
        assert_eq!(
            m.stats().llc_stores,
            stores_before + 1,
            "write-back of line 0"
        );
    }

    #[test]
    fn instruction_fetches_use_l1i() {
        let mut m = small_machine();
        m.fetch(0x7000);
        m.fetch(0x7000);
        assert_eq!(m.stats().l1i_fetches, 2);
        assert_eq!(m.stats().l1i_fetch_misses, 1);
        assert_eq!(m.stats().l1d_loads, 0);
    }

    #[test]
    fn counts_projection_is_consistent() {
        let mut m = small_machine();
        for i in 0..100u64 {
            m.load(i * 64);
            if i % 3 == 0 {
                m.store(i * 64 + 32 * 1024);
            }
            m.fetch(0x100000 + (i % 4) * 64);
        }
        let mut counts = HpcCounts::default();
        m.fill_counts(&mut counts);
        assert_eq!(
            counts.get(HpcEvent::CacheReferences),
            m.stats().llc_references()
        );
        assert_eq!(counts.get(HpcEvent::CacheMisses), m.stats().llc_misses());
        assert!(counts.get(HpcEvent::CacheMisses) <= counts.get(HpcEvent::CacheReferences));
        assert_eq!(
            counts.get(HpcEvent::CacheMisses),
            counts.get(HpcEvent::LlcLoadMisses) + counts.get(HpcEvent::LlcStoreMisses)
        );
    }

    #[test]
    fn prefetcher_inflates_references_on_streams() {
        let cfg_off = MachineConfig::default();
        let cfg_on = MachineConfig {
            prefetch: PrefetchConfig::aggressive(),
            ..MachineConfig::default()
        };
        let mut off = MemoryHierarchy::new(cfg_off);
        let mut on = MemoryHierarchy::new(cfg_on);
        for i in 0..256u64 {
            off.load(i * 64);
            on.load(i * 64);
        }
        assert!(
            on.stats().llc_references() > off.stats().llc_references(),
            "streaming loads must trigger prefetch traffic: {} vs {}",
            on.stats().llc_references(),
            off.stats().llc_references()
        );
        assert_eq!(
            off.stats().l1d_loads,
            on.stats().l1d_loads,
            "demand loads unchanged"
        );
    }

    #[test]
    fn range_apis_match_scalar_loops_across_levels() {
        let mut batched = small_machine();
        let mut scalar = small_machine();
        // A conv-like phase pattern: streamed loads and stores that alias
        // L1d sets (8 sets), dirty lines, plus instruction fetches.
        let phases: [(u8, u64, u64); 7] = [
            (b'f', 0x1000, 4),
            (b'l', 0x2000, 40),
            (b's', 0x6000, 24),
            (b'l', 0x2000, 16), // partial re-stream: hits + misses mixed
            (b's', 0x6000, 8),
            (b'l', 0x6000, 24), // read back dirty lines
            (b'f', 0x1000, 4),
        ];
        for (op, base, n) in phases {
            match op {
                b'l' => {
                    batched.load_range(base, n);
                    for i in 0..n {
                        scalar.load(base + i * 64);
                    }
                }
                b's' => {
                    batched.store_range(base, n);
                    for i in 0..n {
                        scalar.store(base + i * 64);
                    }
                }
                _ => {
                    batched.fetch_range(base, n);
                    for i in 0..n {
                        scalar.fetch(base + i * 64);
                    }
                }
            }
            assert_eq!(batched.stats(), scalar.stats());
        }
        assert!(
            batched.stats().llc_stores > 0,
            "pattern must exercise write-backs"
        );
    }

    /// The cases the fused range pass must reproduce exactly: associativity
    /// (3 runs the unspecialized copy), policy, L1 capacity relative to
    /// the range.
    const WAYS: [usize; 5] = [2, 4, 8, 16, 3];
    const L1_SETS: u64 = 8;

    fn machine(l1_ways: usize, llc_ways: usize, fifo: bool, prefetch: bool) -> MemoryHierarchy {
        let policy = if fifo {
            ReplacementPolicy::Fifo
        } else {
            ReplacementPolicy::Lru
        };
        let level = |sets: u64, ways: usize| {
            CacheConfig::with_policy(sets * 64 * ways as u64, ways, policy)
        };
        MemoryHierarchy::new(MachineConfig {
            l1i: level(L1_SETS, l1_ways),
            l1d: level(L1_SETS, l1_ways),
            llc: level(4 * L1_SETS, llc_ways),
            predictor_log2_entries: 8,
            prefetch: if prefetch {
                PrefetchConfig::aggressive()
            } else {
                PrefetchConfig::default()
            },
        })
    }

    fn per_line(m: &mut MemoryHierarchy, op: u8, addr: u64) {
        match op {
            0 => m.load(addr),
            1 => m.store(addr),
            _ => m.fetch(addr),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// `load_range`/`store_range`/`fetch_range` against one per-line
        /// `load`/`store`/`fetch` per line, from a warm state with dirty
        /// lines, over ranges of 0 to 2x the L1 capacity. After every step
        /// all three caches must be identical (contents, order, statistics)
        /// and keep their invalid ways zero behind the valid prefix.
        #[test]
        fn fused_range_passes_match_per_line_accesses(
            l1_ways in 0usize..5,
            llc_ways in 0usize..5,
            fifo in any::<bool>(),
            prefetch in any::<bool>(),
            warm in proptest::collection::vec(0u64..512, 0..300),
            warm_ops in proptest::collection::vec(0u8..3, 1..300),
            bases in proptest::collection::vec(0u64..512, 1..20),
            lens in proptest::collection::vec(0u64..=256, 1..20),
            ops in proptest::collection::vec(0u8..3, 1..20),
        ) {
            let (l1_ways, llc_ways) = (WAYS[l1_ways], WAYS[llc_ways]);
            let mut scalar = machine(l1_ways, llc_ways, fifo, prefetch);
            for (line, op) in warm.iter().zip(warm_ops.iter().cycle()) {
                per_line(&mut scalar, *op, line * 64);
            }
            let mut fused = scalar.clone();
            let l1_lines = L1_SETS * l1_ways as u64;
            for ((line, raw_len), op) in bases.iter().zip(lens.iter().cycle()).zip(ops.iter().cycle()) {
                let (base, n) = (line * 64, raw_len * 2 * l1_lines / 256);
                match op {
                    0 => fused.load_range(base, n),
                    1 => fused.store_range(base, n),
                    _ => fused.fetch_range(base, n),
                }
                for i in 0..n {
                    per_line(&mut scalar, *op, base + i * 64);
                }
                prop_assert_eq!(fused.stats(), scalar.stats());
                prop_assert!(fused.l1d == scalar.l1d, "l1d diverged: op {} base {} n {}", op, base, n);
                prop_assert!(fused.l1i == scalar.l1i, "l1i diverged: op {} base {} n {}", op, base, n);
                prop_assert!(fused.llc == scalar.llc, "llc diverged: op {} base {} n {}", op, base, n);
                for cache in [&fused.l1d, &fused.l1i, &fused.llc] {
                    prop_assert!(cache.ways_are_canonical());
                }
            }
        }
    }

    /// Applies one range pass of `op` (0 load, 1 store, else fetch), the
    /// fill pass if `fill`.
    fn range(m: &mut MemoryHierarchy, op: u8, fill: bool, base: u64, n: u64) {
        match (op, fill) {
            (0, false) => m.load_range(base, n),
            (0, true) => m.fill_load_range(base, n),
            (1, false) => m.store_range(base, n),
            (1, true) => m.fill_store_range(base, n),
            (_, false) => m.fetch_range(base, n),
            (_, true) => m.fill_fetch_range(base, n),
        }
    }

    /// The first line the fill tests stream: the warm-up touches only
    /// lines below it.
    const FRESH: u64 = 512;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The fill passes against the scanning passes
        /// (`Cache::access_range_through`) on lines never touched since
        /// reset. From a warm state with dirty lines, each step fills a
        /// range of fresh lines on one machine and scans it on the other,
        /// then scans a range of already-touched lines on both, so filled
        /// lines are hit, dirtied and evicted in turn. After every step all
        /// three caches must be identical (contents, order, statistics) and
        /// keep their invalid ways zero behind the valid prefix.
        #[test]
        fn fill_passes_match_scanning_passes_on_untouched_lines(
            l1_ways in 0usize..5,
            llc_ways in 0usize..5,
            fifo in any::<bool>(),
            warm in proptest::collection::vec(0u64..FRESH, 0..300),
            warm_ops in proptest::collection::vec(0u8..3, 1..300),
            gaps in proptest::collection::vec(0u64..64, 1..20),
            lens in proptest::collection::vec(0u64..=256, 1..20),
            ops in proptest::collection::vec(0u8..3, 1..20),
            backs in proptest::collection::vec(0u64..1024, 1..20),
            rescan_lens in proptest::collection::vec(0u64..64, 1..20),
            rescan_ops in proptest::collection::vec(0u8..3, 1..20),
        ) {
            let (l1_ways, llc_ways) = (WAYS[l1_ways], WAYS[llc_ways]);
            let mut scan = machine(l1_ways, llc_ways, fifo, false);
            for (line, op) in warm.iter().zip(warm_ops.iter().cycle()) {
                per_line(&mut scan, *op, line * 64);
            }
            let mut fill = scan.clone();
            let l1_lines = L1_SETS * l1_ways as u64;
            let mut next_fresh = FRESH;
            let fills = gaps.iter().zip(lens.iter().cycle()).zip(ops.iter().cycle());
            let rescans = backs.iter().cycle().zip(rescan_lens.iter().cycle()).zip(rescan_ops.iter().cycle());
            for (((gap, raw_len), op), ((back, len), rescan_op)) in fills.zip(rescans) {
                let (line, n) = (next_fresh + gap, raw_len * 2 * l1_lines / 256);
                range(&mut fill, *op, true, line * 64, n);
                range(&mut scan, *op, false, line * 64, n);
                next_fresh = line + n;
                // Re-stream lines touched before (a fetch of data lines is
                // as valid a touch as any): both machines scan.
                let start = next_fresh.saturating_sub(*back);
                let len = (*len).min(next_fresh - start);
                range(&mut fill, *rescan_op, false, start * 64, len);
                range(&mut scan, *rescan_op, false, start * 64, len);
                prop_assert_eq!(fill.stats(), scan.stats());
                prop_assert!(fill.l1d == scan.l1d, "l1d diverged: op {} line {} n {}", op, line, n);
                prop_assert!(fill.l1i == scan.l1i, "l1i diverged: op {} line {} n {}", op, line, n);
                prop_assert!(fill.llc == scan.llc, "llc diverged: op {} line {} n {}", op, line, n);
                for cache in [&fill.l1d, &fill.l1i, &fill.llc] {
                    prop_assert!(cache.ways_are_canonical());
                }
            }
        }
    }

    /// With the prefetcher enabled the LLC holds lines no demand access
    /// touched, so the fill passes must scan: after a demand stream over
    /// lines `[0, 32)` the prefetcher has pulled lines `32..` into the LLC,
    /// and filling them must still find them there, exactly as the
    /// scanning passes do.
    #[test]
    fn fill_passes_scan_when_the_prefetcher_is_enabled() {
        for (ways, fifo) in [(2, false), (8, false), (3, true), (16, true)] {
            for op in 0..3u8 {
                let mut scan = machine(ways, ways, fifo, true);
                scan.load_range(0, 32);
                assert!(
                    scan.llc.clone().access(32 * 64, AccessKind::Read).0,
                    "the prefetcher must have filled line 32 into the LLC"
                );
                let mut fill = scan.clone();
                range(&mut fill, op, true, 32 * 64, 4);
                range(&mut scan, op, false, 32 * 64, 4);
                assert_eq!(fill.stats(), scan.stats(), "{ways}-way fifo {fifo} op {op}");
                assert!(fill.l1d == scan.l1d && fill.l1i == scan.l1i && fill.llc == scan.llc);
            }
        }
    }

    #[test]
    fn load_range_with_prefetcher_enabled_matches_scalar() {
        let cfg = MachineConfig {
            prefetch: PrefetchConfig::aggressive(),
            ..MachineConfig::default()
        };
        let mut batched = MemoryHierarchy::new(cfg);
        let mut scalar = MemoryHierarchy::new(cfg);
        batched.load_range(0x4000, 32);
        for i in 0..32 {
            scalar.load(0x4000 + i * 64);
        }
        assert_eq!(batched.stats(), scalar.stats());
        assert!(batched.stats().llc_loads > 32, "prefetch traffic present");
    }

    #[test]
    fn empty_ranges_are_no_ops() {
        let mut m = small_machine();
        m.load_range(0, 0);
        m.store_range(0, 0);
        m.fetch_range(0, 0);
        assert_eq!(m.stats(), &HierarchyStats::default());
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = small_machine();
        m.load(0);
        m.store(64);
        m.fetch(128);
        m.reset();
        assert_eq!(m.stats(), &HierarchyStats::default());
    }
}
