//! A set-associative, write-back, write-allocate cache with LRU replacement.

use crate::LINE_BYTES;

/// Whether an access reads or writes the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data or instruction read.
    Read,
    /// Data write (write-allocate: misses fill the line first).
    Write,
}

/// Victim-selection policy of a cache set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// Evict the least-recently-used way (the default; what the paper-era
    /// Intel parts approximate).
    #[default]
    Lru,
    /// Evict the oldest-inserted way regardless of use (FIFO), as some
    /// embedded and older parts do.
    Fifo,
}

/// Geometry of one cache level.
///
/// # Example
///
/// ```
/// use advhunter_uarch::CacheConfig;
///
/// let l1 = CacheConfig::new(32 * 1024, 8);
/// assert_eq!(l1.num_sets(), 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    size_bytes: u64,
    ways: usize,
    policy: ReplacementPolicy,
}

impl CacheConfig {
    /// Creates a configuration for a cache of `size_bytes` with `ways`
    /// associativity, LRU replacement, and the global 64-byte line size.
    ///
    /// # Panics
    ///
    /// Panics unless the resulting set count is a positive power of two.
    pub fn new(size_bytes: u64, ways: usize) -> Self {
        Self::with_policy(size_bytes, ways, ReplacementPolicy::Lru)
    }

    /// Like [`new`](Self::new) with an explicit replacement policy.
    ///
    /// # Panics
    ///
    /// Panics unless the resulting set count is a positive power of two.
    pub fn with_policy(size_bytes: u64, ways: usize, policy: ReplacementPolicy) -> Self {
        assert!(ways > 0, "associativity must be positive");
        assert!(
            size_bytes.is_multiple_of(LINE_BYTES * ways as u64),
            "size must be a multiple of ways * line size"
        );
        let sets = size_bytes / (LINE_BYTES * ways as u64);
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "set count must be a power of two, got {sets}"
        );
        Self {
            size_bytes,
            ways,
            policy,
        }
    }

    /// The replacement policy.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (LINE_BYTES * self.ways as u64)
    }
}

/// What an access displaced, if anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Eviction {
    /// Nothing was displaced (hit, or fill into an empty way).
    None,
    /// A clean line was silently dropped.
    Clean,
    /// A dirty line must be written back; its base address is given.
    Dirty(u64),
}

/// Hit/miss counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read accesses.
    pub read_accesses: u64,
    /// Read misses.
    pub read_misses: u64,
    /// Write accesses.
    pub write_accesses: u64,
    /// Write misses.
    pub write_misses: u64,
    /// Dirty lines written back to the next level.
    pub writebacks: u64,
}

impl CacheStats {
    /// All accesses.
    pub fn accesses(&self) -> u64 {
        self.read_accesses + self.write_accesses
    }

    /// All misses.
    pub fn misses(&self) -> u64 {
        self.read_misses + self.write_misses
    }

    /// Counts one access of `kind` and what it did.
    fn record(&mut self, kind: AccessKind, hit: bool, ev: Eviction) {
        match kind {
            AccessKind::Read => {
                self.read_accesses += 1;
                self.read_misses += u64::from(!hit);
            }
            AccessKind::Write => {
                self.write_accesses += 1;
                self.write_misses += u64::from(!hit);
            }
        }
        self.writebacks += u64::from(matches!(ev, Eviction::Dirty(_)));
    }

    fn add(&mut self, other: &CacheStats) {
        self.read_accesses += other.read_accesses;
        self.read_misses += other.read_misses;
        self.write_accesses += other.write_accesses;
        self.write_misses += other.write_misses;
        self.writebacks += other.writebacks;
    }

    /// Miss ratio in `[0, 1]`, or 0 if there were no accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses() as f64
        }
    }
}

/// Packed line metadata: the tag lives in the low bits, VALID/DIRTY in the
/// top two. Tags are `line_addr / sets`, which for 64-bit byte addresses
/// fits in 58 bits with room to spare, so the packing is lossless.
const META_VALID: u64 = 1 << 63;
const META_DIRTY: u64 = 1 << 62;
const META_TAG: u64 = META_DIRTY - 1;

/// The `FILL` argument of an access that scans for a hit (a const item,
/// because the geometry dispatch forwards const arguments as identifiers).
const SCAN: bool = false;

/// Routes to the copy monomorphized on a cache's `(ways, policy)`. Common
/// associativities get fully unrolled scans and a constant-length fill shift
/// (`0` = runtime way count); the policy flag decides whether a hit reorders
/// the set. The first form calls `$method::<$g.., W, FIFO>` on `$self`; the
/// second appends the geometry of `$cache` to const arguments already
/// chosen, so a two-level pass is monomorphized on both levels.
macro_rules! dispatch_geometry {
    ($self:ident, $method:ident $(::<$($g:ident),*>)?, $($arg:expr),*) => {
        dispatch_geometry!(@arms $self.config, $self.$method::<$($($g,)*)?>, $($arg),*)
    };
    ($cache:ident => $func:ident::<$($g:ident),*>($($arg:expr),*)) => {
        dispatch_geometry!(@arms $cache.config, $func::<$($g,)*>, $($arg),*)
    };
    (@arms $config:expr, $($call:ident).+::<$($g:ident,)*>, $($arg:expr),*) => {
        match ($config.policy, $config.ways) {
            (ReplacementPolicy::Lru, 2) => $($call).+::<$($g,)* 2, false>($($arg),*),
            (ReplacementPolicy::Lru, 4) => $($call).+::<$($g,)* 4, false>($($arg),*),
            (ReplacementPolicy::Lru, 8) => $($call).+::<$($g,)* 8, false>($($arg),*),
            (ReplacementPolicy::Lru, 16) => $($call).+::<$($g,)* 16, false>($($arg),*),
            (ReplacementPolicy::Lru, _) => $($call).+::<$($g,)* 0, false>($($arg),*),
            (ReplacementPolicy::Fifo, 2) => $($call).+::<$($g,)* 2, true>($($arg),*),
            (ReplacementPolicy::Fifo, 4) => $($call).+::<$($g,)* 4, true>($($arg),*),
            (ReplacementPolicy::Fifo, 8) => $($call).+::<$($g,)* 8, true>($($arg),*),
            (ReplacementPolicy::Fifo, 16) => $($call).+::<$($g,)* 16, true>($($arg),*),
            (ReplacementPolicy::Fifo, _) => $($call).+::<$($g,)* 0, true>($($arg),*),
        }
    };
}

/// One level of set-associative cache.
///
/// Addresses are byte addresses; the cache operates on 64-byte lines.
/// Internally the ways of a set are packed tag/valid/dirty words, so the hit
/// scan compiles to a branch-free compare loop and a fill is one move.
///
/// # Example
///
/// ```
/// use advhunter_uarch::{AccessKind, Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig::new(1024, 2));
/// assert!(!c.access(0x40, AccessKind::Read).0); // cold miss
/// assert!(c.access(0x40, AccessKind::Read).0);  // now a hit
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cache {
    config: CacheConfig,
    /// `num_sets - 1`: the set count is a power of two, so set selection is
    /// a mask and tag extraction a shift — no division on the access path.
    set_mask: u64,
    /// `log2(num_sets)`.
    tag_shift: u32,
    /// Packed `VALID | DIRTY | tag` per way, indexed `set * ways + way`,
    /// with each set's valid ways kept as a prefix ordered newest-first by
    /// policy age (last touch under LRU, fill under FIFO) and every invalid
    /// way an all-zero word behind it. The order IS the replacement state —
    /// no timestamps — so the victim is always the last way, and one 8-way
    /// set is a single 64-byte row.
    meta: Vec<u64>,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.num_sets();
        let total = (sets as usize) * config.ways();
        Self {
            config,
            set_mask: sets - 1,
            tag_shift: sets.trailing_zeros(),
            meta: vec![0; total],
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Invalidates every line and clears statistics.
    pub fn reset(&mut self) {
        self.meta.fill(0);
        self.stats = CacheStats::default();
    }

    /// Performs one access; returns `(hit, eviction)`.
    ///
    /// A miss allocates the line (write-allocate for writes) and may evict
    /// the LRU line of the set; if that line was dirty its base address is
    /// reported so the caller can write it back to the next level.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> (bool, Eviction) {
        let (hit, ev) = self.step(addr / LINE_BYTES, kind);
        self.stats.record(kind, hit, ev);
        (hit, ev)
    }

    /// Accesses `lines` consecutive cache lines starting at the line
    /// containing `base_addr`, all with the same `kind`, and sends the
    /// traffic this level produces straight into `next`: on each miss the
    /// allocating fill with the access kind, then, if the fill displaced a
    /// dirty line, its write-back as an [`AccessKind::Write`]. Evictions
    /// out of `next` go to DRAM, which is not modeled.
    ///
    /// Semantically identical to calling [`access`](Self::access) once per
    /// line in ascending order and applying each line's follow-ups to `next`
    /// with its own `access` before the next line. Returns this level's
    /// miss count and the statistics the range added to `next`.
    ///
    /// Both levels' statistics stay in locals until the range ends, and the
    /// geometry dispatch of both levels is hoisted out of the per-line loop.
    pub fn access_range_through(
        &mut self,
        next: &mut Cache,
        base_addr: u64,
        lines: u64,
        kind: AccessKind,
    ) -> (u64, CacheStats) {
        self.range_through::<SCAN>(next, base_addr, lines, kind)
    }

    /// [`access_range_through`](Self::access_range_through), or with
    /// `FILL` its fill pass: for a range whose lines are absent from both
    /// levels, each line takes the miss path at once (the same one-slot
    /// shift, victim and dirty write-back into `next`) with no tag scan at
    /// either level. Only a line's write-back still scans `next`.
    pub(crate) fn range_through<const FILL: bool>(
        &mut self,
        next: &mut Cache,
        base_addr: u64,
        lines: u64,
        kind: AccessKind,
    ) -> (u64, CacheStats) {
        dispatch_geometry!(
            self,
            range_through_ways::<FILL>,
            next,
            base_addr,
            lines,
            kind
        )
    }

    fn range_through_ways<const FILL: bool, const W: usize, const FIFO: bool>(
        &mut self,
        next: &mut Cache,
        base_addr: u64,
        lines: u64,
        kind: AccessKind,
    ) -> (u64, CacheStats) {
        dispatch_geometry!(next => fused_range::<FILL, W, FIFO>(self, next, base_addr, lines, kind))
    }

    /// One line access without statistics, dispatched to a copy
    /// monomorphized on the associativity (so the way scans fully unroll;
    /// the `0` instantiation reads the runtime way count) and on the
    /// replacement policy.
    fn step(&mut self, line_addr: u64, kind: AccessKind) -> (bool, Eviction) {
        dispatch_geometry!(self, step_ways::<SCAN>, line_addr, kind)
    }

    /// One line access; with `FILL` the caller guarantees the line is not
    /// cached, so the hit scan is skipped (and only checked in debug
    /// builds) and the access always takes the miss path.
    #[inline(always)]
    fn step_ways<const FILL: bool, const W: usize, const FIFO: bool>(
        &mut self,
        line_addr: u64,
        kind: AccessKind,
    ) -> (bool, Eviction) {
        let ways = if W == 0 { self.config.ways() } else { W };
        let set = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.tag_shift;
        let base = set * ways;
        let row = &mut self.meta[base..base + ways];
        let dirty = if kind == AccessKind::Write {
            META_DIRTY
        } else {
            0
        };

        // Hit scan: one packed compare per way with the dirty bit masked
        // out, collected into a bitmask (which vectorizes). Tags within a
        // set are unique, so at most one bit is set.
        let want = META_VALID | tag;
        let mut hit_mask = 0u32;
        if FILL {
            debug_assert!(
                row.iter().all(|&m| m & !META_DIRTY != want),
                "filled line {line_addr:#x} is already cached"
            );
        } else {
            for (w, &m) in row.iter().enumerate() {
                hit_mask |= u32::from(m & !META_DIRTY == want) << w;
            }
        }
        if hit_mask != 0 {
            let hit_way = hit_mask.trailing_zeros() as usize;
            if FIFO {
                // A FIFO hit leaves the insertion order alone.
                row[hit_way] |= dirty;
            } else {
                // LRU: rotate the touched way to the front of the order.
                let line = row[hit_way] | dirty;
                row.copy_within(0..hit_way, 1);
                row[0] = line;
            }
            return (true, Eviction::None);
        }

        // Miss (write-allocate): insert the fill at the front of the order
        // with one one-slot shift. Invalid ways are zero words behind the
        // valid prefix, so the shift pushes out a zero word when the set has
        // room and the oldest line under either policy when it is full.
        let victim = row[ways - 1];
        row.copy_within(0..ways - 1, 1);
        row[0] = META_VALID | dirty | tag;
        let evicted = if victim & META_VALID == 0 {
            Eviction::None
        } else if victim & META_DIRTY != 0 {
            let victim_line_addr = ((victim & META_TAG) << self.tag_shift) | set as u64;
            Eviction::Dirty(victim_line_addr * LINE_BYTES)
        } else {
            Eviction::Clean
        };
        (false, evicted)
    }

    /// Whether every set holds its valid ways as a prefix followed only by
    /// all-zero invalid ways — the layout the one-slot fill shift relies on.
    #[cfg(test)]
    pub(crate) fn ways_are_canonical(&self) -> bool {
        self.meta.chunks_exact(self.config.ways()).all(|row| {
            let valid = row.iter().take_while(|&&m| m & META_VALID != 0).count();
            row[valid..].iter().all(|&m| m == 0)
        })
    }

    /// Number of currently valid lines (useful for occupancy assertions).
    pub fn valid_lines(&self) -> usize {
        self.meta.iter().filter(|&&m| m & META_VALID != 0).count()
    }
}

/// The loop of [`Cache::range_through`], monomorphized on the pass
/// (`FILL`) and on the geometry of both levels (`W`/`FIFO` for `upper`,
/// `NW`/`NFIFO` for `next`) so both steps inline.
fn fused_range<
    const FILL: bool,
    const W: usize,
    const FIFO: bool,
    const NW: usize,
    const NFIFO: bool,
>(
    upper: &mut Cache,
    next: &mut Cache,
    base_addr: u64,
    lines: u64,
    kind: AccessKind,
) -> (u64, CacheStats) {
    let base_line = base_addr / LINE_BYTES;
    let mut misses = 0;
    let mut writebacks = 0;
    let mut down = CacheStats::default();
    for line_addr in base_line..base_line + lines {
        let (hit, ev) = upper.step_ways::<FILL, W, FIFO>(line_addr, kind);
        if hit {
            continue;
        }
        misses += 1;
        let (next_hit, next_ev) = next.step_ways::<FILL, NW, NFIFO>(line_addr, kind);
        down.record(kind, next_hit, next_ev);
        if let Eviction::Dirty(victim_addr) = ev {
            writebacks += 1;
            let victim_line = victim_addr / LINE_BYTES;
            let (next_hit, next_ev) =
                next.step_ways::<SCAN, NW, NFIFO>(victim_line, AccessKind::Write);
            down.record(AccessKind::Write, next_hit, next_ev);
        }
    }
    let own = match kind {
        AccessKind::Read => CacheStats {
            read_accesses: lines,
            read_misses: misses,
            writebacks,
            ..CacheStats::default()
        },
        AccessKind::Write => CacheStats {
            write_accesses: lines,
            write_misses: misses,
            writebacks,
            ..CacheStats::default()
        },
    };
    upper.stats.add(&own);
    next.stats.add(&down);
    (misses, down)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64B = 256B.
        Cache::new(CacheConfig::new(256, 2))
    }

    #[test]
    fn config_geometry() {
        let cfg = CacheConfig::new(32 * 1024, 8);
        assert_eq!(cfg.num_sets(), 64);
        assert_eq!(cfg.ways(), 8);
        assert_eq!(cfg.size_bytes(), 32 * 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn config_rejects_non_power_of_two_sets() {
        CacheConfig::new(3 * 64 * 2, 2); // 3 sets
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert_eq!(c.access(0, AccessKind::Read), (false, Eviction::None));
        assert_eq!(c.access(0, AccessKind::Read), (true, Eviction::None));
        assert_eq!(
            c.access(63, AccessKind::Read),
            (true, Eviction::None),
            "same line"
        );
        assert_eq!(
            c.access(64, AccessKind::Read),
            (false, Eviction::None),
            "next line"
        );
        assert_eq!(c.stats().read_accesses, 4);
        assert_eq!(c.stats().read_misses, 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny(); // 2 sets; lines 0, 2, 4 map to set 0 (line_addr % 2 == 0)
        c.access(0, AccessKind::Read); // set0 way0
        c.access(2 * 64, AccessKind::Read); // set0 way1
        c.access(0, AccessKind::Read); // touch line0 -> line2 is LRU
        let (hit, ev) = c.access(4 * 64, AccessKind::Read); // evicts line2
        assert!(!hit);
        assert_eq!(ev, Eviction::Clean);
        assert!(c.access(0, AccessKind::Read).0, "line0 survived");
        assert!(!c.access(2 * 64, AccessKind::Read).0, "line2 evicted");
    }

    #[test]
    fn fifo_evicts_oldest_insertion_even_if_recently_used() {
        // 2 sets x 2 ways; lines 0, 2, 4 map to set 0.
        let mut c = Cache::new(CacheConfig::with_policy(256, 2, ReplacementPolicy::Fifo));
        c.access(0, AccessKind::Read); // insert line 0
        c.access(2 * 64, AccessKind::Read); // insert line 2
        c.access(0, AccessKind::Read); // touch line 0 (FIFO ignores this)
        c.access(4 * 64, AccessKind::Read); // must evict line 0 (oldest insert)
        assert!(
            !c.access(0, AccessKind::Read).0,
            "line 0 was evicted under FIFO"
        );
        // Under LRU the same sequence would keep line 0 (see
        // lru_evicts_least_recently_used above).
    }

    #[test]
    fn policies_differ_only_in_victim_choice() {
        let mut lru = Cache::new(CacheConfig::new(256, 2));
        let mut fifo = Cache::new(CacheConfig::with_policy(256, 2, ReplacementPolicy::Fifo));
        // A streaming pattern with no reuse: identical stats either way.
        for i in 0..64u64 {
            lru.access(i * 64, AccessKind::Read);
            fifo.access(i * 64, AccessKind::Read);
        }
        assert_eq!(lru.stats(), fifo.stats());
    }

    #[test]
    fn dirty_eviction_reports_writeback_address() {
        let mut c = tiny();
        c.access(0, AccessKind::Write); // dirty line 0 in set 0
        c.access(2 * 64, AccessKind::Read); // fills way 1
        let (_, ev) = c.access(4 * 64, AccessKind::Read); // evicts dirty line 0
        assert_eq!(ev, Eviction::Dirty(0));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn dirty_eviction_reports_nonzero_set_and_tag_address() {
        let mut c = tiny(); // 2 sets x 2 ways; odd lines map to set 1.
        c.access(3 * 64, AccessKind::Write); // dirty line 3 in set 1
        c.access(5 * 64, AccessKind::Read); // fills way 1 of set 1
        let (_, ev) = c.access(7 * 64, AccessKind::Read); // evicts line 3
        assert_eq!(
            ev,
            Eviction::Dirty(3 * 64),
            "writeback address reconstructs tag AND set bits"
        );
    }

    #[test]
    fn fifo_dirty_eviction_reports_writeback_address() {
        let mut c = Cache::new(CacheConfig::with_policy(256, 2, ReplacementPolicy::Fifo));
        c.access(2 * 64, AccessKind::Write); // dirty line 2, set 0, oldest
        c.access(4 * 64, AccessKind::Read); // fills way 1 of set 0
        c.access(2 * 64, AccessKind::Write); // touch again; FIFO ignores it
        let (_, ev) = c.access(6 * 64, AccessKind::Read); // evicts line 2
        assert_eq!(ev, Eviction::Dirty(2 * 64));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn fifo_write_hit_does_not_refresh_insertion_age() {
        let mut c = Cache::new(CacheConfig::with_policy(256, 2, ReplacementPolicy::Fifo));
        c.access(0, AccessKind::Read); // line 0 oldest
        c.access(2 * 64, AccessKind::Read);
        c.access(0, AccessKind::Write); // write hit: dirties, no re-insert
        let (_, ev) = c.access(4 * 64, AccessKind::Read);
        assert_eq!(ev, Eviction::Dirty(0), "line 0 still evicted first");
    }

    #[test]
    fn access_range_through_matches_single_access_loop() {
        let mut batched = (tiny(), Cache::new(CacheConfig::new(512, 2)));
        let mut scalar = batched.clone();
        // Interleave ranges that wrap sets, alias, and mix kinds.
        let ranges = [
            (0u64, 6u64, AccessKind::Read),
            (2 * 64, 5, AccessKind::Write),
            (0, 3, AccessKind::Read),
            (7 * 64, 4, AccessKind::Write),
            (0, 0, AccessKind::Read), // empty range is a no-op
        ];
        for (base, n, kind) in ranges {
            let before = *scalar.1.stats();
            let mut misses = 0;
            for i in 0..n {
                let addr = base + i * LINE_BYTES;
                let (hit, ev) = scalar.0.access(addr, kind);
                if !hit {
                    misses += 1;
                    scalar.1.access(addr, kind);
                }
                if let Eviction::Dirty(victim) = ev {
                    scalar.1.access(victim, AccessKind::Write);
                }
            }
            let (got, down) = batched
                .0
                .access_range_through(&mut batched.1, base, n, kind);
            assert_eq!(got, misses);
            assert_eq!(batched.0.stats(), scalar.0.stats());
            assert_eq!(batched.1.stats(), scalar.1.stats());
            let mut expected_down = before;
            expected_down.add(&down);
            assert_eq!(&expected_down, scalar.1.stats());
            assert_eq!(batched.0.meta, scalar.0.meta);
            assert_eq!(batched.1.meta, scalar.1.meta);
        }
        assert!(scalar.0.stats().writebacks > 0, "pattern must write back");
    }

    #[test]
    fn fills_keep_invalid_ways_zero_behind_the_valid_prefix() {
        for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Fifo] {
            // 3 ways exercises the runtime-way-count copy.
            for ways in [2usize, 3, 4] {
                let mut c =
                    Cache::new(CacheConfig::with_policy(4 * 64 * ways as u64, ways, policy));
                for i in 0..64u64 {
                    let kind = if i % 3 == 0 {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    c.access((i * 7 % 23) * 64, kind);
                    assert!(c.ways_are_canonical(), "{policy:?} {ways}-way after {i}");
                }
            }
        }
    }

    #[test]
    fn write_allocate_fills_on_write_miss() {
        let mut c = tiny();
        assert!(!c.access(128, AccessKind::Write).0);
        assert_eq!(c.stats().write_misses, 1);
        assert!(
            c.access(128, AccessKind::Read).0,
            "write allocated the line"
        );
    }

    #[test]
    fn reset_clears_contents_and_stats() {
        let mut c = tiny();
        c.access(0, AccessKind::Write);
        c.reset();
        assert_eq!(c.valid_lines(), 0);
        assert_eq!(c.stats(), &CacheStats::default());
        assert!(!c.access(0, AccessKind::Read).0);
    }

    #[test]
    fn miss_rate_bounds() {
        let mut c = tiny();
        assert_eq!(c.stats().miss_rate(), 0.0);
        for i in 0..100u64 {
            c.access(i * 64, AccessKind::Read);
        }
        let mr = c.stats().miss_rate();
        assert!((0.0..=1.0).contains(&mr));
        assert_eq!(
            mr, 1.0,
            "streaming over 100 distinct lines in a 4-line cache"
        );
    }

    #[test]
    fn capacity_is_respected() {
        let mut c = tiny();
        for i in 0..32u64 {
            c.access(i * 64, AccessKind::Read);
        }
        assert_eq!(c.valid_lines(), 4, "2 sets x 2 ways");
    }
}
