//! A `perf_event_open`-flavoured counter group over the simulated machine.

use crate::branch::BranchPredictor;
use crate::events::{HpcCounts, HpcEvent};
use crate::hierarchy::{MachineConfig, MemoryHierarchy};

/// Programs the nine [`HpcEvent`]s over a simulated machine and exposes the
/// enable / run / disable / read workflow of Linux `perf`.
///
/// Memory and branch activity routed through the group while it is enabled
/// is counted; activity while disabled still updates the microarchitectural
/// state (caches stay warm) but is excluded from the readings, mirroring how
/// a defender measures only the inference window.
///
/// # Example
///
/// ```
/// use advhunter_uarch::{CounterGroup, HpcEvent, MachineConfig};
///
/// let mut g = CounterGroup::new(MachineConfig::default());
/// g.load(0x40);               // not yet counted
/// g.enable();
/// g.load(0x40);               // counted: L1d hit
/// g.retire_instructions(10);
/// g.disable();
/// assert_eq!(g.read().get(HpcEvent::Instructions), 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterGroup {
    memory: MemoryHierarchy,
    predictor: BranchPredictor,
    enabled: bool,
    instructions: u64,
    /// Snapshot of everything at the last `enable()`.
    baseline: HpcCounts,
}

impl CounterGroup {
    /// Creates a disabled group over a cold machine.
    pub fn new(config: MachineConfig) -> Self {
        Self {
            memory: MemoryHierarchy::new(config),
            predictor: BranchPredictor::new(config.predictor_log2_entries),
            enabled: false,
            instructions: 0,
            baseline: HpcCounts::default(),
        }
    }

    /// Whether the group is currently counting.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Starts counting from the current machine state.
    pub fn enable(&mut self) {
        self.baseline = self.absolute_counts();
        self.enabled = true;
    }

    /// Stops counting.
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Reads the counters accumulated since the last [`enable`](Self::enable).
    pub fn read(&self) -> HpcCounts {
        self.absolute_counts().since(&self.baseline)
    }

    /// Resets the machine to cold caches and zeroed counters.
    pub fn reset_machine(&mut self) {
        self.memory.reset();
        self.predictor.reset();
        self.instructions = 0;
        self.baseline = HpcCounts::default();
    }

    /// Data load at `addr`.
    pub fn load(&mut self, addr: u64) {
        self.memory.load(addr);
    }

    /// Data store at `addr`.
    pub fn store(&mut self, addr: u64) {
        self.memory.store(addr);
    }

    /// Instruction fetch at `addr`.
    pub fn fetch(&mut self, addr: u64) {
        self.memory.fetch(addr);
    }

    /// Streaming data reads of `lines` consecutive cache lines starting at
    /// `base_addr` — equivalent to one [`load`](Self::load) per line in
    /// ascending order, simulated through the batched hierarchy path.
    pub fn stream_read(&mut self, base_addr: u64, lines: u64) {
        self.memory.load_range(base_addr, lines);
    }

    /// Streaming data writes of `lines` consecutive cache lines starting at
    /// `base_addr` — equivalent to one [`store`](Self::store) per line.
    pub fn stream_write(&mut self, base_addr: u64, lines: u64) {
        self.memory.store_range(base_addr, lines);
    }

    /// Instruction fetches of `lines` consecutive cache lines starting at
    /// `base_addr` — equivalent to one [`fetch`](Self::fetch) per line.
    pub fn fetch_range(&mut self, base_addr: u64, lines: u64) {
        self.memory.fetch_range(base_addr, lines);
    }

    /// [`stream_read`](Self::stream_read) over lines that nothing has
    /// touched since the last [`reset_machine`](Self::reset_machine): no
    /// cache level can hold them, so each line is filled without a tag
    /// scan. The counts and the machine state are those of `stream_read`.
    /// Debug builds check that every filled line is absent. With the
    /// prefetcher enabled, which fills LLC lines no access touched, this
    /// scans like `stream_read`.
    pub fn fill_read(&mut self, base_addr: u64, lines: u64) {
        self.memory.fill_load_range(base_addr, lines);
    }

    /// [`stream_write`](Self::stream_write) over untouched lines, as in
    /// [`fill_read`](Self::fill_read).
    pub fn fill_write(&mut self, base_addr: u64, lines: u64) {
        self.memory.fill_store_range(base_addr, lines);
    }

    /// [`fetch_range`](Self::fetch_range) over untouched lines, as in
    /// [`fill_read`](Self::fill_read).
    pub fn fill_fetch(&mut self, base_addr: u64, lines: u64) {
        self.memory.fill_fetch_range(base_addr, lines);
    }

    /// Retires `n` non-branch instructions.
    pub fn retire_instructions(&mut self, n: u64) {
        self.instructions += n;
    }

    /// Retires one conditional branch at `pc` with direction `taken`.
    pub fn branch(&mut self, pc: u64, taken: bool) {
        self.predictor.predict(pc, taken);
        self.instructions += 1;
    }

    /// Retires a whole counted loop's branches at once (fast path).
    pub fn loop_branches(&mut self, pc: u64, iterations: u64) {
        let (branches, _) = self.predictor.predict_loop(pc, iterations);
        self.instructions += branches;
    }

    /// Retires `count` perfectly predicted branches (calls/unconditional jumps).
    pub fn predicted_branches(&mut self, count: u64) {
        self.predictor.retire_predicted(count);
        self.instructions += count;
    }

    /// Direct access to the memory hierarchy (e.g. for occupancy checks).
    pub fn memory(&self) -> &MemoryHierarchy {
        &self.memory
    }

    fn absolute_counts(&self) -> HpcCounts {
        let mut counts = HpcCounts::default();
        counts.set(HpcEvent::Instructions, self.instructions);
        counts.set(HpcEvent::Branches, self.predictor.branches());
        counts.set(HpcEvent::BranchMisses, self.predictor.misses());
        self.memory.fill_counts(&mut counts);
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_reports_only_enabled_window() {
        let mut g = CounterGroup::new(MachineConfig::default());
        g.load(0);
        g.retire_instructions(100);
        g.enable();
        g.load(64);
        g.retire_instructions(5);
        g.disable();
        let c = g.read();
        assert_eq!(c.get(HpcEvent::Instructions), 5);
        assert_eq!(c.get(HpcEvent::L1dLoadMisses), 1);
    }

    #[test]
    fn warm_cache_before_enable_suppresses_misses() {
        let mut g = CounterGroup::new(MachineConfig::default());
        g.load(0); // warm the line
        g.enable();
        g.load(0);
        assert_eq!(g.read().get(HpcEvent::CacheMisses), 0);
    }

    #[test]
    fn branch_events_flow_into_counts() {
        let mut g = CounterGroup::new(MachineConfig::default());
        g.enable();
        g.loop_branches(0x40, 128);
        let c = g.read();
        assert_eq!(c.get(HpcEvent::Branches), 128);
        assert!(c.get(HpcEvent::BranchMisses) <= 2);
        assert_eq!(
            c.get(HpcEvent::Instructions),
            128,
            "branches retire as instructions"
        );
    }

    #[test]
    fn predicted_branches_never_miss() {
        let mut g = CounterGroup::new(MachineConfig::default());
        g.enable();
        g.predicted_branches(50);
        let c = g.read();
        assert_eq!(c.get(HpcEvent::Branches), 50);
        assert_eq!(c.get(HpcEvent::BranchMisses), 0);
    }

    #[test]
    fn reset_machine_restores_cold_state() {
        let mut g = CounterGroup::new(MachineConfig::default());
        g.enable();
        g.load(0);
        g.reset_machine();
        g.enable();
        g.load(0);
        assert_eq!(g.read().get(HpcEvent::CacheMisses), 1, "cold again");
    }
}
