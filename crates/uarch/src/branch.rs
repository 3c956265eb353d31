//! A bimodal (two-bit saturating counter) branch predictor.

/// Outcome of one predicted branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchOutcome {
    /// Whether the prediction matched the actual direction.
    pub correct: bool,
}

/// Bimodal branch predictor: a table of two-bit saturating counters indexed
/// by (hashed) branch PC.
///
/// Inference kernels are dominated by loop back-edges, which this predictor
/// learns after one iteration — reproducing the paper's observation that
/// `branches` and `branch-misses` carry almost no input-dependent signal.
///
/// # Example
///
/// ```
/// use advhunter_uarch::BranchPredictor;
///
/// let mut bp = BranchPredictor::new(10);
/// // A loop branch: taken 99 times, then falls through once.
/// let (branches, misses) = bp.predict_loop(0x400, 100);
/// assert_eq!(branches, 100);
/// assert!(misses <= 2, "warm-up plus the final fall-through");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchPredictor {
    counters: Vec<u8>,
    mask: u64,
    branches: u64,
    misses: u64,
}

impl BranchPredictor {
    /// Creates a predictor with `2^log2_entries` counters, initialized to
    /// weakly-taken.
    ///
    /// # Panics
    ///
    /// Panics if `log2_entries` is 0 or exceeds 24.
    pub fn new(log2_entries: u32) -> Self {
        assert!((1..=24).contains(&log2_entries), "table size out of range");
        let n = 1usize << log2_entries;
        Self {
            counters: vec![2; n], // weakly taken
            mask: (n - 1) as u64,
            branches: 0,
            misses: 0,
        }
    }

    /// Total predicted branches.
    pub fn branches(&self) -> u64 {
        self.branches
    }

    /// Total mispredictions.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Resets prediction state and counters.
    pub fn reset(&mut self) {
        self.counters.fill(2);
        self.branches = 0;
        self.misses = 0;
    }

    /// Predicts and retires a single branch at `pc` with direction `taken`.
    pub fn predict(&mut self, pc: u64, taken: bool) -> BranchOutcome {
        let idx = (hash_pc(pc) & self.mask) as usize;
        let counter = &mut self.counters[idx];
        let predicted_taken = *counter >= 2;
        let correct = predicted_taken == taken;
        self.branches += 1;
        if !correct {
            self.misses += 1;
        }
        if taken {
            *counter = (*counter + 1).min(3);
        } else {
            *counter = counter.saturating_sub(1);
        }
        BranchOutcome { correct }
    }

    /// Fast path for a counted loop at `pc`: `iterations - 1` taken
    /// back-edges followed by one not-taken exit. Returns
    /// `(branches, misses)` contributed.
    ///
    /// Equivalent to calling [`predict`](Self::predict) in a loop, but runs
    /// in O(1) for hot predictors — inference traces contain millions of
    /// loop branches.
    pub fn predict_loop(&mut self, pc: u64, iterations: u64) -> (u64, u64) {
        if iterations == 0 {
            return (0, 0);
        }
        let idx = (hash_pc(pc) & self.mask) as usize;
        let counter = &mut self.counters[idx];
        let mut misses = 0u64;
        let taken_count = iterations - 1;

        // Simulate the first (at most) two taken iterations exactly; after
        // that the counter is saturated at 3 and every taken branch hits.
        let mut c = *counter;
        let exact = taken_count.min(2);
        for _ in 0..exact {
            if c < 2 {
                misses += 1;
            }
            c = (c + 1).min(3);
        }
        // The final not-taken exit: mispredicted iff counter predicts taken.
        if c >= 2 {
            misses += 1;
        }
        c = c.saturating_sub(1);
        *counter = c;

        self.branches += iterations;
        self.misses += misses;
        (iterations, misses)
    }

    /// Retires `count` always-taken (or otherwise perfectly predicted)
    /// branches without touching the table — a fast path for unconditional
    /// jumps and calls.
    pub fn retire_predicted(&mut self, count: u64) {
        self.branches += count;
    }
}

fn hash_pc(pc: u64) -> u64 {
    // Fibonacci hashing spreads structured PCs across the table.
    pc.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 13
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_an_always_taken_branch() {
        let mut bp = BranchPredictor::new(8);
        for _ in 0..100 {
            bp.predict(0x1234, true);
        }
        assert_eq!(bp.branches(), 100);
        assert!(bp.misses() <= 1, "only possible warm-up miss");
    }

    #[test]
    fn alternating_branch_mispredicts_heavily() {
        let mut bp = BranchPredictor::new(8);
        let mut taken = false;
        for _ in 0..100 {
            bp.predict(0x88, taken);
            taken = !taken;
        }
        assert!(
            bp.misses() >= 40,
            "bimodal cannot learn alternation: {}",
            bp.misses()
        );
    }

    #[test]
    fn predict_loop_matches_explicit_simulation() {
        for iters in [1u64, 2, 3, 10, 1000] {
            let mut fast = BranchPredictor::new(8);
            let mut slow = BranchPredictor::new(8);
            let (b, m) = fast.predict_loop(0x40, iters);
            for i in 0..iters {
                slow.predict(0x40, i + 1 < iters);
            }
            assert_eq!(b, slow.branches(), "iters={iters}");
            assert_eq!(m, slow.misses(), "iters={iters}");
            assert_eq!(fast.branches(), slow.branches());
            assert_eq!(fast.misses(), slow.misses());
        }
    }

    #[test]
    fn repeated_loops_settle_to_one_miss_per_execution() {
        let mut bp = BranchPredictor::new(8);
        bp.predict_loop(0x40, 64);
        let before = bp.misses();
        bp.predict_loop(0x40, 64);
        let per_loop = bp.misses() - before;
        assert_eq!(per_loop, 1, "steady state: only the exit mispredicts");
    }

    #[test]
    fn retire_predicted_counts_branches_only() {
        let mut bp = BranchPredictor::new(8);
        bp.retire_predicted(42);
        assert_eq!(bp.branches(), 42);
        assert_eq!(bp.misses(), 0);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut bp = BranchPredictor::new(8);
        bp.predict(1, false);
        bp.reset();
        assert_eq!(bp.branches(), 0);
        assert_eq!(bp.misses(), 0);
    }

    #[test]
    fn distinct_pcs_use_distinct_counters() {
        let mut bp = BranchPredictor::new(12);
        // Train pc A taken, pc B not-taken; both should be learned.
        for _ in 0..10 {
            bp.predict(0xA000, true);
            bp.predict(0xB000, false);
        }
        let before = bp.misses();
        bp.predict(0xA000, true);
        bp.predict(0xB000, false);
        assert_eq!(bp.misses(), before);
    }
}
