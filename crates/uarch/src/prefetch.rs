//! A next-line hardware prefetcher.
//!
//! Real parts aggressively prefetch on streaming access patterns, and that
//! traffic lands in `cache-references` (and can displace useful lines).
//! The simulator keeps the prefetcher **off by default** — the calibrated
//! noise model already accounts for prefetch-induced variance statistically
//! — but the mechanism is available for the microarchitectural ablations
//! and for users who want the extra fidelity.

/// Configuration of the next-line prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchConfig {
    /// Whether the prefetcher issues any requests.
    pub enabled: bool,
    /// How many sequential lines ahead to fetch on a detected stream.
    pub degree: u8,
    /// Consecutive-line accesses needed before a stream is "confirmed".
    pub confirm_after: u8,
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            degree: 2,
            confirm_after: 2,
        }
    }
}

impl PrefetchConfig {
    /// An enabled prefetcher with typical settings.
    pub fn aggressive() -> Self {
        Self {
            enabled: true,
            degree: 4,
            confirm_after: 1,
        }
    }
}

/// Detects sequential streams over line addresses and proposes prefetch
/// candidates.
///
/// # Example
///
/// ```
/// use advhunter_uarch::{NextLinePrefetcher, PrefetchConfig};
///
/// let mut pf = NextLinePrefetcher::new(PrefetchConfig::aggressive());
/// assert!(pf.observe(0x1000).is_empty(), "first touch: no stream yet");
/// let lines = pf.observe(0x1040); // sequential: stream confirmed
/// assert_eq!(lines, vec![0x1080, 0x10C0, 0x1100, 0x1140]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NextLinePrefetcher {
    config: PrefetchConfig,
    last_line: Option<u64>,
    run_length: u8,
    issued: u64,
}

impl NextLinePrefetcher {
    /// Creates a prefetcher.
    pub fn new(config: PrefetchConfig) -> Self {
        Self {
            config,
            last_line: None,
            run_length: 0,
            issued: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &PrefetchConfig {
        &self.config
    }

    /// Total prefetch requests issued.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Observes a demand access at byte address `addr` and returns the byte
    /// addresses the prefetcher would fetch.
    pub fn observe(&mut self, addr: u64) -> Vec<u64> {
        if !self.config.enabled {
            return Vec::new();
        }
        let line = addr / crate::LINE_BYTES;
        let sequential = self.last_line == Some(line.wrapping_sub(1));
        if self.last_line == Some(line) {
            // Same line: no state change, no prefetch.
            return Vec::new();
        }
        self.run_length = if sequential {
            self.run_length.saturating_add(1)
        } else {
            0
        };
        self.last_line = Some(line);
        if self.run_length < self.config.confirm_after {
            return Vec::new();
        }
        let out: Vec<u64> = (1..=self.config.degree as u64)
            .map(|d| (line + d) * crate::LINE_BYTES)
            .collect();
        self.issued += out.len() as u64;
        out
    }

    /// Resets stream-detection state and counters.
    pub fn reset(&mut self) {
        self.last_line = None;
        self.run_length = 0;
        self.issued = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_prefetcher_is_silent() {
        let mut pf = NextLinePrefetcher::new(PrefetchConfig::default());
        for i in 0..100u64 {
            assert!(pf.observe(i * 64).is_empty());
        }
        assert_eq!(pf.issued(), 0);
    }

    #[test]
    fn stream_is_confirmed_after_threshold() {
        let mut pf = NextLinePrefetcher::new(PrefetchConfig {
            enabled: true,
            degree: 1,
            confirm_after: 2,
        });
        assert!(pf.observe(0).is_empty());
        assert!(pf.observe(64).is_empty(), "run length 1 < 2");
        assert_eq!(pf.observe(128), vec![192], "run length 2: confirmed");
        assert_eq!(pf.observe(192), vec![256], "stream continues");
    }

    #[test]
    fn random_accesses_never_confirm() {
        let mut pf = NextLinePrefetcher::new(PrefetchConfig::aggressive());
        // confirm_after = 1 still needs one sequential pair.
        assert!(pf.observe(0).is_empty());
        assert!(pf.observe(10 * 64).is_empty());
        assert!(pf.observe(3 * 64).is_empty());
        assert_eq!(pf.issued(), 0);
    }

    #[test]
    fn repeated_same_line_does_not_advance_stream() {
        let mut pf = NextLinePrefetcher::new(PrefetchConfig::aggressive());
        pf.observe(0);
        assert!(pf.observe(0).is_empty());
        assert!(pf.observe(32).is_empty(), "same line, different offset");
        let fetched = pf.observe(64);
        assert!(!fetched.is_empty(), "sequential line after the repeats");
    }

    #[test]
    fn degree_controls_fanout() {
        let mut pf = NextLinePrefetcher::new(PrefetchConfig {
            enabled: true,
            degree: 3,
            confirm_after: 1,
        });
        pf.observe(0);
        let lines = pf.observe(64);
        assert_eq!(lines, vec![128, 192, 256]);
        assert_eq!(pf.issued(), 3);
    }

    #[test]
    fn reset_clears_state() {
        let mut pf = NextLinePrefetcher::new(PrefetchConfig::aggressive());
        pf.observe(0);
        pf.observe(64);
        pf.reset();
        assert_eq!(pf.issued(), 0);
        assert!(pf.observe(128).is_empty(), "no stream after reset");
    }
}
