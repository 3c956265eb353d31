//! Property-based tests for the microarchitecture simulator.

use advhunter_uarch::{
    AccessKind, BranchPredictor, Cache, CacheConfig, HpcEvent, MachineConfig, MemoryHierarchy,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cache_hits_plus_misses_equal_accesses(
        addrs in proptest::collection::vec(0u64..1_000_000, 1..400),
        writes in proptest::collection::vec(any::<bool>(), 1..400),
    ) {
        let mut c = Cache::new(CacheConfig::new(4096, 4));
        for (a, w) in addrs.iter().zip(writes.iter().cycle()) {
            let kind = if *w { AccessKind::Write } else { AccessKind::Read };
            c.access(*a, kind);
        }
        let s = c.stats();
        prop_assert_eq!(s.accesses(), addrs.len() as u64);
        prop_assert!(s.misses() <= s.accesses());
        prop_assert!((0.0..=1.0).contains(&s.miss_rate()));
    }

    #[test]
    fn cache_occupancy_never_exceeds_capacity(
        addrs in proptest::collection::vec(0u64..1_000_000, 1..300)
    ) {
        let cfg = CacheConfig::new(2048, 2);
        let capacity = (cfg.num_sets() as usize) * cfg.ways();
        let mut c = Cache::new(cfg);
        for a in &addrs {
            c.access(*a, AccessKind::Read);
            prop_assert!(c.valid_lines() <= capacity);
        }
    }

    #[test]
    fn repeated_access_to_one_line_hits_after_first(
        addr in 0u64..1_000_000, n in 2usize..50
    ) {
        let mut c = Cache::new(CacheConfig::new(4096, 4));
        c.access(addr, AccessKind::Read);
        for _ in 1..n {
            let (hit, _) = c.access(addr, AccessKind::Read);
            prop_assert!(hit);
        }
    }

    #[test]
    fn access_range_through_matches_loop_of_single_accesses(
        lines in proptest::collection::vec(0u64..512, 1..40),
        lens in proptest::collection::vec(0u64..48, 1..40),
        writes in proptest::collection::vec(any::<bool>(), 1..40),
    ) {
        let levels = || (Cache::new(CacheConfig::new(2048, 2)), Cache::new(CacheConfig::new(4096, 4)));
        let (mut l1, mut next) = levels();
        let (mut scalar_l1, mut scalar_next) = levels();
        for ((line, n), w) in lines
            .iter()
            .zip(lens.iter().cycle())
            .zip(writes.iter().cycle())
        {
            let base = line * 64;
            let kind = if *w { AccessKind::Write } else { AccessKind::Read };
            let mut expected_misses = 0u64;
            for i in 0..*n {
                let addr = base + i * 64;
                let (hit, ev) = scalar_l1.access(addr, kind);
                if !hit {
                    expected_misses += 1;
                    scalar_next.access(addr, kind);
                }
                if let advhunter_uarch::Eviction::Dirty(victim) = ev {
                    scalar_next.access(victim, AccessKind::Write);
                }
            }
            let (misses, _) = l1.access_range_through(&mut next, base, *n, kind);
            prop_assert_eq!(misses, expected_misses);
            prop_assert_eq!(&l1, &scalar_l1);
            prop_assert_eq!(&next, &scalar_next);
        }
    }

    #[test]
    fn hierarchy_range_apis_match_scalar_loops(
        lines in proptest::collection::vec(0u64..2048, 1..30),
        lens in proptest::collection::vec(0u64..32, 1..30),
        ops in proptest::collection::vec(0u8..3, 1..30),
    ) {
        let mut batched = MemoryHierarchy::new(MachineConfig::default());
        let mut scalar = MemoryHierarchy::new(MachineConfig::default());
        for ((line, n), op) in lines
            .iter()
            .zip(lens.iter().cycle())
            .zip(ops.iter().cycle())
        {
            let base = line * 64;
            match op {
                0 => {
                    batched.load_range(base, *n);
                    for i in 0..*n { scalar.load(base + i * 64); }
                }
                1 => {
                    batched.store_range(base, *n);
                    for i in 0..*n { scalar.store(base + i * 64); }
                }
                _ => {
                    batched.fetch_range(base, *n);
                    for i in 0..*n { scalar.fetch(base + i * 64); }
                }
            }
            prop_assert_eq!(batched.stats(), scalar.stats());
        }
    }

    #[test]
    fn hierarchy_event_invariants(
        addrs in proptest::collection::vec(0u64..4_000_000, 1..500),
        ops in proptest::collection::vec(0u8..3, 1..500),
    ) {
        let mut m = MemoryHierarchy::new(MachineConfig::default());
        for (a, op) in addrs.iter().zip(ops.iter().cycle()) {
            match op {
                0 => m.load(*a),
                1 => m.store(*a),
                _ => m.fetch(*a),
            }
        }
        let s = m.stats();
        // LLC sees only L1 misses and write-backs.
        prop_assert!(s.llc_loads <= s.l1d_load_misses + s.l1i_fetch_misses);
        prop_assert!(s.llc_load_misses <= s.llc_loads);
        prop_assert!(s.llc_store_misses <= s.llc_stores);
        prop_assert!(s.l1d_load_misses <= s.l1d_loads);
        prop_assert!(s.l1i_fetch_misses <= s.l1i_fetches);
        // perf identity: cache-misses = LLC load misses + LLC store misses.
        prop_assert_eq!(s.llc_misses(), s.llc_load_misses + s.llc_store_misses);
        prop_assert!(s.llc_misses() <= s.llc_references());
    }

    #[test]
    fn predictor_misses_never_exceed_branches(
        dirs in proptest::collection::vec(any::<bool>(), 1..300),
        pcs in proptest::collection::vec(0u64..1024, 1..300),
    ) {
        let mut bp = BranchPredictor::new(8);
        for (d, pc) in dirs.iter().zip(pcs.iter().cycle()) {
            bp.predict(*pc, *d);
        }
        prop_assert_eq!(bp.branches(), dirs.len() as u64);
        prop_assert!(bp.misses() <= bp.branches());
    }

    #[test]
    fn predict_loop_equals_elementwise_prediction(
        iters in proptest::collection::vec(1u64..64, 1..20),
        pcs in proptest::collection::vec(0u64..256, 1..20),
    ) {
        let mut fast = BranchPredictor::new(8);
        let mut slow = BranchPredictor::new(8);
        for (n, pc) in iters.iter().zip(pcs.iter().cycle()) {
            fast.predict_loop(*pc, *n);
            for i in 0..*n {
                slow.predict(*pc, i + 1 < *n);
            }
        }
        prop_assert_eq!(fast.branches(), slow.branches());
        prop_assert_eq!(fast.misses(), slow.misses());
    }

    #[test]
    fn noise_mean_tracks_truth(seed in 0u64..1000) {
        use advhunter_uarch::{HpcCounts, NoiseModel};
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut truth = HpcCounts::default();
        truth.set(HpcEvent::CacheMisses, 100_000);
        let model = NoiseModel::default();
        let mean = model.measure_mean(&truth, 50, &mut rng).get(HpcEvent::CacheMisses);
        prop_assert!((mean - 100_000.0).abs() < 2_000.0, "mean {mean}");
    }
}
