//! Table 3: detection F1 for the four cache-related HPC events across
//! untargeted FGSM strengths in scenario S2.
//!
//! Paper reference (ε = 0.01 / 0.05 / 0.1 on real CIFAR-10):
//! L1-dcache-load-misses 0.7696 / 0.7258 / 0.6748, L1-icache-load-misses
//! 0.0547 / 0.0622 / 0.0564, LLC-load-misses 0.9394 / 0.7938 / 0.3595,
//! LLC-store-misses 0.3214 / 0.3347 / 0.2113. The synthetic substrate maps
//! the sweep to ε = 0.05 / 0.10 / 0.20 (see EXPERIMENTS.md); the shape to
//! check is the events' ordering: data-cache events carry signal, the
//! instruction cache does not.

use advhunter::experiment::run_attack_detection;
use advhunter::scenario::ScenarioId;
use advhunter::ExecOptions;
use advhunter_attacks::{Attack, AttackGoal};
use advhunter_bench::{prepare_detector, prepare_scenario, scaled, section};
use advhunter_uarch::HpcEvent;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let art = prepare_scenario(ScenarioId::S2);
    let prep = prepare_detector(&art, None, Some(scaled(40, 15)), 0x7AB3_0003);
    let mut rng = StdRng::seed_from_u64(0x7AB3_0004);

    let epsilons = [0.05f32, 0.10, 0.20];
    let events = HpcEvent::CACHE_ABLATION;
    let mut table = vec![vec![0.0f64; epsilons.len()]; events.len()];
    let mut adv_acc = vec![0.0f32; epsilons.len()];

    for (j, &eps) in epsilons.iter().enumerate() {
        let run = run_attack_detection(
            &art,
            &prep.detector,
            &Attack::fgsm(eps),
            AttackGoal::Untargeted,
            &events,
            Some(scaled(250, 50)),
            &prep.clean_test,
            &mut rng,
            &ExecOptions::seeded(0x7AB3_0005),
        );
        adv_acc[j] = run.adversarial_accuracy;
        for (i, ev) in run.per_event.iter().enumerate() {
            table[i][j] = ev.f1();
        }
    }

    section("Table 3: F1 per cache-related event vs untargeted FGSM strength (S2)");
    print!("{:<24}", "event \\ eps");
    for &eps in &epsilons {
        print!(" {:>10.2}", eps);
    }
    println!("     paper (ε=.01/.05/.1)");
    let paper = [
        [0.7696, 0.7258, 0.6748],
        [0.0547, 0.0622, 0.0564],
        [0.9394, 0.7938, 0.3595],
        [0.3214, 0.3347, 0.2113],
    ];
    for (i, event) in events.iter().enumerate() {
        print!("{:<24}", event.perf_name());
        for f1 in &table[i][..epsilons.len()] {
            print!(" {f1:>10.4}");
        }
        println!(
            "     {:.4} / {:.4} / {:.4}",
            paper[i][0], paper[i][1], paper[i][2]
        );
    }
    print!("{:<24}", "(model adv-accuracy %)");
    for &a in &adv_acc {
        print!(" {:>10.1}", a * 100.0);
    }
    println!();
}
