//! Table 2: per-category detection performance for the five core HPC
//! events in scenario S2 under targeted FGSM (ε = 0.5, target 'frog').
//!
//! Each row compares clean 'frog' test images against adversarial examples
//! originally from one source category but misclassified as 'frog'; the
//! detector scores both under the 'frog' GMMs per event. The paper's
//! reference (overall row): instructions 50.14 % / F1 0.0515, branches
//! 49.97 / 0.0446, branch-misses 50.29 / 0.0572, cache-references 55.02 /
//! 0.1947, cache-misses 98.98 / 0.9892.

use advhunter::experiment::{by_true_class, detection_confusion, measure_examples, LabeledSample};
use advhunter::scenario::ScenarioId;
use advhunter::{BinaryConfusion, ExecOptions};
use advhunter_attacks::{attack_dataset, Attack, AttackGoal};
use advhunter_bench::{prepare_detector, prepare_scenario, section};
use advhunter_uarch::HpcEvent;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let art = prepare_scenario(ScenarioId::S2);
    let prep = prepare_detector(&art, None, None, 0x7AB2);
    let mut rng = StdRng::seed_from_u64(0x7AB3);
    let target = art.target_class();
    let names = art.class_names();

    // Targeted FGSM over the whole test split: sources are all categories
    // except the target.
    let report = attack_dataset(
        &art.model,
        &art.split.test,
        &Attack::fgsm(0.5),
        AttackGoal::Targeted(target),
        None,
        &mut rng,
    );
    eprintln!(
        "targeted adversarial accuracy: {:.2}% (paper: 94.04%), {} successful AEs",
        report.targeted_accuracy * 100.0,
        report.examples.len()
    );
    let adv = measure_examples(&art, &report.examples, &ExecOptions::seeded(0x7AB4));
    let clean_target: Vec<LabeledSample> = prep
        .clean_test
        .iter()
        .filter(|s| s.true_class == target)
        .cloned()
        .collect();

    section(&format!(
        "Table 2: per-category accuracy / F1 per event (S2, targeted FGSM ε=0.5, target '{}')",
        names[target]
    ));
    let events = HpcEvent::CORE;
    print!("{:<12}", "category");
    for e in &events {
        print!(" | {:^20}", e.perf_name());
    }
    println!();
    print!("{:-<12}", "");
    for _ in &events {
        print!("-+-{:-<20}", "");
    }
    println!();

    let mut overall: Vec<BinaryConfusion> = vec![BinaryConfusion::default(); events.len()];
    for (category, name) in names.iter().enumerate().take(art.num_classes()) {
        if category == target {
            continue;
        }
        let adv_cat = by_true_class(&adv, category);
        if adv_cat.is_empty() {
            println!("{name:<12} | (no successful AEs)");
            continue;
        }
        print!("{name:<12}");
        for (i, event) in events.iter().enumerate() {
            let c = detection_confusion(&prep.detector, *event, &clean_target, &adv_cat);
            overall[i].merge(&c);
            print!(" | {:>7.2}%  F1 {:.4}", c.accuracy() * 100.0, c.f1());
        }
        println!();
    }

    print!("{:<12}", "overall");
    for (i, _) in events.iter().enumerate() {
        print!(
            " | {:>7.2}%  F1 {:.4}",
            overall[i].accuracy() * 100.0,
            overall[i].f1()
        );
    }
    println!();
    println!(
        "{:<12} | {:>7}%  F1 {:<6} | {:>7}%  F1 {:<6} | {:>7}%  F1 {:<6} | {:>7}%  F1 {:<6} | {:>7}%  F1 {:<6}",
        "paper", 50.14, 0.0515, 49.97, 0.0446, 50.29, 0.0572, 55.02, 0.1947, 98.98, 0.9892
    );
    println!(
        "\nShape check: cache-misses must dominate; control-flow events must be\n\
         near chance; cache-references sits slightly above chance."
    );
}
