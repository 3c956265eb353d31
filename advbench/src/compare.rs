//! `advbench compare`: judges a change's results against a base's, per
//! (workload, end-to-end metric), with each metric's direction and bound
//! from `BENCHMARK.json`.

use crate::definition::{Better, Definition};
use crate::report::{Metric, RunDoc};
use crate::stats::spread;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Better,
    Worse,
    Unchanged,
    /// The run-to-run spread is wider than the bound, so a difference
    /// within it cannot be told from noise.
    Unresolved,
}

impl Outcome {
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Better => "better",
            Outcome::Worse => "worse",
            Outcome::Unchanged => "unchanged",
            Outcome::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: f64,
    pub change: f64,
    /// Signed worsening of the change's median, as a share of the base's.
    pub worsening: f64,
    /// The wider of the two sides' interquartile spreads.
    pub spread: f64,
    pub bound: f64,
    pub outcome: Outcome,
}

/// Every change value beats every base value.
fn dominates(better: Better, base: &Metric, change: &Metric) -> bool {
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    match better {
        Better::Lower => max(&change.values) < min(&base.values),
        Better::Higher => min(&change.values) > max(&base.values),
    }
}

pub fn judge(better: Better, bound: f64, base: &Metric, change: &Metric) -> (f64, f64, Outcome) {
    let worsening = better.worsening(base.value(), change.value());
    let noise = spread(&base.values).max(spread(&change.values));
    let outcome = if noise > bound {
        if dominates(better, base, change) {
            Outcome::Better
        } else {
            Outcome::Unresolved
        }
    } else if worsening > bound {
        Outcome::Worse
    } else if worsening < -bound {
        Outcome::Better
    } else {
        Outcome::Unchanged
    };
    (worsening, noise, outcome)
}

/// One row per (workload present in both documents, end-to-end metric).
/// A metric one side did not record is unresolved.
pub fn compare(def: &Definition, base: &RunDoc, change: &RunDoc) -> Vec<Row> {
    let mut rows = Vec::new();
    for b in &base.workloads {
        let Some(c) = change.workloads.iter().find(|c| c.name == b.name) else {
            continue;
        };
        for m in &def.end_to_end {
            let bound = m.bound.unwrap_or(0.0);
            let row = match (b.metric(&m.name), c.metric(&m.name)) {
                (Some(bm), Some(cm)) => {
                    let (worsening, spread, outcome) = judge(m.better, bound, bm, cm);
                    Row {
                        workload: b.name.clone(),
                        metric: m.name.clone(),
                        base: bm.value(),
                        change: cm.value(),
                        worsening,
                        spread,
                        bound,
                        outcome,
                    }
                }
                (bm, cm) => Row {
                    workload: b.name.clone(),
                    metric: m.name.clone(),
                    base: bm.map_or(f64::NAN, Metric::value),
                    change: cm.map_or(f64::NAN, Metric::value),
                    worsening: f64::NAN,
                    spread: f64::NAN,
                    bound,
                    outcome: Outcome::Unresolved,
                },
            };
            rows.push(row);
        }
    }
    rows
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<12} {:<16} {:>12} {:>12} {:>9} {:>8} {:>7}  outcome\n",
        "workload", "metric", "base", "change", "worse%", "spread%", "bound%"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:<16} {:>12.4} {:>12.4} {:>+9.2} {:>8.2} {:>7.1}  {}\n",
            r.workload,
            r.metric,
            r.base,
            r.change,
            r.worsening * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            r.outcome.label()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::sample_doc;

    fn ms(values: &[f64]) -> Metric {
        Metric::new("ms", values.to_vec())
    }

    #[test]
    fn outcomes_follow_bound_and_direction() {
        let base = ms(&[1.00, 1.01, 0.99, 1.00, 1.02]);
        let slower = ms(&[1.20, 1.21, 1.19, 1.20, 1.22]);
        let faster = ms(&[0.80, 0.81, 0.79, 0.80, 0.82]);
        let same = ms(&[1.03, 1.04, 1.02, 1.03, 1.05]);
        assert_eq!(judge(Better::Lower, 0.1, &base, &slower).2, Outcome::Worse);
        assert_eq!(judge(Better::Lower, 0.1, &base, &faster).2, Outcome::Better);
        assert_eq!(
            judge(Better::Lower, 0.1, &base, &same).2,
            Outcome::Unchanged
        );
        // For a throughput, the same numbers read the other way round.
        assert_eq!(
            judge(Better::Higher, 0.1, &base, &slower).2,
            Outcome::Better
        );
        assert_eq!(judge(Better::Higher, 0.1, &base, &faster).2, Outcome::Worse);
    }

    #[test]
    fn noise_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let noisy_base = ms(&[1.0, 1.3, 0.8, 1.1, 0.9]);
        let noisy_change = ms(&[1.2, 1.5, 1.0, 1.3, 1.1]);
        assert_eq!(
            judge(Better::Lower, 0.1, &noisy_base, &noisy_change).2,
            Outcome::Unresolved
        );
        let clear_win = ms(&[0.5, 0.6, 0.45, 0.55, 0.7]);
        assert_eq!(
            judge(Better::Lower, 0.1, &noisy_base, &clear_win).2,
            Outcome::Better
        );
    }

    #[test]
    fn compares_documents_per_workload_and_metric() {
        let def = Definition::get();
        let base = sample_doc("serve_case", &[1.30, 1.31, 1.32]);
        let bound = def.metric("loaded_verdict_ms").unwrap().bound.unwrap();
        let slower = 1.31 * (1.0 + 1.5 * bound);
        let change = sample_doc("serve_case", &[slower - 0.01, slower, slower + 0.01]);
        let rows = compare(def, &base, &change);
        assert_eq!(rows.len(), def.end_to_end.len());
        let latency = rows
            .iter()
            .find(|r| r.metric == "loaded_verdict_ms")
            .unwrap();
        assert_eq!(latency.outcome, Outcome::Worse);
        let rss = rows.iter().find(|r| r.metric == "peak_rss_mb").unwrap();
        assert_eq!(rss.outcome, Outcome::Unchanged);
        // Metrics neither document recorded cannot be judged.
        let offline = rows.iter().find(|r| r.metric == "offline_s").unwrap();
        assert_eq!(offline.outcome, Outcome::Unresolved);
        assert!(render(&rows).contains("worse"));
    }
}
