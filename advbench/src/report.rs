//! The self-describing results document:
//! `{bench, host:{cores, cpu, commit, rustc}, method, config,
//!   metrics:{"<workload>/<metric>": {p50, p99, n, unit, values, spread_pct}},
//!   workloads:{<workload>: {corpus_digest, correct, verified, attempted,
//!   failed, phases}}}`.
//!
//! A metric's `values` are its raw samples — per phase, per boot or per
//! repetition within one run, or one value per run in a document merged
//! from repeated runs — and `p50` is their median.

use crate::json::{obj, Json};
use crate::stats::{median, percentile, spread};

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub unit: String,
    pub values: Vec<f64>,
}

impl Metric {
    pub fn new(unit: &str, values: Vec<f64>) -> Self {
        Self {
            unit: unit.to_string(),
            values,
        }
    }

    /// The reported value: the median of the raw values.
    pub fn value(&self) -> f64 {
        median(&self.values)
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    pub cores: usize,
    pub cpu: String,
    pub commit: String,
    pub rustc: String,
}

/// Requests one phase sent and how they ended.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseCount {
    pub phase: String,
    pub sent: u64,
    pub succeeded: u64,
    pub failed: u64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    pub corpus_digest: String,
    /// Every correctness gate passed.
    pub correct: bool,
    /// Verdicts checked bit for bit against the reference recomputation.
    pub verified: u64,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, Metric)>,
    pub phases: Vec<PhaseCount>,
}

impl WorkloadResult {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, m)| m)
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct RunDoc {
    pub host: Host,
    pub method: String,
    pub seed: u64,
    pub seconds: u64,
    pub quick: bool,
    pub traced: bool,
    /// Runs merged into this document (1 for a single run).
    pub runs: u64,
    pub workloads: Vec<WorkloadResult>,
}

impl RunDoc {
    pub fn to_json(&self) -> Json {
        let mut metrics = Vec::new();
        let mut workloads = Vec::new();
        for w in &self.workloads {
            for (name, m) in &w.metrics {
                metrics.push((
                    format!("{}/{name}", w.name),
                    obj([
                        ("p50", m.value().into()),
                        ("p99", percentile(&m.values, 0.99).into()),
                        ("n", (m.values.len() as u64).into()),
                        ("unit", m.unit.as_str().into()),
                        ("values", m.values.clone().into()),
                        ("spread_pct", (spread(&m.values) * 100.0).into()),
                    ]),
                ));
            }
            let phases = w
                .phases
                .iter()
                .map(|p| {
                    obj([
                        ("phase", p.phase.as_str().into()),
                        ("sent", p.sent.into()),
                        ("succeeded", p.succeeded.into()),
                        ("failed", p.failed.into()),
                    ])
                })
                .collect();
            workloads.push((
                w.name.clone(),
                obj([
                    ("corpus_digest", w.corpus_digest.as_str().into()),
                    ("correct", w.correct.into()),
                    ("verified", w.verified.into()),
                    ("attempted", w.attempted.into()),
                    ("failed", w.failed.into()),
                    ("phases", Json::Arr(phases)),
                ]),
            ));
        }
        obj([
            ("bench", "advbench".into()),
            (
                "host",
                obj([
                    ("cores", (self.host.cores as u64).into()),
                    ("cpu", self.host.cpu.as_str().into()),
                    ("commit", self.host.commit.as_str().into()),
                    ("rustc", self.host.rustc.as_str().into()),
                ]),
            ),
            ("method", self.method.as_str().into()),
            (
                "config",
                obj([
                    ("seed", self.seed.into()),
                    ("seconds", self.seconds.into()),
                    ("quick", self.quick.into()),
                    ("traced", self.traced.into()),
                    ("runs", self.runs.into()),
                ]),
            ),
            ("metrics", Json::Obj(metrics)),
            ("workloads", Json::Obj(workloads)),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<RunDoc, String> {
        let text = |v: &Json, k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("missing string `{k}`"))
        };
        let num = |v: &Json, k: &str| -> Result<f64, String> {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("missing number `{k}`"))
        };
        let flag = |v: &Json, k: &str| -> Result<bool, String> {
            v.get(k)
                .and_then(Json::as_bool)
                .ok_or(format!("missing boolean `{k}`"))
        };
        let host = doc.get("host").ok_or("missing `host`")?;
        let config = doc.get("config").ok_or("missing `config`")?;
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or("missing `metrics`")?;
        let mut workloads = Vec::new();
        for (name, w) in doc
            .get("workloads")
            .and_then(Json::as_object)
            .ok_or("missing `workloads`")?
        {
            let prefix = format!("{name}/");
            let metrics = metrics
                .iter()
                .filter_map(|(key, m)| Some((key.strip_prefix(&prefix)?, m)))
                .map(|(key, m)| {
                    let values = m
                        .get("values")
                        .and_then(Json::as_array)
                        .ok_or(format!("metric {key} lacks `values`"))?
                        .iter()
                        .map(|v| v.as_f64().ok_or(format!("metric {key}: non-numeric value")))
                        .collect::<Result<_, _>>()?;
                    Ok((key.to_string(), Metric::new(&text(m, "unit")?, values)))
                })
                .collect::<Result<_, String>>()?;
            let phases = w
                .get("phases")
                .and_then(Json::as_array)
                .ok_or("missing `phases`")?
                .iter()
                .map(|p| {
                    Ok(PhaseCount {
                        phase: text(p, "phase")?,
                        sent: num(p, "sent")? as u64,
                        succeeded: num(p, "succeeded")? as u64,
                        failed: num(p, "failed")? as u64,
                    })
                })
                .collect::<Result<_, String>>()?;
            workloads.push(WorkloadResult {
                name: name.clone(),
                corpus_digest: text(w, "corpus_digest")?,
                correct: flag(w, "correct")?,
                verified: num(w, "verified")? as u64,
                attempted: num(w, "attempted")? as u64,
                failed: num(w, "failed")? as u64,
                metrics,
                phases,
            });
        }
        Ok(RunDoc {
            host: Host {
                cores: num(host, "cores")? as usize,
                cpu: text(host, "cpu")?,
                commit: text(host, "commit")?,
                rustc: text(host, "rustc")?,
            },
            method: text(doc, "method")?,
            seed: num(config, "seed")? as u64,
            seconds: num(config, "seconds")? as u64,
            quick: flag(config, "quick")?,
            traced: flag(config, "traced")?,
            runs: num(config, "runs")? as u64,
            workloads,
        })
    }

    /// Folds repeated runs into one document: each metric's values become
    /// its per-run medians, so `compare` sees run-to-run spread.
    pub fn merge(docs: Vec<RunDoc>) -> Option<RunDoc> {
        let mut merged = RunDoc {
            runs: 0,
            workloads: Vec::new(),
            ..docs.first()?.clone()
        };
        // Runs folded in so far, per workload.
        let mut runs: Vec<u64> = Vec::new();
        for w in docs.into_iter().flat_map(|d| d.workloads) {
            let pos = match merged.workloads.iter().position(|m| m.name == w.name) {
                Some(pos) => pos,
                None => {
                    merged.workloads.push(WorkloadResult {
                        correct: true,
                        verified: 0,
                        attempted: 0,
                        failed: 0,
                        metrics: Vec::new(),
                        phases: Vec::new(),
                        ..w.clone()
                    });
                    runs.push(0);
                    merged.workloads.len() - 1
                }
            };
            runs[pos] += 1;
            let into = &mut merged.workloads[pos];
            into.correct &= w.correct && w.corpus_digest == into.corpus_digest;
            into.verified += w.verified;
            into.attempted += w.attempted;
            into.failed += w.failed;
            for (name, m) in &w.metrics {
                match into.metrics.iter_mut().find(|(n, _)| n == name) {
                    Some((_, acc)) => acc.values.push(m.value()),
                    None => into
                        .metrics
                        .push((name.clone(), Metric::new(&m.unit, vec![m.value()]))),
                }
            }
            let run = runs[pos];
            into.phases.extend(w.phases.into_iter().map(|p| PhaseCount {
                phase: format!("run{run}/{}", p.phase),
                ..p
            }));
        }
        merged.runs = runs.into_iter().max().unwrap_or(0);
        Some(merged)
    }

    /// One line per metric, for people.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for w in &self.workloads {
            out.push_str(&format!(
                "{}: correct={} verified={} attempted={} failed={} corpus={}\n",
                w.name, w.correct, w.verified, w.attempted, w.failed, w.corpus_digest
            ));
            for (name, m) in &w.metrics {
                out.push_str(&format!(
                    "  {name:<38} {:>14.4} {:<6} n={:<3} spread={:.1}%\n",
                    m.value(),
                    m.unit,
                    m.values.len(),
                    spread(&m.values) * 100.0
                ));
            }
        }
        out
    }
}

/// The one-line summary that ends a run's output: `{correct, attempted, failed,
/// metrics:{name:{value, unit}}}` over exactly the metrics in `names`.
pub fn summary_line(w: &WorkloadResult, names: &[&str]) -> Result<String, String> {
    let metrics = names
        .iter()
        .map(|&name| {
            let m = w
                .metric(name)
                .ok_or(format!("{}: metric {name} was not measured", w.name))?;
            Ok((
                name.to_string(),
                obj([
                    ("value", m.value().into()),
                    ("unit", m.unit.as_str().into()),
                ]),
            ))
        })
        .collect::<Result<_, String>>()?;
    Ok(obj([
        ("correct", w.correct.into()),
        ("attempted", w.attempted.into()),
        ("failed", w.failed.into()),
        ("metrics", Json::Obj(metrics)),
    ])
    .compact())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn sample_doc(workload: &str, latency: &[f64]) -> RunDoc {
        RunDoc {
            host: Host {
                cores: 2,
                cpu: "Test CPU \"quoted\"".into(),
                commit: "abc123".into(),
                rustc: "rustc 1.0".into(),
            },
            method: "median of phases".into(),
            seed: 1,
            seconds: 20,
            quick: false,
            traced: false,
            runs: 1,
            workloads: vec![WorkloadResult {
                name: workload.into(),
                corpus_digest: "00ff".into(),
                correct: true,
                verified: 512,
                attempted: 4000,
                failed: 0,
                metrics: vec![
                    (
                        "loaded_verdict_ms".into(),
                        Metric::new("ms", latency.to_vec()),
                    ),
                    ("peak_rss_mb".into(), Metric::new("MB", vec![123.25])),
                ],
                phases: vec![
                    PhaseCount {
                        phase: "boot".into(),
                        sent: 3,
                        succeeded: 3,
                        failed: 0,
                    },
                    PhaseCount {
                        phase: "open-1".into(),
                        sent: 1250,
                        succeeded: 1250,
                        failed: 0,
                    },
                ],
            }],
        }
    }

    #[test]
    fn schema_round_trips_through_json_text() {
        let doc = sample_doc("serve_case", &[1.31, 1.29, 1.402_345_678_9]);
        let json = doc.to_json();
        let m = json
            .get("metrics")
            .unwrap()
            .get("serve_case/loaded_verdict_ms")
            .unwrap();
        assert_eq!(m.get("p50").unwrap().as_f64(), Some(1.31));
        assert_eq!(m.get("n").unwrap().as_f64(), Some(3.0));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("ms"));
        assert!(m.get("p99").is_some() && m.get("spread_pct").is_some());
        let parsed = RunDoc::from_json(&Json::parse(&json.pretty()).unwrap()).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn merging_runs_keeps_one_median_per_run() {
        let a = sample_doc("serve_case", &[1.0, 2.0, 3.0]);
        let b = sample_doc("serve_case", &[4.0, 5.0, 6.0]);
        let merged = RunDoc::merge(vec![a, b]).unwrap();
        assert_eq!(merged.runs, 2);
        let w = &merged.workloads[0];
        assert_eq!(
            w.metric("loaded_verdict_ms").unwrap().values,
            vec![2.0, 5.0]
        );
        assert_eq!(w.attempted, 8000);
        assert_eq!(w.phases.len(), 4);
        assert_eq!(w.phases[0].phase, "run1/boot");
        assert_eq!(w.phases[2].phase, "run2/boot");
    }

    #[test]
    fn summary_line_names_exactly_the_requested_metrics() {
        let doc = sample_doc("serve_s1", &[3.5]);
        let line = summary_line(&doc.workloads[0], &["loaded_verdict_ms"]).unwrap();
        let parsed = Json::parse(&line).unwrap();
        let metrics = parsed.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), 1);
        assert_eq!(metrics[0].1.get("value").unwrap().as_f64(), Some(3.5));
        assert_eq!(parsed.get("attempted").unwrap().as_f64(), Some(4000.0));
        assert!(summary_line(&doc.workloads[0], &["offline_s"]).is_err());
    }
}
