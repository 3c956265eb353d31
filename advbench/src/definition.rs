//! The benchmark's definition — workloads, metric names, units, directions
//! and bounds — read from the repository's `BENCHMARK.json`, embedded at
//! build time so the runner, `compare` and the checked-in file can never
//! disagree.

use std::sync::OnceLock;

use crate::json::Json;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// How much worse `change` is than `base`, as a share of `base`;
    /// negative when `change` is better.
    pub fn worsening(self, base: f64, change: f64) -> f64 {
        let rel = (change - base) / base.abs();
        match self {
            Better::Lower => rel,
            Better::Higher => -rel,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Regression tolerance as a share of the base median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Definition {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Definition {
    /// The definition compiled into this binary.
    pub fn get() -> &'static Definition {
        static DEF: OnceLock<Definition> = OnceLock::new();
        DEF.get_or_init(|| {
            Definition::parse(include_str!("../../BENCHMARK.json"))
                .unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"))
        })
    }

    pub fn parse(text: &str) -> Result<Definition, String> {
        let doc = Json::parse(text)?;
        let field = |key: &str| doc.get(key).ok_or(format!("missing `{key}`"));
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            field(key)?
                .as_array()
                .ok_or(format!("`{key}` is not an array"))?
                .iter()
                .map(|m| {
                    let text = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or(format!("a `{key}` entry lacks `{k}`"))
                    };
                    let better = match text("better")?.as_str() {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        other => return Err(format!("unknown direction `{other}`")),
                    };
                    Ok(MetricDef {
                        name: text("name")?,
                        unit: text("unit")?,
                        better,
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        let workloads = field("workloads")?
            .as_array()
            .ok_or("`workloads` is not an array")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| "a workload lacks `name`".to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(Definition {
            run_seconds: field("run_seconds")?
                .as_f64()
                .ok_or("`run_seconds` is not a number")? as u64,
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The end-to-end or per-layer metric named `name`.
    pub fn metric(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_in_definition_is_well_formed() {
        let def = Definition::get();
        assert!(def.workloads.len() >= 2);
        assert!(def.end_to_end.iter().all(|m| m.bound.is_some()));
        let setup = def.metric("setup_s").expect("setup_s is defined");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        // Set-up time carries the largest bound, so work moved into set-up
        // shows without making set-up noise a false regression.
        let largest = def
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
        let mut names: Vec<&str> = def
            .end_to_end
            .iter()
            .chain(&def.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), def.end_to_end.len() + def.per_layer.len());
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((Better::Lower.worsening(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(10.0, 11.0) + 0.1).abs() < 1e-12);
    }
}
