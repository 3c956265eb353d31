//! `advbench` — measures AdvHunter end to end: verdicts served over TCP
//! the way `advhunter serve` serves them, plus the cold offline pipeline,
//! and in a traced run the same path layer by layer.
//!
//! ```text
//! advbench run [--workload W|all] [--seed N] [--seconds S] [--trace 0|1]
//!              [--traced] [--quick] [--repeat N] [--out FILE]
//! advbench compare <base.json> <change.json>
//! ```
//!
//! `run` with one workload measures it in this process, writes the results
//! document and prints a table followed by one JSON summary line. With
//! `all` (the default) or `--repeat`, every run happens in a child process
//! of its own and the documents are merged. `compare` judges a change's
//! document against a base's with the directions and bounds of
//! `BENCHMARK.json` and exits 1 when a metric got worse.

mod compare;
mod corpus;
mod definition;
mod host;
mod json;
mod layers;
mod offline;
mod report;
mod runner;
mod serve;
mod speed;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use crate::definition::Definition;
use crate::json::Json;
use crate::report::{summary_line, RunDoc};
use crate::runner::{Settings, Workload, WORKLOADS};

const USAGE: &str =
    "usage: advbench run [--workload W|all] [--seed N] [--seconds S] [--trace 0|1] \
                     [--traced] [--quick] [--repeat N] [--out FILE]\n       \
                     advbench compare <base.json> <change.json>";

const METHOD: &str = "Each workload runs in a process of its own. The monitor boots the way \
`advhunter serve` boots it (queue 64, micro-batch 8, blocking overload, 50 ms store watch, one \
exec thread per core) behind WireServer on 127.0.0.1; load comes from one AHP1 connection \
driven by a sender and a receiver thread. A run has 6 rounds: boot, warm-up, closed-loop \
slice with 32 outstanding, stop, and every other round one cold Pipeline::run at 20/24/6 \
images per class on a fresh store. setup_s: median of the boots, \
spawn_from_store to the first verdict. verdicts_per_s: median over the closed-loop slices of \
verdicts received per second. loaded_verdict_ms: median over the closed-loop slices of each \
slice's p50 time from send to verdict. offline_s: median of the cold pipelines. \
Timings are scaled to the reference speed by the median of reference probes interleaved with \
the slices (raw.* holds them as measured). adv_flag_rate: flagged share of the adversarial \
requests over all closed-loop slices. peak_rss_mb: VmHWM. Traced runs time calls into each \
layer's public functions over a fixed, seed-independent 512-request slice, and time an \
open loop at the nominal rate from each request's due time.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("advbench: error: {msg}");
            ExitCode::FAILURE
        }
    }
}

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
    quick: bool,
    repeat: usize,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        workload: "all".into(),
        seed: 1,
        seconds: Definition::get().run_seconds,
        traced: false,
        quick: false,
        repeat: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} needs a number"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = number(value()?)?,
            "--seconds" => a.seconds = number(value()?)?.max(1),
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--traced" => a.traced = true,
            "--quick" => a.quick = true,
            "--repeat" => a.repeat = number(value()?)?.max(1) as usize,
            "--out" => a.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.iter().any(|w| w.name == a.workload) {
        return Err(format!(
            "unknown workload {} (known: {}, all)",
            a.workload,
            WORKLOADS.map(|w| w.name).join(", ")
        ));
    }
    Ok(a)
}

impl RunArgs {
    fn settings(&self) -> Settings {
        Settings {
            seed: self.seed,
            seconds: self.seconds,
            quick: self.quick,
            traced: self.traced,
        }
    }

    fn default_out(&self, state: &Path) -> PathBuf {
        let mut name = format!("{}-seed{}", self.workload, self.seed);
        for (on, tag) in [(self.quick, "-quick"), (self.traced, "-traced")] {
            if on {
                name.push_str(tag);
            }
        }
        if self.repeat > 1 {
            name.push_str(&format!("-x{}", self.repeat));
        }
        state.join("results").join(format!("{name}.json"))
    }

    fn doc(&self, workloads: Vec<report::WorkloadResult>) -> RunDoc {
        RunDoc {
            host: host::host(),
            method: METHOD.into(),
            seed: self.seed,
            seconds: self.seconds,
            quick: self.quick,
            traced: self.traced,
            runs: 1,
            workloads,
        }
    }
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_doc(path: &Path) -> Result<RunDoc, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    RunDoc::from_json(&Json::parse(&text)?).map_err(|e| format!("{}: {e}", path.display()))
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let a = parse_run(args)?;
    let state = host::state_dir()?;
    if a.workload == "all" || a.repeat > 1 {
        return run_children(&a, &state);
    }
    let w: &Workload = WORKLOADS
        .iter()
        .find(|w| w.name == a.workload)
        .expect("workload validated while parsing");
    let (result, tracer) = runner::run_workload(w, &a.settings(), &state)?;
    if let Some(tracer) = tracer {
        write(
            &state.join(format!("trace-{}.json", w.name)),
            &tracer.to_json(w.name).compact(),
        )?;
    }
    let doc = a.doc(vec![result]);
    let out = a.out.clone().unwrap_or_else(|| a.default_out(&state));
    write(&out, &doc.to_json().pretty())?;
    print!("{}", doc.table());
    println!("results: {}", out.display());
    let def = Definition::get();
    let listed = if a.traced {
        &def.per_layer
    } else {
        &def.end_to_end
    };
    let names: Vec<&str> = listed.iter().map(|m| m.name.as_str()).collect();
    println!("{}", summary_line(&doc.workloads[0], &names)?);
    Ok(doc.workloads[0].correct)
}

/// Runs each selected workload `--repeat` times, each run in a fresh child
/// process so memory and allocator state are per run, and merges the
/// documents.
fn run_children(a: &RunArgs, state: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut ok = true;
    let mut docs = Vec::new();
    for w in WORKLOADS
        .iter()
        .filter(|w| a.workload == "all" || a.workload == w.name)
    {
        for rep in 0..a.repeat {
            let part = state
                .join("results")
                .join(format!("{}-part{rep}.json", w.name));
            let mut child = Command::new(&exe);
            child.args(["run", "--workload", w.name]);
            child.args([
                "--seed",
                &a.seed.to_string(),
                "--seconds",
                &a.seconds.to_string(),
            ]);
            child.args(["--trace", if a.traced { "1" } else { "0" }]);
            if a.quick {
                child.arg("--quick");
            }
            let status = child
                .arg("--out")
                .arg(&part)
                .stdout(Stdio::null())
                .status()
                .map_err(|e| format!("starting a {} run: {e}", w.name))?;
            ok &= status.success();
            match read_doc(&part) {
                Ok(doc) => docs.push(doc),
                Err(e) => {
                    eprintln!("advbench: {} run {} left no results: {e}", w.name, rep + 1);
                    ok = false;
                }
            }
            let _ = std::fs::remove_file(&part);
        }
    }
    let doc = if a.repeat > 1 {
        RunDoc::merge(docs).ok_or("no run produced results")?
    } else {
        a.doc(docs.into_iter().flat_map(|d| d.workloads).collect())
    };
    let out = a.out.clone().unwrap_or_else(|| a.default_out(state));
    write(&out, &doc.to_json().pretty())?;
    print!("{}", doc.table());
    println!("results: {}", out.display());
    Ok(ok && doc.workloads.iter().all(|w| w.correct))
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [base, change] = args else {
        return Err(USAGE.into());
    };
    let rows = compare::compare(
        Definition::get(),
        &read_doc(Path::new(base))?,
        &read_doc(Path::new(change))?,
    );
    print!("{}", compare::render(&rows));
    Ok(rows.iter().all(|r| r.outcome != compare::Outcome::Worse))
}
