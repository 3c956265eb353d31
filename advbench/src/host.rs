//! What a result is tied to — the machine, the toolchain, the source tree —
//! and the process counters read from procfs.

use std::path::{Path, PathBuf};
use std::process::Command;

use advhunter::FingerprintBuilder;

use crate::report::Host;

/// The repository the benchmark was built from (its parent directory).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// Where runs keep stores, results and traces: `advbench/` inside the
/// Cargo target directory this binary was built into.
pub fn state_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    // <target>/<profile>/advbench
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("the benchmark binary is not inside a target directory")?;
    Ok(target.join("advbench"))
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

pub fn host() -> Host {
    let root = repo_root();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    // Ask git only inside a git checkout: elsewhere it would search the
    // directories above for one.
    let commit = root
        .join(".git")
        .exists()
        .then(|| {
            let root = root.to_string_lossy();
            command_line("git", &["-C", &root, "rev-parse", "--short=12", "HEAD"])
        })
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    Host {
        cores: std::thread::available_parallelism().map_or(1, usize::from),
        cpu,
        commit,
        rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
    }
}

/// A digest of the library sources (`crates/` and `specs/`): stores
/// trained by one version of the code are never served by another.
pub fn source_digest() -> Result<String, String> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                walk(&path, out)?;
            } else if path
                .extension()
                .is_some_and(|e| e == "rs" || e == "toml" || e == "ahg")
            {
                out.push(path);
            }
        }
        Ok(())
    }
    let root = repo_root();
    let mut files = Vec::new();
    for dir in ["crates", "specs"] {
        walk(&root.join(dir), &mut files).map_err(|e| format!("reading {dir}/: {e}"))?;
    }
    files.sort();
    let mut digest = FingerprintBuilder::new("advbench.sources.v1");
    for path in files {
        let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let relative = path.strip_prefix(&root).unwrap_or(&path);
        digest
            .push_str(&relative.to_string_lossy())
            .push_bytes(&bytes);
    }
    Ok(digest.finish().to_string())
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// User plus system CPU time of the whole process (all threads), in
/// seconds, at the kernel's 100 Hz tick granularity.
pub fn process_cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3 (state);
    // utime and stime are fields 14 and 15.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(user), Some(system)) => Ok((user + system) / 100.0),
        _ => Err("unexpected /proc/self/stat layout".into()),
    }
}

/// Total bytes of the files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| {
            let path = e.path();
            if path.is_dir() {
                dir_bytes(&path)
            } else {
                e.metadata().map_or(0, |m| m.len())
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn procfs_counters_are_readable_and_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
        let busy: u64 = (0..2_000_000u64).map(std::hint::black_box).sum();
        assert!(busy > 0);
        assert!(process_cpu_s().unwrap() >= 0.0);
    }

    #[test]
    fn source_digest_is_stable() {
        assert_eq!(source_digest().unwrap(), source_digest().unwrap());
    }
}
