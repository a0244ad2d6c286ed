//! Host facts: provenance stamped on every result, peak memory and
//! process CPU time, read from `/proc` (Linux).

use parrot_telemetry::json::Value;
use std::path::Path;
use std::process::Command;

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, 100 on
/// every mainstream Linux configuration).
const USER_HZ: f64 = 100.0;

fn proc_field(file: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(file).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Peak resident set size of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.trim_end_matches(" kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// User plus system CPU seconds this process has used, all threads.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        f.get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(f64::NAN)
    };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Output of a short command, waited for; `"unknown"` when it fails.
fn command_output(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checkout's git commit, when the checkout is a git repository.
fn git_commit(root: &Path) -> String {
    if root.join(".git").exists() {
        command_output("git", &["rev-parse", "HEAD"], root)
    } else {
        "none (not a git checkout; see source_digest)".to_string()
    }
}

/// FNV-1a over every Rust source and manifest the simulator is built
/// from, in path order: identifies the code when the checkout carries no
/// git metadata.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let name = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        let body = std::fs::read(f).unwrap_or_default();
        for b in name.bytes().chain(body) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Where a result came from: code, inputs, command, toolchain and host.
pub fn provenance(root: &Path, workload: &str, seed: u64) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::obj([
        ("git_commit", Value::Str(git_commit(root))),
        ("source_digest", Value::Str(source_digest(root))),
        ("workload", Value::Str(workload.to_string())),
        ("seed", Value::Str(seed.to_string())),
        (
            "command_line",
            Value::Str(std::env::args().collect::<Vec<_>>().join(" ")),
        ),
        (
            "rustc",
            Value::Str(command_output("rustc", &["--version"], root)),
        ),
        ("nproc", Value::int(nproc as u64)),
        (
            "cpu_model",
            Value::Str(
                proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
            ),
        ),
        (
            "mem_total",
            Value::Str(proc_field("/proc/meminfo", "MemTotal").unwrap_or_else(|| "unknown".into())),
        ),
    ])
}
