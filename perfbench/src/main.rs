//! The PARROT simulator benchmark.
//!
//! ```text
//! cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <detailed_200k|sweep_44x7|sampled_30m> --seed <n> \
//!     --seconds <s> --trace <0|1> [--make-reference]
//! ```
//!
//! Each run sets its workload up, then repeats the workload's timed pass
//! until `--seconds` would be exceeded (at least one pass), checks every
//! simulated output against a committed reference, and prints one JSON
//! result as the last line of stdout. The set-up is repeated before the
//! first pass and after every pass, and `setup_s` is the median of all
//! those set-ups. `--trace 1` instead runs one untraced and one traced
//! measurement, replays the layer kernels, writes the spans under
//! `perfbench/out/` and prints the per-layer metrics. See README.md.

mod check;
mod host;
mod layers;
mod paper;
mod spans;
mod workloads;

use parrot_telemetry::json::Value;
use spans::Spans;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Bench, Tally};

/// Each round of set-ups repeats the set-up at least `SETUP_MIN_REPS`
/// times, and more (up to `SETUP_MAX_REPS`) until `SETUP_ROUND_SECS` have
/// passed. A round runs before the first pass and after every pass, so
/// `setup_s`, the median over all rounds, samples the host over the whole
/// run rather than one moment of it.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 20;
const SETUP_ROUND_SECS: f64 = 0.3;

/// `bench.cpu_util` is process CPU seconds over wall seconds times this
/// many cores: the sweep's worker count.
const CPU_UTIL_CORES: f64 = 2.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    make_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        make_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    t => return Err(format!("--trace takes 0 or 1, not {t}")),
                }
            }
            "--make-reference" => args.make_reference = true,
            _ => return Err(format!("unknown argument {a}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", workloads::NAMES));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be a positive number".to_string());
    }
    Ok(args)
}

/// The repository root this benchmark was built in.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The simulator's status lines are noise here; the benchmark reports
    // on stderr itself.
    parrot_telemetry::log::set_level(parrot_telemetry::log::Level::Quiet);
    let root = repo_root();
    let result = if args.make_reference {
        workloads::make_reference(&args.workload, &root)
    } else {
        run(&args, &root)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One round of set-ups, timed into `times`; the last instance is kept.
fn setup_round(args: &Args, root: &Path, times: &mut Vec<f64>) -> Result<Box<dyn Bench>, String> {
    let mut sp = Spans::new(false);
    let (mut reps, mut spent) = (0, 0.0);
    loop {
        let t0 = Instant::now();
        let bench = workloads::setup(&args.workload, args.seed, root, &mut sp)?;
        let secs = t0.elapsed().as_secs_f64();
        times.push(secs);
        reps += 1;
        spent += secs;
        if reps >= SETUP_MAX_REPS || (reps >= SETUP_MIN_REPS && spent >= SETUP_ROUND_SECS) {
            return Ok(bench);
        }
    }
}

/// Run timed passes until the next one would overrun `seconds` (at least
/// one), calling `after_pass` after each. Returns the pass durations.
fn timed(
    bench: &mut dyn Bench,
    seconds: f64,
    sp: &mut Spans,
    tally: &mut Tally,
    after_pass: &mut dyn FnMut() -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let mut passes = Vec::new();
    let mut total = 0.0;
    loop {
        let ((), secs) = sp.time("perfbench", "pass", |sp| bench.pass(sp, tally));
        passes.push(secs);
        total += secs;
        after_pass()?;
        if total + secs > seconds {
            return Ok(passes);
        }
    }
}

fn run(args: &Args, root: &Path) -> Result<(), String> {
    let provenance = host::provenance(root, &args.workload, args.seed);
    let mut sp = Spans::new(false);
    let mut setup_times = Vec::new();
    let mut bench = setup_round(args, root, &mut setup_times)?;
    let mut tally = Tally::default();
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let passes = timed(bench.as_mut(), budget, &mut sp, &mut tally, &mut || {
        setup_round(args, root, &mut setup_times).map(drop)
    })?;
    let cips = tally.cips();
    let apps: Vec<String> = bench
        .profiles()
        .iter()
        .map(|p| p.name.to_string())
        .collect();
    let gaps = paper::gaps(&tally.reports, &apps);
    eprint!("{}", paper::table(&gaps));
    for line in &tally.notes {
        eprintln!("{line}");
    }

    let metrics = if args.trace {
        // The traced measurement: the same passes with spans on, then the
        // layer kernels on the workload's own inputs.
        sp = Spans::new(true);
        let mut traced = Tally::default();
        let cpu0 = host::cpu_seconds();
        let passes_traced = timed(bench.as_mut(), budget, &mut sp, &mut traced, &mut || Ok(()))?;
        let cpu = host::cpu_seconds() - cpu0;
        let wall: f64 = passes_traced.iter().sum();
        let traced_cips = traced.cips();
        let mut m = traced.layer.clone();
        m.insert("core.paper_gap_pct".into(), paper::mean_gap(&gaps));
        let mut lat = tally.latencies_ms.clone();
        m.insert("core.sim_ms_p50".into(), quantile(&mut lat, 0.5));
        m.insert("core.sim_ms_p90".into(), quantile(&mut lat, 0.9));
        m.insert(
            "tracing.overhead_pct".into(),
            (cips - traced_cips) / cips * 100.0,
        );
        m.insert("bench.sweep_s".into(), wall / passes_traced.len() as f64);
        m.insert("bench.cpu_util".into(), cpu / (wall * CPU_UTIL_CORES));
        layers::per_model(&traced, &mut m);
        layers::report_counts(&traced.reports, &mut m);
        layers::kernels(bench.as_ref(), &mut sp, &mut m);
        layers::self_times(&sp, &mut m);
        let out = root.join("perfbench/out");
        std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
        let path = out.join(format!("spans-{}-{}.json", args.workload, args.seed));
        std::fs::write(&path, sp.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "perfbench: wrote {} spans to {}",
            sp.spans().len(),
            path.display()
        );
        tally.absorb(traced);
        let missing: Vec<&str> = layers::PER_LAYER
            .iter()
            .copied()
            .filter(|k| !m.contains_key(*k))
            .collect();
        if !missing.is_empty() {
            return Err(format!("per-layer metrics not measured: {missing:?}"));
        }
        layers::PER_LAYER
            .iter()
            .map(|k| (k.to_string(), m[*k], layers::unit(k)))
            .collect::<Vec<_>>()
    } else {
        vec![
            ("cips".to_string(), cips, "1/s"),
            ("setup_s".to_string(), quantile(&mut setup_times, 0.5), "s"),
            ("peak_rss_mb".to_string(), host::peak_rss_mb(), "MB"),
        ]
    };

    eprintln!(
        "perfbench: {} {} passes, {} operations, {} failed, {} latency samples",
        args.workload,
        passes.len(),
        tally.attempted,
        tally.failed,
        tally.latencies_ms.len()
    );
    println!("{}", Value::obj([("provenance", provenance)]).to_json());
    let metrics = metrics.into_iter().map(|(k, v, unit)| {
        (
            k,
            Value::obj([
                ("value", Value::Num(v)),
                ("unit", Value::Str(unit.to_string())),
            ]),
        )
    });
    let result = Value::obj([
        (
            "correct",
            Value::Bool(tally.failed == 0 && tally.attempted > 0),
        ),
        ("attempted", Value::int(tally.attempted)),
        ("failed", Value::int(tally.failed)),
        ("metrics", Value::Obj(metrics.collect())),
    ]);
    println!("{}", result.to_json());
    Ok(())
}

/// Linear-interpolated quantile `q` of `v` (sorted in place); NaN, which
/// prints as `null`, when `v` is empty.
fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}
