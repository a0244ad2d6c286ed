//! `sweep_44x7`: the full 44 × 7 matrix the way `reproduce --trace-out
//! --metrics-out --profile` runs it — through `ResultSet::load_or_run_with`
//! into a fresh cache directory on 2 workers with the tracer, metrics hub
//! and profiler installed — followed by rendering the three artifacts in
//! memory. The matrix is seed-independent.
//!
//! The budget is a quarter of the EXPERIMENTS.md one. A 200k sweep takes
//! about 23 s, so a 40 s run fits one and times only 23 s of work, which
//! on a shared host is as fast as the other tenants let those 23 s be; at
//! 50k a sweep takes 5–8 s and a run averages over the whole 40 s.

use super::{against, guarded, install_sinks, render_sinks, Bench, Tally};
use crate::check::{load_sweep_reference, self_check, Reports};
use crate::spans::Spans;
use parrot_bench::{ResultSet, SweepConfig};
use parrot_core::Model;
use parrot_telemetry::shard::{install_progress, take_progress, Progress};
use parrot_workloads::{all_apps, AppProfile, Workload};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sweep worker threads.
const WORKERS: usize = 2;

/// Committed instructions per run of the sweep.
pub const SWEEP_INSTS: u64 = 50_000;

/// Where the sweep's reference lives, relative to the repository root,
/// under the name `SweepConfig::new().insts(SWEEP_INSTS).cache_file()`
/// gives it.
const REFERENCE_DIR: &str = "perfbench/reference";

/// The sweep's configuration, writing its result cache under `dir`.
fn config(dir: &Path) -> SweepConfig {
    SweepConfig::new()
        .insts(SWEEP_INSTS)
        .jobs(WORKERS)
        .cache_dir(dir)
}

pub struct Sweep {
    reference: Reports,
    scratch: PathBuf,
    /// Built only for the layer kernels; the sweep builds its own.
    kernel: Workload,
}

impl Sweep {
    pub fn setup(root: &Path, sp: &mut Spans) -> Result<Sweep, String> {
        let (reference, _) = sp.time("perfbench", "load reference", |_| {
            load_sweep_reference(&root.join(REFERENCE_DIR), SWEEP_INSTS)
        });
        let reference = reference?;
        self_check(&reference)?;
        let expected = all_apps().len() * Model::ALL.len();
        if reference.len() != expected {
            return Err(format!(
                "reference holds {} reports, not {expected}",
                reference.len()
            ));
        }
        let kernel = super::build(&all_apps()[0], sp);
        Ok(Sweep {
            reference,
            scratch: root
                .join("perfbench/out")
                .join(format!("sweep-cache-{}", std::process::id())),
            kernel,
        })
    }
}

impl Bench for Sweep {
    fn pass(&mut self, sp: &mut Spans, t: &mut Tally) {
        let _ = std::fs::remove_dir_all(&self.scratch);
        let cfg = config(&self.scratch);
        let pass_start = Instant::now();
        install_sinks();
        let apps = all_apps().len();
        let progress = Progress::new(apps as u64);
        install_progress(Arc::clone(&progress));
        // Watch the sweep's progress feed: the time each application's 7
        // results became available, from the start of the sweep. Polled
        // every 2 ms: both cores run sweep workers, and a tighter poll takes
        // time from them.
        let done = AtomicBool::new(false);
        let start = Instant::now();
        let (set, ready) = std::thread::scope(|s| {
            let watcher = s.spawn(|| {
                let mut ready = Vec::with_capacity(apps);
                while !done.load(Ordering::Acquire) {
                    while (ready.len() as u64) < progress.done() {
                        ready.push(start.elapsed().as_secs_f64() * 1e3);
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                ready
            });
            let (set, _) = sp.time("bench", "ResultSet::load_or_run_with", |_| {
                guarded("sweep", || ResultSet::load_or_run_with(&cfg))
            });
            done.store(true, Ordering::Release);
            (set, watcher.join().expect("progress watcher"))
        });
        take_progress();
        let (bytes, render_s) = sp.time("telemetry", "render artifacts", |_| render_sinks());
        t.timed(pass_start.elapsed().as_secs_f64());
        let _ = std::fs::remove_dir_all(&self.scratch);
        t.layer.insert("telemetry.render_s".into(), render_s);
        t.layer
            .insert("telemetry.artifact_mb".into(), bytes as f64 / 1e6);

        let set = match set {
            Ok(set) => set,
            Err(e) => {
                for _ in 0..self.reference.len() {
                    t.op(Err(e.clone()));
                }
                return;
            }
        };
        t.latencies_ms.extend(ready);
        for (m, app) in self.reference.keys() {
            let model = Model::from_name(m).expect("reference models are registered");
            let outcome = guarded("ResultSet::get", || set.get(model, app).clone()).and_then(|r| {
                against(&self.reference, &r)?;
                t.insts += r.insts;
                t.keep(r);
                Ok(())
            });
            t.op(outcome);
        }
    }

    fn profiles(&self) -> Vec<AppProfile> {
        all_apps()
    }

    fn kernel_workload(&self) -> &Workload {
        &self.kernel
    }
}

/// Write the sweep's reference: the matrix run without sinks into the
/// reference directory, in the repository's own result-cache format and
/// stamped with its configuration fingerprint.
pub fn make_reference(root: &Path) -> Result<(), String> {
    let dir = root.join(REFERENCE_DIR);
    let path = config(&dir).cache_file();
    match std::fs::remove_file(&path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            return Err(format!("{}: {e}", path.display()))
        }
        _ => {}
    }
    ResultSet::load_or_run_with(&config(&dir));
    if !path.exists() {
        return Err(format!("the sweep wrote no {}", path.display()));
    }
    eprintln!("wrote {}", path.display());
    Ok(())
}
