//! The three workloads and what they share.

mod detailed;
mod sampled;
pub use sampled::{detailed_insts, rel_err_pct};
mod sweep;

use crate::check::Reports;
use crate::spans::Spans;
use parrot_bench::cli::{METRICS_INTERVAL, TRACE_CAP};
use parrot_core::SimReport;
use parrot_telemetry::{metrics, profile, trace};
use parrot_workloads::Workload;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 3] = ["detailed_200k", "sweep_44x7", "sampled_30m"];

/// The EXPERIMENTS.md budget: committed instructions per detailed run.
pub const EXPERIMENTS_INSTS: u64 = 200_000;

/// What the timed passes produced.
#[derive(Default)]
pub struct Tally {
    /// Operations attempted and failed (panicked, or output not equal to
    /// the reference).
    pub attempted: u64,
    pub failed: u64,
    /// Instructions the passes delivered: committed instructions of a
    /// detailed run, budget instructions of a sampled estimate.
    pub insts: u64,
    /// One latency sample per simulated result, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// The latest report per (model, app).
    pub reports: Reports,
    /// Host seconds, committed instructions and simulated cycles of the
    /// detailed runs timed from outside, per model.
    pub per_model: BTreeMap<String, (f64, u64, u64)>,
    /// Per-layer measurements the passes made themselves.
    pub layer: BTreeMap<String, f64>,
    /// Lines for stderr (failures, fidelity tables).
    pub notes: Vec<String>,
    /// Host seconds spent in the timed operations.
    pub op_secs: f64,
}

impl Tally {
    /// Count one operation whose outcome is `ok`; a failure is noted.
    pub fn op(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {e}"));
        }
    }

    pub fn keep(&mut self, r: SimReport) {
        self.reports.insert((r.model.clone(), r.app.clone()), r);
    }

    /// Count `secs` of host time spent in a timed operation.
    pub fn timed(&mut self, secs: f64) {
        self.op_secs += secs;
    }

    /// `cips`: instructions delivered per host-second of timed operations.
    pub fn cips(&self) -> f64 {
        self.insts as f64 / self.op_secs
    }

    /// Fold another tally's operation counts into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }
}

/// One workload, set up and ready for timed passes.
pub trait Bench {
    /// One pass over the workload's timed operations.
    fn pass(&mut self, sp: &mut Spans, t: &mut Tally);
    /// Every application the workload simulates.
    fn profiles(&self) -> Vec<parrot_workloads::AppProfile>;
    /// The built application the layer kernels replay.
    fn kernel_workload(&self) -> &Workload;
}

/// Set a workload up: build its applications and load its references.
pub fn setup(name: &str, seed: u64, root: &Path, sp: &mut Spans) -> Result<Box<dyn Bench>, String> {
    Ok(match name {
        "detailed_200k" => Box::new(detailed::Detailed::setup(seed, root, sp)?),
        "sweep_44x7" => Box::new(sweep::Sweep::setup(root, sp)?),
        "sampled_30m" => Box::new(sampled::Sampled::setup(root, sp)?),
        _ => unreachable!("names are checked when parsed"),
    })
}

/// Generate a workload's committed reference.
pub fn make_reference(name: &str, root: &Path) -> Result<(), String> {
    match name {
        "sampled_30m" => sampled::make_reference(root),
        "sweep_44x7" => sweep::make_reference(root),
        _ => Err(format!(
            "{name} checks against the committed sweep reference under results/; \
             regenerate it with the repository's `reproduce` binary"
        )),
    }
}

/// Install the sinks `reproduce --trace-out --metrics-out --profile` does.
pub fn install_sinks() {
    trace::install(trace::Tracer::new(TRACE_CAP));
    metrics::install(metrics::MetricsHub::new(METRICS_INTERVAL));
    profile::install(profile::Profiler::new());
}

/// Take the sinks and render every artifact in memory; returns the total
/// rendered bytes.
pub fn render_sinks() -> usize {
    let mut bytes = 0;
    if let Some(t) = trace::take() {
        bytes += t.to_chrome_json().len();
    }
    if let Some(h) = metrics::take() {
        bytes += h.to_jsonl().len();
    }
    if let Some(p) = profile::take() {
        bytes += p.report().len() + p.collapsed().len();
    }
    bytes
}

/// Run `f`, turning a panic into an error.
pub fn guarded<T>(what: &str, f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        format!("{what} panicked: {msg}")
    })
}

/// Build one application with a span.
pub fn build(profile: &parrot_workloads::AppProfile, sp: &mut Spans) -> Workload {
    sp.time(
        "workloads",
        &format!("Workload::build {}", profile.name),
        |_| Workload::build(profile),
    )
    .0
}

/// Check `got` against the reference report for its (model, app).
pub fn against(reference: &Reports, got: &SimReport) -> Result<(), String> {
    let want = reference
        .get(&(got.model.clone(), got.app.clone()))
        .ok_or_else(|| format!("{}/{}: no reference report", got.model, got.app))?;
    match crate::check::first_difference(got, want) {
        None => Ok(()),
        Some(d) => Err(format!("{}/{}: {d}", got.model, got.app)),
    }
}
