//! `sampled_30m`: SimPoint-sampled estimates for gcc (SpecInt) at 30M
//! instructions on all 7 models, along the sweep runner's path: capture,
//! `build_plan`, `SampleWarmth::build`, then 7 runs each using the replay
//! capture, the plan and the warmed snapshots.
//!
//! One application: a pass over gcc and swim took 17–20 s, so a 40 s run
//! fitted one or two passes and timed anywhere from 20 to 40 s of work;
//! a pass over gcc takes 8–11 s and a run times 30–40 s of it.
//!
//! The sampling spec is the default one `results/sampling.json` documents,
//! whatever the benchmark seed: the projection seed sets the number of
//! clusters, and with it the work of a pass (gcc and swim select 6 to 9
//! clusters across seeds, moving `cips` by up to 30%), so a seed-driven
//! spec would spread every timing across seeds by more than any bound.
//! With the spec fixed, every estimate is deterministic and is checked
//! exactly against a committed sampled reference, and its error against
//! the committed full-detail reference is a fidelity figure.

use super::{against, build, guarded, Bench, Tally};
use crate::check::{parse_reference, reference_document, self_check, Reports};
use crate::spans::Spans;
use parrot_bench::{config_fingerprint, SweepConfig};
use parrot_core::{
    build_plan, effective_warmup, MachineConfig, Model, SamplePlan, SampleWarmth, SamplingSpec,
    SimReport, SimRequest,
};
use parrot_workloads::tracefmt::{capture, DEFAULT_SLICE_INSTS};
use parrot_workloads::{app_by_name, AppProfile, Workload};
use std::path::Path;
use std::sync::Arc;

/// The budget `results/sampling.json` documents.
pub const BUDGET: u64 = 30_000_000;

/// The sampled applications.
pub const APPS: [&str; 1] = ["gcc"];

/// The full-detail and sampled references, relative to the repository
/// root.
const FULL_REFERENCE: &str = "perfbench/reference/full_30m.json";
const SAMPLED_REFERENCE: &str = "perfbench/reference/sampled_30m.json";

pub struct Sampled {
    workloads: Vec<Workload>,
    /// Full-detail reports: what the estimates approximate.
    full: Reports,
    /// The estimates themselves, as committed.
    sampled: Reports,
    spec: SamplingSpec,
}

fn profiles() -> Vec<AppProfile> {
    APPS.iter()
        .map(|a| app_by_name(a).expect("registered application"))
        .collect()
}

/// The fingerprint a sampled sweep of this spec carries: the repository's
/// configuration fingerprint with the spec's cache tag folded in.
fn sampled_fingerprint(spec: &SamplingSpec) -> u64 {
    SweepConfig::new()
        .insts(BUDGET)
        .sampled(spec.clone())
        .fingerprint()
}

/// Load one reference, refusing a missing or stale file and checking it
/// covers every (model, app) pair.
fn load(root: &Path, rel: &str, fingerprint: u64, sp: &mut Spans) -> Result<Reports, String> {
    let path = root.join(rel);
    let (reference, _) = sp.time("perfbench", "load reference", |_| {
        let text = std::fs::read_to_string(&path).map_err(|e| {
            format!(
                "no reference at {} ({e}); generate it with --make-reference",
                path.display()
            )
        })?;
        parse_reference(&text, fingerprint, &path.display().to_string())
    });
    let reference = reference?;
    self_check(&reference)?;
    for app in APPS {
        for m in Model::ALL {
            if !reference.contains_key(&(m.name().to_string(), app.to_string())) {
                return Err(format!("{}: no {}/{app} report", path.display(), m.name()));
            }
        }
    }
    Ok(reference)
}

/// Relative error of `got` against `want`, in percent.
pub fn rel_err_pct(got: f64, want: f64) -> f64 {
    (got / want - 1.0).abs() * 100.0
}

impl Sampled {
    pub fn setup(root: &Path, sp: &mut Spans) -> Result<Sampled, String> {
        let workloads = profiles().iter().map(|p| build(p, sp)).collect();
        let spec = SamplingSpec::default();
        Ok(Sampled {
            workloads,
            full: load(root, FULL_REFERENCE, config_fingerprint(BUDGET), sp)?,
            sampled: load(root, SAMPLED_REFERENCE, sampled_fingerprint(&spec), sp)?,
            spec,
        })
    }

    /// Check one estimate against the committed sampled reference and
    /// record its error against the full-detail reference.
    fn score(&self, r: &SimReport, t: &mut Tally) -> Result<(), String> {
        against(&self.sampled, r)?;
        let want = &self.full[&(r.model.clone(), r.app.clone())];
        let (ipc, energy) = (
            rel_err_pct(r.ipc(), want.ipc()),
            rel_err_pct(r.energy, want.energy),
        );
        for (k, v) in [
            ("sampling.ipc_err_pct", ipc),
            ("sampling.energy_err_pct", energy),
        ] {
            let e = t.layer.entry(k.into()).or_insert(0.0);
            *e = e.max(v);
        }
        t.notes.push(format!(
            "sampled {:<4}{:<5} IPC {:.4} (full {:.4}, err {ipc:.3}%)  energy err {energy:.3}%",
            r.model,
            r.app,
            r.ipc(),
            want.ipc()
        ));
        Ok(())
    }
}

/// Instructions a sampled run of `cfg` simulates in detail: each
/// representative interval plus its detailed warmup.
pub fn detailed_insts(plan: &SamplePlan, cfg: &MachineConfig, spec: &SamplingSpec) -> u64 {
    plan.clusters
        .iter()
        .map(|c| {
            let iv = plan.intervals[c.rep];
            effective_warmup(cfg, spec, iv.start) + iv.len
        })
        .sum()
}

/// Per-layer totals of one pass.
#[derive(Default)]
struct PassTotals {
    apps: f64,
    capture_s: f64,
    bits_per_inst: f64,
    plan_s: f64,
    k: f64,
    warmth_s: f64,
    run_s: f64,
    estimates: f64,
    detailed_insts: f64,
}

impl Sampled {
    /// One application's pipeline. A failing step counts as one failed
    /// operation and ends the application's pass.
    fn app_pass(
        &self,
        wl: &Workload,
        sp: &mut Spans,
        t: &mut Tally,
        acc: &mut PassTotals,
    ) -> Result<(), String> {
        let app = wl.profile.name;
        let name = format!("capture {app}");
        let (trace, secs) = sp.time("tracefmt", &name, |_| {
            guarded("capture", || capture(wl, BUDGET, DEFAULT_SLICE_INSTS))?
                .map_err(|e| format!("capture {app}: {e}"))
        });
        let trace = Arc::new(trace?);
        t.op(Ok(()));
        acc.apps += 1.0;
        t.timed(secs);
        acc.capture_s += secs;
        acc.bits_per_inst += trace.bits_per_inst();

        let name = format!("build_plan {app}");
        let (plan, secs) = sp.time("sampling", &name, |_| {
            guarded("build_plan", || build_plan(&trace, wl, BUDGET, &self.spec))?
                .map_err(|e| format!("build_plan {app}: {e}"))
        });
        let plan = Arc::new(plan?);
        t.op(Ok(()));
        t.timed(secs);
        acc.plan_s += secs;
        acc.k += plan.k() as f64;

        let cfgs: Vec<_> = Model::ALL.iter().map(|m| m.config()).collect();
        let name = format!("SampleWarmth::build {app}");
        let (warmth, secs) = sp.time("core", &name, |_| {
            guarded("SampleWarmth::build", || {
                SampleWarmth::build(&trace, wl, BUDGET, &plan, &self.spec, &cfgs)
            })
        });
        let warmth = Arc::new(warmth?);
        t.op(Ok(()));
        t.timed(secs);
        acc.warmth_s += secs;

        for (m, cfg) in Model::ALL.iter().zip(&cfgs) {
            let name = format!("SimRequest::run {} {app} sampled", m.name());
            let (r, secs) = sp.time("core", &name, |_| {
                guarded(&name, || {
                    SimRequest::model(*m)
                        .insts(BUDGET)
                        .replay(Arc::clone(&trace))
                        .sampled_plan(Arc::clone(&plan))
                        .sample_warmth(Arc::clone(&warmth))
                        .run(wl)
                })
            });
            let r = r?;
            self.score(&r, t)?;
            t.op(Ok(()));
            t.insts += r.insts;
            t.timed(secs);
            t.latencies_ms.push(secs * 1e3);
            t.keep(r);
            acc.run_s += secs;
            acc.estimates += 1.0;
            acc.detailed_insts += detailed_insts(&plan, cfg, &self.spec) as f64;
        }
        Ok(())
    }
}

impl Bench for Sampled {
    fn pass(&mut self, sp: &mut Spans, t: &mut Tally) {
        let mut acc = PassTotals::default();
        for wl in &self.workloads {
            if let Err(e) = self.app_pass(wl, sp, t, &mut acc) {
                t.op(Err(e));
            }
        }
        let per = |v: f64, n: f64| if n > 0.0 { v / n } else { f64::NAN };
        let budget = BUDGET as f64;
        for (k, v) in [
            (
                "tracefmt.capture_ns_per_inst",
                per(acc.capture_s * 1e9, acc.apps * budget),
            ),
            ("tracefmt.bits_per_inst", per(acc.bits_per_inst, acc.apps)),
            ("sampling.plan_s", per(acc.plan_s, acc.apps)),
            ("sampling.k", per(acc.k, acc.apps)),
            ("core.warmth_s", per(acc.warmth_s, acc.apps)),
            ("core.sampled_run_s", per(acc.run_s, acc.estimates)),
            (
                "sampling.detailed_frac",
                per(acc.detailed_insts, acc.estimates * budget),
            ),
        ] {
            t.layer.insert(k.to_string(), v);
        }
    }

    fn profiles(&self) -> Vec<AppProfile> {
        profiles()
    }

    fn kernel_workload(&self) -> &Workload {
        &self.workloads[0]
    }
}

/// The sampled estimates of every model for one application, along the
/// same path as a timed pass, without instrumentation.
fn estimates(wl: &Workload, spec: &SamplingSpec) -> Vec<SimReport> {
    let trace = Arc::new(capture(wl, BUDGET, DEFAULT_SLICE_INSTS).expect("the stream encodes"));
    let plan = Arc::new(build_plan(&trace, wl, BUDGET, spec).expect("the plan builds"));
    let cfgs: Vec<_> = Model::ALL.iter().map(|m| m.config()).collect();
    let warmth = Arc::new(SampleWarmth::build(&trace, wl, BUDGET, &plan, spec, &cfgs));
    Model::ALL
        .iter()
        .map(|m| {
            SimRequest::model(*m)
                .insts(BUDGET)
                .replay(Arc::clone(&trace))
                .sampled_plan(Arc::clone(&plan))
                .sample_warmth(Arc::clone(&warmth))
                .run(wl)
        })
        .collect()
}

/// Write both references: every (model, app) pair simulated in full
/// detail at the budget, and the sampled estimates under the default
/// spec, one thread per application. Each file is stamped with the
/// fingerprint it is checked against.
pub fn make_reference(root: &Path) -> Result<(), String> {
    let spec = SamplingSpec::default();
    let per_app: Vec<(Vec<SimReport>, Vec<SimReport>)> = std::thread::scope(|s| {
        let handles: Vec<_> = profiles()
            .into_iter()
            .map(|p| {
                let spec = &spec;
                s.spawn(move || {
                    let wl = Workload::build(&p);
                    let full = Model::ALL
                        .iter()
                        .map(|m| {
                            let r = SimRequest::model(*m).insts(BUDGET).run(&wl);
                            eprintln!("reference {}/{}: IPC {:.4}", r.model, r.app, r.ipc());
                            r
                        })
                        .collect();
                    (full, estimates(&wl, spec))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference runs"))
            .collect()
    });
    let keyed = |rs: Vec<SimReport>| -> Reports {
        rs.into_iter()
            .map(|r| ((r.model.clone(), r.app.clone()), r))
            .collect()
    };
    let (full, sampled): (Vec<_>, Vec<_>) = per_app.into_iter().unzip();
    for (rel, fingerprint, reports) in [
        (
            FULL_REFERENCE,
            config_fingerprint(BUDGET),
            keyed(full.concat()),
        ),
        (
            SAMPLED_REFERENCE,
            sampled_fingerprint(&spec),
            keyed(sampled.concat()),
        ),
    ] {
        let path = root.join(rel);
        std::fs::write(&path, reference_document(BUDGET, fingerprint, &reports))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}
