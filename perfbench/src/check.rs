//! Output checks: committed references and the report comparator.
//!
//! Every report a workload produces is compared with a committed reference
//! field by field: integer fields must match exactly, floating-point fields
//! within [`FLOAT_REL_TOL`] relative. A reference whose configuration
//! fingerprint differs from the current one is refused, never used.

use parrot_bench::{config_fingerprint, SweepConfig, CACHE_VERSION};
use parrot_core::SimReport;
use parrot_telemetry::json::{self, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Relative tolerance for floating-point report fields.
pub const FLOAT_REL_TOL: f64 = 1e-9;

/// Reports keyed by (model, app).
pub type Reports = BTreeMap<(String, String), SimReport>;

/// One scalar of a flattened report.
#[derive(Clone, Debug, PartialEq)]
pub enum Field {
    Int(u64),
    Float(f64),
    Text(String),
}

/// Every scalar of `r` by path, integers and floats kept apart so each is
/// compared by its own rule.
pub fn flatten(r: &SimReport) -> Vec<(String, Field)> {
    use Field::{Float, Int, Text};
    let mut out = vec![
        ("model".to_string(), Text(r.model.clone())),
        ("app".to_string(), Text(r.app.clone())),
        ("suite".to_string(), Text(r.suite.clone())),
        ("insts".to_string(), Int(r.insts)),
        ("uops".to_string(), Int(r.uops)),
        ("cycles".to_string(), Int(r.cycles)),
        ("energy".to_string(), Float(r.energy)),
        ("cond_branches".to_string(), Int(r.cond_branches)),
        ("cond_mispredicts".to_string(), Int(r.cond_mispredicts)),
        ("iq_empty_cycles".to_string(), Int(r.iq_empty_cycles)),
        (
            "issue_blocked_cycles".to_string(),
            Int(r.issue_blocked_cycles),
        ),
        ("state_switches".to_string(), Int(r.state_switches)),
        ("store_log_hash".to_string(), Int(r.store_log_hash)),
        ("committed_stores".to_string(), Int(r.committed_stores)),
        ("faults".to_string(), Int(u64::from(r.faults.is_some()))),
        ("trace".to_string(), Int(u64::from(r.trace.is_some()))),
    ];
    for (unit, e) in &r.energy_by_unit {
        out.push((format!("energy_by_unit.{unit}"), Float(*e)));
    }
    if let Some(t) = &r.trace {
        let ints = [
            ("hot_insts", t.hot_insts),
            ("cold_insts", t.cold_insts),
            ("tpred_predictions", t.tpred_predictions),
            ("tpred_correct", t.tpred_correct),
            ("pred_aborts", t.pred_aborts),
            ("aborts", t.aborts),
            ("entries", t.entries),
            ("hot_attempts", t.hot_attempts),
            ("no_variant", t.no_variant),
            ("constructed", t.constructed),
            ("tc_lookups", t.tc_lookups),
            ("tc_hits", t.tc_hits),
            ("tc_evictions", t.tc_evictions),
        ];
        out.extend(ints.iter().map(|(k, v)| (format!("trace.{k}"), Int(*v))));
        out.push(("trace.coverage".to_string(), Float(t.coverage)));
        out.push(("trace.mean_opt_reuse".to_string(), Float(t.mean_opt_reuse)));
        out.push(("trace.opt".to_string(), Int(u64::from(t.opt.is_some()))));
        if let Some(o) = &t.opt {
            let ints = [
                ("traces", o.traces),
                ("work_uops", o.work_uops),
                ("fused", o.fused),
                ("simd_lanes", o.simd_lanes),
                ("removed_dead", o.removed_dead),
                ("folded", o.folded),
                ("validated", o.validated),
                ("demoted", o.demoted),
                ("inconclusive_lint", o.inconclusive_lint),
                ("inconclusive_equiv", o.inconclusive_equiv),
            ];
            out.extend(
                ints.iter()
                    .map(|(k, v)| (format!("trace.opt.{k}"), Int(*v))),
            );
            out.push((
                "trace.opt.uop_reduction".to_string(),
                Float(o.uop_reduction),
            ));
            out.push((
                "trace.opt.dep_reduction".to_string(),
                Float(o.dep_reduction),
            ));
        }
    }
    out
}

fn float_eq(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= FLOAT_REL_TOL * a.abs().max(b.abs())
}

/// The first difference between `got` and `want`, or `None` when they
/// match under the comparison rules.
pub fn first_difference(got: &SimReport, want: &SimReport) -> Option<String> {
    let (g, w) = (flatten(got), flatten(want));
    if g.len() != w.len() {
        return Some(format!("{} fields, reference has {}", g.len(), w.len()));
    }
    for ((k, a), (k2, b)) in g.iter().zip(&w) {
        let same = k == k2
            && match (a, b) {
                (Field::Float(x), Field::Float(y)) => float_eq(*x, *y),
                _ => a == b,
            };
        if !same {
            return Some(format!("{k}: got {a:?}, reference {k2} = {b:?}"));
        }
    }
    None
}

/// A committed plain-LRU sweep reference: the file
/// `SweepConfig::new().insts(insts).cache_file()` names, under `dir` (the
/// repository's `results/` directory for the 200k-instruction sweep).
pub fn sweep_reference_path(dir: &Path, insts: u64) -> PathBuf {
    let name = SweepConfig::new().insts(insts).cache_file();
    let name = name.file_name().expect("cache_file names a file");
    dir.join(name)
}

/// Parse a reference document: a versioned object stamped with
/// `fingerprint` whose `runs` member is an array of reports. Refuses a
/// document from another schema version or another fingerprint.
pub fn parse_reference(text: &str, fingerprint: u64, what: &str) -> Result<Reports, String> {
    let v = json::parse(text).map_err(|e| format!("{what}: not JSON: {e:?}"))?;
    if v.get("version").as_u64() != Some(CACHE_VERSION) {
        return Err(format!("{what}: schema version is not {CACHE_VERSION}"));
    }
    let want = format!("{fingerprint:016x}");
    match v.get("fingerprint").as_str() {
        Some(fp) if fp == want => {}
        other => {
            return Err(format!(
                "{what}: stale reference (fingerprint {other:?}, current {want})"
            ))
        }
    }
    let runs = v
        .get("runs")
        .as_arr()
        .ok_or_else(|| format!("{what}: no runs array"))?;
    let mut out = Reports::new();
    for r in runs {
        let r = SimReport::from_json(r).ok_or_else(|| format!("{what}: malformed report"))?;
        out.insert((r.model.clone(), r.app.clone()), r);
    }
    Ok(out)
}

/// Load the sweep reference under `dir` for `insts` and the current
/// configuration, refusing to run without one.
pub fn load_sweep_reference(dir: &Path, insts: u64) -> Result<Reports, String> {
    let path = sweep_reference_path(dir, insts);
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "no reference for the current configuration at {}: {e}",
            path.display()
        )
    })?;
    parse_reference(
        &text,
        config_fingerprint(insts),
        &path.display().to_string(),
    )
}

/// Serialize reports as a reference document stamped with `fingerprint`.
pub fn reference_document(insts: u64, fingerprint: u64, reports: &Reports) -> String {
    Value::obj([
        ("version", Value::int(CACHE_VERSION)),
        ("fingerprint", Value::Str(format!("{fingerprint:016x}"))),
        ("insts", Value::int(insts)),
        (
            "runs",
            Value::Arr(reports.values().map(SimReport::to_json).collect()),
        ),
    ])
    .to_json_pretty()
}

/// Prove the comparator is live before trusting it: perturbing one
/// integer, one float and one nested field of a reference report must
/// each be caught, and the unperturbed report must match itself.
pub fn self_check(reference: &Reports) -> Result<(), String> {
    let r = reference
        .values()
        .find(|r| r.trace.as_ref().is_some_and(|t| t.opt.is_some()))
        .or_else(|| reference.values().next())
        .ok_or("empty reference")?;
    if let Some(d) = first_difference(r, r) {
        return Err(format!("a report differs from itself: {d}"));
    }
    let mut perturbed: Vec<(&str, SimReport)> = Vec::new();
    let mut p = r.clone();
    p.cycles += 1;
    perturbed.push(("cycles + 1", p));
    let mut p = r.clone();
    p.energy *= 1.0 + 1e-6;
    perturbed.push(("energy × (1 + 1e-6)", p));
    if let Some(t) = &r.trace {
        let mut p = r.clone();
        p.trace = Some(parrot_core::TraceReport {
            tc_hits: t.tc_hits + 1,
            ..t.clone()
        });
        perturbed.push(("trace.tc_hits + 1", p));
    }
    for (what, p) in &perturbed {
        if first_difference(p, r).is_none() {
            return Err(format!("a perturbed reference ({what}) was not caught"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use parrot_core::{Model, SimRequest};
    use parrot_workloads::{app_by_name, Workload};

    fn one_report() -> Reports {
        let wl = Workload::build(&app_by_name("gcc").expect("registered"));
        let r = SimRequest::model(Model::TOW).insts(5_000).run(&wl);
        Reports::from([((r.model.clone(), r.app.clone()), r)])
    }

    #[test]
    fn comparator_catches_perturbations() {
        self_check(&one_report()).expect("comparator is live");
    }

    #[test]
    fn float_tolerance_is_relative() {
        let reports = one_report();
        let r = reports.values().next().expect("one report");
        let mut near = r.clone();
        near.energy *= 1.0 + 1e-12;
        assert!(first_difference(&near, r).is_none());
        let mut far = r.clone();
        far.energy *= 1.0 + 1e-8;
        assert!(first_difference(&far, r).is_some());
    }

    #[test]
    fn perturbed_reference_document_is_caught() {
        let reports = one_report();
        let doc = reference_document(5_000, config_fingerprint(5_000), &reports);
        let good = parse_reference(&doc, config_fingerprint(5_000), "doc").expect("parses");
        let key = reports.keys().next().expect("one key");
        assert!(first_difference(&reports[key], &good[key]).is_none());
        let bumped = doc.replacen("\"uops\": ", "\"uops\": 1", 1);
        let bad = parse_reference(&bumped, config_fingerprint(5_000), "doc").expect("parses");
        assert!(first_difference(&reports[key], &bad[key]).is_some());
    }

    #[test]
    fn stale_reference_is_refused() {
        let doc = reference_document(5_000, config_fingerprint(5_000), &one_report());
        let err = parse_reference(&doc, config_fingerprint(5_001), "doc").unwrap_err();
        assert!(err.contains("stale"), "{err}");
    }
}
