//! The cycle loop against the committed 200k-instruction sweep: N, TON and
//! TOS on gcc must reproduce their cached reports, integer fields exactly
//! and floating-point fields within 1e-9 relative. This pins every simulated
//! count (cycles, idle-cycle statistics, trace and optimizer counters) and
//! bounds the energy drift a change to the summation order may introduce.

use parrot_bench::{SweepConfig, CACHE_VERSION};
use parrot_core::{Model, SimRequest};
use parrot_telemetry::json::{self, Value};
use parrot_workloads::{app_by_name, Workload};

const INSTS: u64 = 200_000;
const FLOAT_REL_TOL: f64 = 1e-9;
/// The report's floating-point members; every other number is a count.
const FLOAT_KEYS: [&str; 5] = [
    "energy",
    "coverage",
    "mean_opt_reuse",
    "uop_reduction",
    "dep_reduction",
];

/// Every difference between `got` and `want` under `path`.
fn differences(path: &str, key: &str, got: &Value, want: &Value, out: &mut Vec<String>) {
    match (got, want) {
        (Value::Obj(g), Value::Obj(w)) => {
            let keys: std::collections::BTreeSet<&String> = g.keys().chain(w.keys()).collect();
            for k in keys {
                let (a, b) = (got.get(k), want.get(k));
                differences(&format!("{path}.{k}"), k, a, b, out);
            }
        }
        (Value::Arr(g), Value::Arr(w)) if g.len() == w.len() => {
            for (i, (a, b)) in g.iter().zip(w).enumerate() {
                differences(&format!("{path}[{i}]"), key, a, b, out);
            }
        }
        _ => {
            let same = match (got, want) {
                (Value::Num(a), Value::Num(b)) if FLOAT_KEYS.contains(&key) => {
                    (a - b).abs() <= FLOAT_REL_TOL * a.abs().max(b.abs())
                }
                _ => got == want,
            };
            if !same {
                out.push(format!("{path}: {got:?} vs reference {want:?}"));
            }
        }
    }
}

#[test]
fn gcc_reports_match_the_committed_200k_sweep() {
    let path = SweepConfig::new().insts(INSTS).cache_file();
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("committed sweep {} unreadable: {e}", path.display()));
    let doc = json::parse(&text).expect("committed sweep parses");
    assert_eq!(doc.get("version").as_u64(), Some(CACHE_VERSION));
    let runs = doc.get("runs").as_arr().expect("runs array");

    let wl = Workload::build(&app_by_name("gcc").expect("gcc"));
    for model in [Model::N, Model::TON, Model::TOS] {
        let want = runs
            .iter()
            .find(|r| {
                r.get("model").as_str() == Some(model.name())
                    && r.get("app").as_str() == Some("gcc")
            })
            .unwrap_or_else(|| panic!("no {model}/gcc in the committed sweep"));
        let got = SimRequest::model(model).insts(INSTS).run(&wl).to_json();
        let mut diffs = Vec::new();
        differences(model.name(), "", &got, want, &mut diffs);
        assert!(
            diffs.is_empty(),
            "{model}/gcc drifted:\n{}",
            diffs.join("\n")
        );
    }
}
