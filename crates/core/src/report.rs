//! Simulation reports: everything the evaluation section (§4) needs from a
//! run, serializable for the figure harness.

use crate::faults::FaultReport;
use parrot_energy::metrics::RunSummary;
use parrot_energy::{Energy, Unit};
use parrot_telemetry::json::Value;

/// PARROT trace-subsystem results for one run.
#[derive(Clone, Debug, Default)]
pub struct TraceReport {
    /// Fraction of committed instructions fetched from the trace cache
    /// (Fig 4.8).
    pub coverage: f64,
    /// Instructions executed hot (streamed from the trace cache).
    pub hot_insts: u64,
    /// Instructions executed cold (conventional fetch path).
    pub cold_insts: u64,
    /// Confident next-trace predictions acted on at fetch (the paper's
    /// "trace-predictor successful" path; variant-vote entries excluded).
    pub tpred_predictions: u64,
    /// Predictions whose trace fully matched the committed path.
    pub tpred_correct: u64,
    /// Predictions whose trace diverged (trace mispredictions, Fig 4.7).
    pub pred_aborts: u64,
    /// All trace aborts, including branch-predictor-vote entries.
    pub aborts: u64,
    /// Hot entries (frames streamed).
    pub entries: u64,
    /// Hot-entry attempts at trace boundaries (fetch-selector diagnostics).
    pub hot_attempts: u64,
    /// Hot-entry attempts that found no resident trace variant.
    pub no_variant: u64,
    /// Frames constructed and inserted.
    pub constructed: u64,
    /// Trace-cache lookups.
    pub tc_lookups: u64,
    /// Trace-cache lookups that hit.
    pub tc_hits: u64,
    /// Trace-cache frames evicted to make room.
    pub tc_evictions: u64,
    /// Mean dynamic executions per optimized trace (Fig 4.10).
    pub mean_opt_reuse: f64,
    /// Optimizer results, when the model optimizes.
    pub opt: Option<OptReport>,
}

impl TraceReport {
    /// Trace misprediction rate over resolved *trace-predictor* decisions
    /// (Fig 4.7). Entries selected by the branch-predictor vote are not
    /// trace predictions and are excluded, exactly as in the paper's
    /// fetch-selector description (§2.3).
    pub fn trace_mispredict_rate(&self) -> f64 {
        let resolved = self.tpred_correct + self.pred_aborts;
        if resolved == 0 {
            0.0
        } else {
            self.pred_aborts as f64 / resolved as f64
        }
    }

    /// Abort rate over *all* hot entries (cost accounting, stricter than
    /// Fig 4.7's predictor-only rate).
    pub fn entry_abort_rate(&self) -> f64 {
        let resolved = self.entries + self.aborts;
        if resolved == 0 {
            0.0
        } else {
            self.aborts as f64 / resolved as f64
        }
    }

    /// Serialize through the telemetry JSON writer (no serde).
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("coverage", Value::Num(self.coverage)),
            ("hot_insts", Value::int(self.hot_insts)),
            ("cold_insts", Value::int(self.cold_insts)),
            ("tpred_predictions", Value::int(self.tpred_predictions)),
            ("tpred_correct", Value::int(self.tpred_correct)),
            ("pred_aborts", Value::int(self.pred_aborts)),
            ("aborts", Value::int(self.aborts)),
            ("entries", Value::int(self.entries)),
            ("hot_attempts", Value::int(self.hot_attempts)),
            ("no_variant", Value::int(self.no_variant)),
            ("constructed", Value::int(self.constructed)),
            ("tc_lookups", Value::int(self.tc_lookups)),
            ("tc_hits", Value::int(self.tc_hits)),
            ("tc_evictions", Value::int(self.tc_evictions)),
            ("mean_opt_reuse", Value::Num(self.mean_opt_reuse)),
            (
                "opt",
                self.opt
                    .as_ref()
                    .map(OptReport::to_json)
                    .unwrap_or(Value::Null),
            ),
        ])
    }

    /// Inverse of [`TraceReport::to_json`]; `None` on a malformed value.
    pub fn from_json(v: &Value) -> Option<TraceReport> {
        Some(TraceReport {
            coverage: v.get("coverage").as_f64()?,
            hot_insts: v.get("hot_insts").as_u64()?,
            cold_insts: v.get("cold_insts").as_u64()?,
            tpred_predictions: v.get("tpred_predictions").as_u64()?,
            tpred_correct: v.get("tpred_correct").as_u64()?,
            pred_aborts: v.get("pred_aborts").as_u64()?,
            aborts: v.get("aborts").as_u64()?,
            entries: v.get("entries").as_u64()?,
            hot_attempts: v.get("hot_attempts").as_u64()?,
            no_variant: v.get("no_variant").as_u64()?,
            constructed: v.get("constructed").as_u64()?,
            tc_lookups: v.get("tc_lookups").as_u64()?,
            tc_hits: v.get("tc_hits").as_u64()?,
            tc_evictions: v.get("tc_evictions").as_u64()?,
            mean_opt_reuse: v.get("mean_opt_reuse").as_f64()?,
            opt: match v.get("opt") {
                Value::Null => None,
                o => Some(OptReport::from_json(o)?),
            },
        })
    }
}

/// Optimizer results for one run (Fig 4.9).
#[derive(Clone, Debug, Default)]
pub struct OptReport {
    /// Traces optimized.
    pub traces: u64,
    /// Relative reduction in trace uop count.
    pub uop_reduction: f64,
    /// Relative reduction in latency-weighted critical path.
    pub dep_reduction: f64,
    /// Total optimizer analysis work (uop·pass).
    pub work_uops: u64,
    /// Dependent uop pairs fused by the combining pass.
    pub fused: u64,
    /// Lanes packed by the SIMD-combining pass.
    pub simd_lanes: u64,
    /// Dead uops removed.
    pub removed_dead: u64,
    /// Constants folded.
    pub folded: u64,
    /// Traces the static translation validator proved equivalent.
    pub validated: u64,
    /// Traces demoted to unoptimized form by the validation gate.
    pub demoted: u64,
    /// Demotions caused by a uop-IR lint error.
    pub inconclusive_lint: u64,
    /// Demotions where abstract interpretation could not prove equivalence.
    pub inconclusive_equiv: u64,
}

impl OptReport {
    /// Serialize through the telemetry JSON writer (no serde).
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("traces", Value::int(self.traces)),
            ("uop_reduction", Value::Num(self.uop_reduction)),
            ("dep_reduction", Value::Num(self.dep_reduction)),
            ("work_uops", Value::int(self.work_uops)),
            ("fused", Value::int(self.fused)),
            ("simd_lanes", Value::int(self.simd_lanes)),
            ("removed_dead", Value::int(self.removed_dead)),
            ("folded", Value::int(self.folded)),
            ("validated", Value::int(self.validated)),
            ("demoted", Value::int(self.demoted)),
            ("inconclusive_lint", Value::int(self.inconclusive_lint)),
            ("inconclusive_equiv", Value::int(self.inconclusive_equiv)),
        ])
    }

    /// Inverse of [`OptReport::to_json`]; `None` on a malformed value.
    pub fn from_json(v: &Value) -> Option<OptReport> {
        Some(OptReport {
            traces: v.get("traces").as_u64()?,
            uop_reduction: v.get("uop_reduction").as_f64()?,
            dep_reduction: v.get("dep_reduction").as_f64()?,
            work_uops: v.get("work_uops").as_u64()?,
            fused: v.get("fused").as_u64()?,
            simd_lanes: v.get("simd_lanes").as_u64()?,
            removed_dead: v.get("removed_dead").as_u64()?,
            folded: v.get("folded").as_u64()?,
            validated: v.get("validated").as_u64()?,
            demoted: v.get("demoted").as_u64()?,
            inconclusive_lint: v.get("inconclusive_lint").as_u64()?,
            inconclusive_equiv: v.get("inconclusive_equiv").as_u64()?,
        })
    }
}

/// Full report of one (model, application) simulation.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Model name (`N`, `TON`, ...).
    pub model: String,
    /// Application name.
    pub app: String,
    /// Suite label.
    pub suite: String,
    /// Macro-instructions retired.
    pub insts: u64,
    /// Uops retired.
    pub uops: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Total energy (internal units).
    pub energy: f64,
    /// Energy by unit, in [`Unit::ALL`] order: `(label, energy)`.
    pub energy_by_unit: Vec<(String, f64)>,
    /// Conditional branches seen by the cold front end.
    pub cond_branches: u64,
    /// Conditional-branch mispredicts seen by the cold front end.
    pub cond_mispredicts: u64,
    /// Pipeline-balance counter: cycles the issue window was empty
    /// (front-end starvation).
    pub iq_empty_cycles: u64,
    /// Pipeline-balance counter: cycles the window was non-empty but
    /// nothing issued (dependency/port bound).
    pub issue_blocked_cycles: u64,
    /// Split-core state switches (0 on unified machines).
    pub state_switches: u64,
    /// FNV-1a hash over the effective addresses of committed store uops in
    /// program order — the graceful-degradation witness: a faulted run must
    /// match its fault-free twin exactly.
    pub store_log_hash: u64,
    /// Number of store uops folded into [`SimReport::store_log_hash`].
    pub committed_stores: u64,
    /// Fault-injection accounting (None for fault-free runs).
    pub faults: Option<FaultReport>,
    /// Trace-subsystem results (None for `N`/`W`).
    pub trace: Option<TraceReport>,
}

impl SimReport {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.insts as f64 / self.cycles as f64
        }
    }

    /// Cold-path conditional branch misprediction rate.
    pub fn branch_mispredict_rate(&self) -> f64 {
        if self.cond_branches == 0 {
            0.0
        } else {
            self.cond_mispredicts as f64 / self.cond_branches as f64
        }
    }

    /// The metrics triple used by CMPW comparisons.
    pub fn summary(&self) -> RunSummary {
        RunSummary {
            insts: self.insts,
            cycles: self.cycles,
            energy: self.energy,
        }
    }

    /// Fraction of total energy attributed to `unit_label`.
    pub fn unit_share(&self, unit_label: &str) -> f64 {
        if self.energy <= 0.0 {
            return 0.0;
        }
        self.energy_by_unit
            .iter()
            .find(|(l, _)| l == unit_label)
            .map(|(_, e)| e / self.energy)
            .unwrap_or(0.0)
    }

    /// Build the per-unit breakdown from priced energy.
    pub fn breakdown_from(energy: &Energy) -> Vec<(String, f64)> {
        Unit::ALL
            .iter()
            .map(|u| (u.label().to_string(), energy.unit_energy(*u)))
            .collect()
    }

    /// Serialize through the telemetry JSON writer (no serde).
    pub fn to_json(&self) -> Value {
        let units: Vec<Value> = self
            .energy_by_unit
            .iter()
            .map(|(l, e)| Value::obj([("unit", Value::Str(l.clone())), ("energy", Value::Num(*e))]))
            .collect();
        Value::obj([
            ("model", Value::Str(self.model.clone())),
            ("app", Value::Str(self.app.clone())),
            ("suite", Value::Str(self.suite.clone())),
            ("insts", Value::int(self.insts)),
            ("uops", Value::int(self.uops)),
            ("cycles", Value::int(self.cycles)),
            ("energy", Value::Num(self.energy)),
            ("energy_by_unit", Value::Arr(units)),
            ("cond_branches", Value::int(self.cond_branches)),
            ("cond_mispredicts", Value::int(self.cond_mispredicts)),
            ("iq_empty_cycles", Value::int(self.iq_empty_cycles)),
            (
                "issue_blocked_cycles",
                Value::int(self.issue_blocked_cycles),
            ),
            ("state_switches", Value::int(self.state_switches)),
            // Hex string: JSON numbers are f64, exact only up to 2^53.
            (
                "store_log_hash",
                Value::Str(format!("{:016x}", self.store_log_hash)),
            ),
            ("committed_stores", Value::int(self.committed_stores)),
            (
                "faults",
                self.faults
                    .as_ref()
                    .map(FaultReport::to_json)
                    .unwrap_or(Value::Null),
            ),
            (
                "trace",
                self.trace
                    .as_ref()
                    .map(TraceReport::to_json)
                    .unwrap_or(Value::Null),
            ),
        ])
    }

    /// Inverse of [`SimReport::to_json`]; `None` on a malformed value.
    pub fn from_json(v: &Value) -> Option<SimReport> {
        let units = v
            .get("energy_by_unit")
            .as_arr()?
            .iter()
            .map(|u| {
                Some((
                    u.get("unit").as_str()?.to_string(),
                    u.get("energy").as_f64()?,
                ))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(SimReport {
            model: v.get("model").as_str()?.to_string(),
            app: v.get("app").as_str()?.to_string(),
            suite: v.get("suite").as_str()?.to_string(),
            insts: v.get("insts").as_u64()?,
            uops: v.get("uops").as_u64()?,
            cycles: v.get("cycles").as_u64()?,
            energy: v.get("energy").as_f64()?,
            energy_by_unit: units,
            cond_branches: v.get("cond_branches").as_u64()?,
            cond_mispredicts: v.get("cond_mispredicts").as_u64()?,
            iq_empty_cycles: v.get("iq_empty_cycles").as_u64()?,
            issue_blocked_cycles: v.get("issue_blocked_cycles").as_u64()?,
            state_switches: v.get("state_switches").as_u64()?,
            // Lenient: reports cached before these fields existed parse as
            // store-log-free, fault-free runs (no CACHE_VERSION bump).
            store_log_hash: v
                .get("store_log_hash")
                .as_str()
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .unwrap_or(0),
            committed_stores: v.get("committed_stores").as_u64().unwrap_or(0),
            faults: match v.get("faults") {
                Value::Null => None,
                f => FaultReport::from_json(f),
            },
            trace: match v.get("trace") {
                Value::Null => None,
                t => Some(TraceReport::from_json(t)?),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            model: "N".into(),
            app: "gcc".into(),
            suite: "SpecInt".into(),
            insts: 1000,
            uops: 1300,
            cycles: 800,
            energy: 5000.0,
            energy_by_unit: vec![("decode".into(), 1000.0), ("exec".into(), 4000.0)],
            cond_branches: 100,
            cond_mispredicts: 7,
            iq_empty_cycles: 0,
            issue_blocked_cycles: 0,
            state_switches: 0,
            store_log_hash: 0xdead_beef_dead_beef,
            committed_stores: 17,
            faults: None,
            trace: None,
        }
    }

    #[test]
    fn derived_metrics() {
        let r = report();
        assert!((r.ipc() - 1.25).abs() < 1e-12);
        assert!((r.branch_mispredict_rate() - 0.07).abs() < 1e-12);
        assert!((r.unit_share("decode") - 0.2).abs() < 1e-12);
        assert_eq!(r.unit_share("nonexistent"), 0.0);
        let s = r.summary();
        assert_eq!(s.insts, 1000);
    }

    #[test]
    fn trace_mispredict_rate() {
        let t = TraceReport {
            tpred_correct: 90,
            pred_aborts: 10,
            entries: 95,
            aborts: 25,
            ..TraceReport::default()
        };
        assert!((t.trace_mispredict_rate() - 0.1).abs() < 1e-12);
        assert!((t.entry_abort_rate() - 25.0 / 120.0).abs() < 1e-12);
        assert_eq!(TraceReport::default().trace_mispredict_rate(), 0.0);
        assert_eq!(TraceReport::default().entry_abort_rate(), 0.0);
    }

    #[test]
    fn serializes_to_json() {
        let mut r = report();
        r.trace = Some(TraceReport {
            entries: 42,
            aborts: 3,
            opt: Some(OptReport {
                traces: 9,
                uop_reduction: 0.25,
                validated: 8,
                demoted: 1,
                inconclusive_lint: 1,
                ..OptReport::default()
            }),
            ..TraceReport::default()
        });
        let j = r.to_json().to_json_pretty();
        let v = parrot_telemetry::json::parse(&j).expect("parse back");
        let back = SimReport::from_json(&v).expect("deserialize");
        assert_eq!(back.insts, r.insts);
        assert_eq!(back.model, "N");
        assert_eq!(back.energy_by_unit, r.energy_by_unit);
        assert_eq!(back.store_log_hash, 0xdead_beef_dead_beef);
        assert_eq!(back.committed_stores, 17);
        assert!(back.faults.is_none());
        let t = back.trace.expect("trace present");
        assert_eq!(t.entries, 42);
        let o = t.opt.expect("opt present");
        assert_eq!(o.traces, 9);
        assert_eq!(o.validated, 8);
        assert_eq!(o.demoted, 1);
        assert_eq!(o.inconclusive_lint, 1);
        assert_eq!(o.inconclusive_equiv, 0);
    }

    #[test]
    fn legacy_reports_without_new_fields_still_parse() {
        // Simulate a cache file written before the fault-injection fields
        // existed: strip them and make sure parsing stays lenient.
        let v = report().to_json();
        let Value::Obj(mut m) = v else { unreachable!() };
        m.remove("store_log_hash");
        m.remove("committed_stores");
        m.remove("faults");
        let back = SimReport::from_json(&Value::Obj(m)).expect("lenient parse");
        assert_eq!(back.store_log_hash, 0);
        assert_eq!(back.committed_stores, 0);
        assert!(back.faults.is_none());
    }

    #[test]
    fn faulted_report_roundtrips() {
        let mut r = report();
        let mut inj = crate::FaultPlan::new(5).injector_for("TOW", "gcc");
        inj.note_injected(crate::FaultKind::BitFlip);
        inj.note_caught(crate::FaultKind::BitFlip);
        r.faults = Some(inj.report());
        let v = parrot_telemetry::json::parse(&r.to_json().to_json()).expect("parse back");
        let back = SimReport::from_json(&v).expect("deserialize");
        assert_eq!(back.faults, r.faults);
        assert!(back.faults.expect("present").reconciles());
    }

    #[test]
    fn json_none_trace_roundtrip() {
        let r = report();
        let v = parrot_telemetry::json::parse(&r.to_json().to_json()).expect("parse back");
        let back = SimReport::from_json(&v).expect("deserialize");
        assert!(back.trace.is_none());
        assert!(SimReport::from_json(&Value::Null).is_none());
    }
}
