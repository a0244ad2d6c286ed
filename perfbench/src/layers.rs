//! Per-layer metrics of a traced run.
//!
//! Three sources, in order of preference: measurements the workload's own
//! timed calls made (`Tally::layer`, `Tally::per_model`), deterministic
//! counts summed over the reports it produced, and kernel replays of the
//! public layer entry points on the workload's own application stream.
//! A kernel fills only the metrics the workload's calls did not measure.

use crate::check::Reports;
use crate::spans::Spans;
use crate::workloads::{
    detailed_insts, install_sinks, rel_err_pct, render_sinks, Bench, Tally, EXPERIMENTS_INSTS,
};
use parrot_core::{build_plan, Model, SampleWarmth, SamplingSpec, SimRequest};
use parrot_opt::{Optimizer, OptimizerConfig};
use parrot_trace::{construct_frame, SelectionConfig, TraceSelector};
use parrot_uarch::bpred::{BpredConfig, HybridPredictor};
use parrot_uarch::cache::MemHierarchy;
use parrot_workloads::tracefmt::{capture, ReplayCursor, DEFAULT_SLICE_INSTS};
use parrot_workloads::{generate_program, DynInst, Workload};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

/// Instructions of the workload's own stream the kernels replay.
const KERNEL_INSTS: u64 = EXPERIMENTS_INSTS;

/// Budget of the sampling kernel (20 intervals of the default 100k).
const SAMPLING_KERNEL_INSTS: u64 = 2_000_000;

/// Frames the optimizer kernel optimizes.
const OPT_KERNEL_FRAMES: usize = 2_000;

/// Layers whose self time is reported as `<layer>.self_s`: every layer
/// each workload's traced run calls (`bench` runs only in `sweep_44x7`,
/// where `bench.sweep_s` covers it).
const SELF_TIME_LAYERS: [&str; 10] = [
    "workloads",
    "isa",
    "tracefmt",
    "sampling",
    "core",
    "uarch",
    "trace",
    "opt",
    "telemetry",
    "perfbench",
];

/// Every per-layer metric, in BENCHMARK.json order.
pub const PER_LAYER: &[&str] = &[
    "workloads.generate_ms",
    "isa.decode_ms",
    "workloads.stream_ns_per_inst",
    "tracefmt.capture_ns_per_inst",
    "tracefmt.replay_ns_per_inst",
    "tracefmt.bits_per_inst",
    "sampling.plan_s",
    "sampling.k",
    "sampling.detailed_frac",
    "sampling.ipc_err_pct",
    "sampling.energy_err_pct",
    "core.warmth_s",
    "core.sampled_run_s",
    "core.sim_ms_p50",
    "core.sim_ms_p90",
    "core.ns_per_inst.N",
    "core.ns_per_inst.W",
    "core.ns_per_inst.TN",
    "core.ns_per_inst.TW",
    "core.ns_per_inst.TON",
    "core.ns_per_inst.TOW",
    "core.ns_per_inst.TOS",
    "core.ns_per_cycle.N",
    "core.ns_per_cycle.W",
    "core.ns_per_cycle.TN",
    "core.ns_per_cycle.TW",
    "core.ns_per_cycle.TON",
    "core.ns_per_cycle.TOW",
    "core.ns_per_cycle.TOS",
    "uarch.bpred_ns_per_branch",
    "uarch.cache_ns_per_access",
    "uarch.cycles_per_kinst",
    "uarch.uops_per_kinst",
    "uarch.mispredicts_per_kinst",
    "uarch.iq_empty_frac",
    "uarch.issue_blocked_frac",
    "trace.select_ns_per_inst",
    "trace.construct_us_per_frame",
    "trace.coverage",
    "trace.hot_attempts_per_kinst",
    "trace.entry_frac",
    "trace.abort_frac",
    "trace.tc_hit_frac",
    "trace.constructed_per_kinst",
    "trace.evictions_per_kinst",
    "opt.optimize_us_per_trace",
    "opt.traces_per_kinst",
    "opt.work_uops_per_kinst",
    "opt.validated_frac",
    "opt.uop_reduction",
    "energy.per_inst",
    "core.paper_gap_pct",
    "telemetry.render_s",
    "telemetry.artifact_mb",
    "bench.sweep_s",
    "bench.cpu_util",
    "tracing.overhead_pct",
    "workloads.self_s",
    "isa.self_s",
    "tracefmt.self_s",
    "sampling.self_s",
    "core.self_s",
    "uarch.self_s",
    "trace.self_s",
    "opt.self_s",
    "telemetry.self_s",
    "perfbench.self_s",
];

/// The unit of a per-layer metric, from its name.
pub fn unit(name: &str) -> &'static str {
    let last = name.rsplit('.').find(|p| p.contains('_')).unwrap_or(name);
    if name == "energy.per_inst" {
        "au/inst"
    } else if last.starts_with("ns_per") || last.contains("_ns_per") {
        "ns"
    } else if last.contains("_us_per") {
        "us"
    } else if last.ends_with("_ms") || last.contains("_ms_") {
        "ms"
    } else if last.ends_with("_s") {
        "s"
    } else if last.ends_with("gap_pct") {
        "pp"
    } else if last.ends_with("_pct") {
        "%"
    } else if last.ends_with("_mb") {
        "MB"
    } else {
        "count"
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den as f64
}

/// Deterministic work counts summed over the workload's reports.
pub fn report_counts(reports: &Reports, m: &mut BTreeMap<String, f64>) {
    let all: Vec<_> = reports.values().collect();
    let sum = |f: &dyn Fn(&parrot_core::SimReport) -> u64| all.iter().map(|r| f(r)).sum::<u64>();
    let (insts, cycles) = (sum(&|r| r.insts), sum(&|r| r.cycles));
    let kinst = insts as f64 / 1e3;
    m.insert("uarch.cycles_per_kinst".into(), cycles as f64 / kinst);
    m.insert(
        "uarch.uops_per_kinst".into(),
        sum(&|r| r.uops) as f64 / kinst,
    );
    m.insert(
        "uarch.mispredicts_per_kinst".into(),
        sum(&|r| r.cond_mispredicts) as f64 / kinst,
    );
    m.insert(
        "uarch.iq_empty_frac".into(),
        ratio(sum(&|r| r.iq_empty_cycles), cycles),
    );
    m.insert(
        "uarch.issue_blocked_frac".into(),
        ratio(sum(&|r| r.issue_blocked_cycles), cycles),
    );
    m.insert(
        "energy.per_inst".into(),
        all.iter().map(|r| r.energy).sum::<f64>() / insts as f64,
    );

    let traced: Vec<_> = all
        .iter()
        .filter_map(|r| r.trace.as_ref().map(|t| (r.insts, t)))
        .collect();
    let t_insts: u64 = traced.iter().map(|(i, _)| i).sum();
    let tsum = |f: &dyn Fn(&parrot_core::TraceReport) -> u64| {
        traced.iter().map(|(_, t)| f(t)).sum::<u64>()
    };
    let t_kinst = t_insts as f64 / 1e3;
    m.insert(
        "trace.coverage".into(),
        traced
            .iter()
            .map(|(i, t)| t.coverage * *i as f64)
            .sum::<f64>()
            / t_insts as f64,
    );
    m.insert(
        "trace.hot_attempts_per_kinst".into(),
        tsum(&|t| t.hot_attempts) as f64 / t_kinst,
    );
    m.insert(
        "trace.entry_frac".into(),
        ratio(tsum(&|t| t.entries), tsum(&|t| t.hot_attempts)),
    );
    m.insert(
        "trace.abort_frac".into(),
        ratio(tsum(&|t| t.aborts), tsum(&|t| t.entries + t.aborts)),
    );
    m.insert(
        "trace.tc_hit_frac".into(),
        ratio(tsum(&|t| t.tc_hits), tsum(&|t| t.tc_lookups)),
    );
    m.insert(
        "trace.constructed_per_kinst".into(),
        tsum(&|t| t.constructed) as f64 / t_kinst,
    );
    m.insert(
        "trace.evictions_per_kinst".into(),
        tsum(&|t| t.tc_evictions) as f64 / t_kinst,
    );

    let opt: Vec<_> = traced
        .iter()
        .filter_map(|(i, t)| t.opt.as_ref().map(|o| (*i, o)))
        .collect();
    let o_kinst = opt.iter().map(|(i, _)| i).sum::<u64>() as f64 / 1e3;
    let osum =
        |f: &dyn Fn(&parrot_core::OptReport) -> u64| opt.iter().map(|(_, o)| f(o)).sum::<u64>();
    let traces = osum(&|o| o.traces);
    m.insert("opt.traces_per_kinst".into(), traces as f64 / o_kinst);
    m.insert(
        "opt.work_uops_per_kinst".into(),
        osum(&|o| o.work_uops) as f64 / o_kinst,
    );
    m.insert(
        "opt.validated_frac".into(),
        ratio(osum(&|o| o.validated), traces),
    );
    m.insert(
        "opt.uop_reduction".into(),
        opt.iter()
            .map(|(_, o)| o.uop_reduction * o.traces as f64)
            .sum::<f64>()
            / traces as f64,
    );
}

/// Host time per committed instruction and per simulated cycle, per model.
pub fn per_model(t: &Tally, m: &mut BTreeMap<String, f64>) {
    for (model, (secs, insts, cycles)) in &t.per_model {
        m.insert(
            format!("core.ns_per_inst.{model}"),
            secs * 1e9 / *insts as f64,
        );
        m.insert(
            format!("core.ns_per_cycle.{model}"),
            secs * 1e9 / *cycles as f64,
        );
    }
}

/// Time `f` under a span and insert `value(result, secs)` as `key` when
/// the workload did not measure it.
fn fill<T>(
    m: &mut BTreeMap<String, f64>,
    sp: &mut Spans,
    layer: &'static str,
    key: &str,
    f: impl FnOnce() -> T,
    value: impl FnOnce(&T, f64) -> f64,
) -> T {
    let (v, secs) = sp.time(layer, &format!("kernel {key}"), |_| f());
    let x = value(&v, secs);
    m.entry(key.to_string()).or_insert(x);
    v
}

/// Replay the layer kernels on the workload's own inputs.
pub fn kernels(bench: &dyn Bench, sp: &mut Spans, m: &mut BTreeMap<String, f64>) {
    let wl = bench.kernel_workload();
    let n = KERNEL_INSTS as f64;

    // workloads / isa: generate and decode every application the workload
    // simulates.
    let profiles = bench.profiles();
    let (mut gen_s, mut dec_s) = (0.0, 0.0);
    for p in &profiles {
        let (prog, s) = sp.time("workloads", &format!("generate_program {}", p.name), |_| {
            generate_program(p)
        });
        gen_s += s;
        let (dec, s) = sp.time("isa", &format!("decode_all {}", p.name), |_| {
            prog.decode_all()
        });
        dec_s += s;
        black_box(dec);
    }
    m.insert(
        "workloads.generate_ms".into(),
        gen_s * 1e3 / profiles.len() as f64,
    );
    m.insert("isa.decode_ms".into(), dec_s * 1e3 / profiles.len() as f64);

    fill(
        m,
        sp,
        "workloads",
        "workloads.stream_ns_per_inst",
        || wl.engine().take(KERNEL_INSTS as usize).count(),
        |_, s| s * 1e9 / n,
    );
    let stream: Vec<DynInst> = wl.engine().take(KERNEL_INSTS as usize).collect();

    // tracefmt: capture the stream and replay it.
    let trace = fill(
        m,
        sp,
        "tracefmt",
        "tracefmt.capture_ns_per_inst",
        || capture(wl, KERNEL_INSTS, DEFAULT_SLICE_INSTS).expect("the workload's stream encodes"),
        |_, s| s * 1e9 / n,
    );
    m.entry("tracefmt.bits_per_inst".into())
        .or_insert(trace.bits_per_inst());
    let trace = Arc::new(trace);
    fill(
        m,
        sp,
        "tracefmt",
        "tracefmt.replay_ns_per_inst",
        || {
            let mut cur =
                ReplayCursor::new(Arc::clone(&trace), wl).expect("capture matches its workload");
            (0..KERNEL_INSTS)
                .map(|_| cur.next_inst().pc)
                .fold(0u64, u64::wrapping_add)
        },
        |_, s| s * 1e9 / n,
    );

    // uarch: branch predictor and cache hierarchy on the stream.
    let kinds: Vec<_> = stream
        .iter()
        .map(|d| wl.program.inst(d.inst).kind)
        .collect();
    fill(
        m,
        sp,
        "uarch",
        "uarch.bpred_ns_per_branch",
        || {
            let mut p = HybridPredictor::new(BpredConfig::baseline_4k());
            let mut branches = 0u64;
            for (d, k) in stream.iter().zip(&kinds) {
                if k.is_cond_branch() {
                    black_box(p.predict(d.pc));
                    p.update(d.pc, d.taken);
                    branches += 1;
                }
            }
            branches
        },
        |b, s| s * 1e9 / *b as f64,
    );
    fill(
        m,
        sp,
        "uarch",
        "uarch.cache_ns_per_access",
        || {
            let mut mem = MemHierarchy::standard();
            let mut accesses = 0u64;
            for d in &stream {
                black_box(mem.access_inst(d.pc));
                accesses += 1;
                if d.has_mem {
                    black_box(mem.access_data(d.eff_addr));
                    accesses += 1;
                }
            }
            accesses
        },
        |a, s| s * 1e9 / *a as f64,
    );

    // trace: selection over the stream, then construction of every frame.
    let candidates = fill(
        m,
        sp,
        "trace",
        "trace.select_ns_per_inst",
        || {
            let mut sel = TraceSelector::new(SelectionConfig::default());
            let mut out = Vec::new();
            for (seq, (d, k)) in stream.iter().zip(&kinds).enumerate() {
                sel.step(d, k, seq as u64, &mut out);
            }
            sel.flush(&mut out);
            out
        },
        |_, s| s * 1e9 / n,
    );
    let frames = fill(
        m,
        sp,
        "trace",
        "trace.construct_us_per_frame",
        || {
            candidates
                .iter()
                .map(|c| construct_frame(c, &wl.decoded))
                .collect::<Vec<_>>()
        },
        |f, s| s * 1e6 / f.len() as f64,
    );

    // opt: the full optimizer (validation gate included) on those frames.
    let mut sample: Vec<_> = frames.into_iter().take(OPT_KERNEL_FRAMES).collect();
    let count = sample.len();
    fill(
        m,
        sp,
        "opt",
        "opt.optimize_us_per_trace",
        || {
            let mut o = Optimizer::new(OptimizerConfig::full());
            sample
                .iter_mut()
                .map(|f| o.optimize(f, 0).uops_after)
                .sum::<u32>()
        },
        |_, s| s * 1e6 / count as f64,
    );

    if !m.contains_key("core.ns_per_inst.N") {
        // core: every model on the kernel application at the budget.
        for model in Model::ALL {
            let (r, secs) = sp.time(
                "core",
                &format!("kernel SimRequest::run {}", model.name()),
                |_| SimRequest::model(model).insts(KERNEL_INSTS).run(wl),
            );
            m.insert(
                format!("core.ns_per_inst.{}", model.name()),
                secs * 1e9 / r.insts as f64,
            );
            m.insert(
                format!("core.ns_per_cycle.{}", model.name()),
                secs * 1e9 / r.cycles as f64,
            );
        }
    }

    if !m.contains_key("sampling.plan_s") {
        sampling_kernel(wl, sp, m);
    }

    if !m.contains_key("telemetry.render_s") {
        // telemetry: one run with every sink installed, then render.
        install_sinks();
        sp.time("core", "kernel SimRequest::run TOW with sinks", |_| {
            SimRequest::model(Model::TOW).insts(KERNEL_INSTS).run(wl)
        });
        let (bytes, secs) = sp.time("telemetry", "kernel render artifacts", |_| render_sinks());
        m.insert("telemetry.render_s".into(), secs);
        m.insert("telemetry.artifact_mb".into(), bytes as f64 / 1e6);
    }
}

/// capture → `build_plan` → `SampleWarmth::build` → one sampled TOW run
/// at a small budget, with its error against the full-detail run.
fn sampling_kernel(wl: &Workload, sp: &mut Spans, m: &mut BTreeMap<String, f64>) {
    let budget = SAMPLING_KERNEL_INSTS;
    let spec = SamplingSpec::default();
    let (trace, secs) = sp.time("tracefmt", "kernel capture (sampling)", |_| {
        capture(wl, budget, DEFAULT_SLICE_INSTS).expect("the workload's stream encodes")
    });
    m.entry("tracefmt.capture_ns_per_inst".into())
        .or_insert(secs * 1e9 / budget as f64);
    let trace = Arc::new(trace);
    let (plan, secs) = sp.time("sampling", "kernel build_plan", |_| {
        build_plan(&trace, wl, budget, &spec).expect("kernel plan builds")
    });
    m.insert("sampling.plan_s".into(), secs);
    m.insert("sampling.k".into(), plan.k() as f64);
    let plan = Arc::new(plan);
    let cfg = Model::TOW.config();
    let (warmth, secs) = sp.time("core", "kernel SampleWarmth::build", |_| {
        SampleWarmth::build(&trace, wl, budget, &plan, &spec, std::slice::from_ref(&cfg))
    });
    m.insert("core.warmth_s".into(), secs);
    let (sampled, secs) = sp.time("core", "kernel SimRequest::run TOW sampled", |_| {
        SimRequest::model(Model::TOW)
            .insts(budget)
            .replay(Arc::clone(&trace))
            .sampled_plan(Arc::clone(&plan))
            .sample_warmth(Arc::new(warmth))
            .run(wl)
    });
    m.insert("core.sampled_run_s".into(), secs);
    let detailed = detailed_insts(&plan, &cfg, &spec);
    m.insert(
        "sampling.detailed_frac".into(),
        detailed as f64 / budget as f64,
    );
    let (full, _) = sp.time("core", "kernel SimRequest::run TOW full", |_| {
        SimRequest::model(Model::TOW)
            .insts(budget)
            .replay(trace)
            .run(wl)
    });
    m.insert(
        "sampling.ipc_err_pct".into(),
        rel_err_pct(sampled.ipc(), full.ipc()),
    );
    m.insert(
        "sampling.energy_err_pct".into(),
        rel_err_pct(sampled.energy, full.energy),
    );
}

/// `<layer>.self_s`: each layer's self time over the traced run's spans.
pub fn self_times(sp: &Spans, m: &mut BTreeMap<String, f64>) {
    let selfs = sp.self_time_by_layer();
    for layer in SELF_TIME_LAYERS {
        m.insert(
            format!("{layer}.self_s"),
            selfs.get(layer).copied().unwrap_or(0.0),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parrot_telemetry::json;

    /// The per-layer list and units the binary prints are the ones
    /// BENCHMARK.json declares, in the same order.
    #[test]
    fn per_layer_matches_benchmark_json() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let declared: Vec<(String, String)> = doc
            .get("per_layer")
            .as_arr()
            .expect("per_layer array")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).as_str().expect("string field").to_string();
                (field("name"), field("unit"))
            })
            .collect();
        let ours: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|k| (k.to_string(), unit(k).to_string()))
            .collect();
        assert_eq!(ours, declared);
    }
}
