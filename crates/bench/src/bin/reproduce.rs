//! Reproduce every table and figure of the paper's evaluation (§4) and
//! write the paper-vs-measured record to `EXPERIMENTS.md`.
//!
//! Run with: `cargo run --release -p parrot-bench --bin reproduce`
//! (set `PARROT_INSTS` to change the per-run instruction budget; pass
//! `--jobs N` to set the sweep worker count — telemetry sinks, if any,
//! are sharded across the workers and merged after the join).

use parrot_bench::{groups, insts_budget, pct, ResultSet};
use parrot_core::Model;
use parrot_workloads::all_apps;
use std::fmt::Write as _;

fn main() {
    let (telemetry, _args) =
        parrot_bench::cli::Telemetry::from_args(std::env::args().skip(1).collect());
    let set = ResultSet::load_or_run();
    let mut md = String::new();
    let insts = insts_budget();

    writeln!(md, "# EXPERIMENTS — paper vs. measured\n").unwrap();
    writeln!(
        md,
        "Reproduction of *Power Awareness through Selective Dynamically Optimized\n\
         Traces* (Rosner et al., ISCA 2004). All runs: {} committed instructions per\n\
         (model, application); 44 synthetic stand-in applications across the paper's\n\
         five suites; geometric means. Absolute numbers are not comparable to the\n\
         paper (synthetic workloads, abstract energy units); every comparison below\n\
         is therefore a *relative* measure, like the paper's own figures. See\n\
         DESIGN.md for the substitution and calibration methodology.\n",
        insts
    )
    .unwrap();
    writeln!(
        md,
        "Regenerate with `cargo run --release -p parrot-bench --bin reproduce`.\n"
    )
    .unwrap();
    writeln!(
        md,
        "To profile or inspect a run, the bench binaries take `--profile` (wall-clock\n\
         self/total table for the simulator itself), `--trace-out FILE` (Perfetto\n\
         timeline in simulated cycles) and `--metrics-out FILE` (JSONL counter/histogram\n\
         snapshots); see README.md \u{201c}Observability\u{201d}. Sweeps run on `--jobs N` worker\n\
         threads (default: all cores) with telemetry sharded per work item and merged\n\
         deterministically after the join.\n"
    )
    .unwrap();

    writeln!(md, "## Sweep wall-clock — serial vs parallel\n").unwrap();
    match parrot_bench::sweep_timing_markdown() {
        Some(table) => md.push_str(&table),
        None => writeln!(
            md,
            "No timing record yet: run `cargo run --release -p parrot-bench --bin\n\
             sweepbench` to measure serial vs `--jobs N` sweeps with and without\n\
             telemetry sinks."
        )
        .unwrap(),
    }
    writeln!(md).unwrap();

    writeln!(md, "## Trace capture/replay — size and speedup\n").unwrap();
    match parrot_bench::trace_replay_markdown() {
        Some(table) => md.push_str(&table),
        None => writeln!(
            md,
            "No capture/replay record yet: run `cargo run --release -p parrot-bench\n\
             --bin tracebench` to capture every app into `corpus/` and measure\n\
             replay-vs-generate wall clock (see DESIGN.md §16)."
        )
        .unwrap(),
    }
    writeln!(md).unwrap();

    writeln!(md, "## Phase sampling — sampled-vs-full fidelity\n").unwrap();
    match parrot_bench::sample::sampling_markdown() {
        Some(table) => md.push_str(&table),
        None => writeln!(
            md,
            "No sampling record yet: run `cargo run --release -p parrot-bench\n\
             --bin parrot -- sample --all --insts 30000000` to measure the\n\
             sampled reconstruction of every model against the full simulation\n\
             (see DESIGN.md §18)."
        )
        .unwrap(),
    }
    writeln!(md).unwrap();

    writeln!(
        md,
        "## Fault injection — graceful degradation vs fault rate\n"
    )
    .unwrap();
    match parrot_bench::soak::soak_markdown() {
        Some(table) => md.push_str(&table),
        None => writeln!(
            md,
            "No soak record yet: run `cargo run --release -p parrot-bench --bin\n\
             parrot -- soak` to measure IPC/energy degradation under a seeded\n\
             fault-injection campaign (see DESIGN.md §14)."
        )
        .unwrap(),
    }
    writeln!(md).unwrap();

    // ---- headline table ----
    writeln!(md, "## Headline comparisons (§1, §4.1)\n").unwrap();
    writeln!(md, "| comparison | paper | measured |").unwrap();
    writeln!(md, "|---|---|---|").unwrap();
    let ipc = |r: &parrot_core::SimReport| r.ipc();
    let energy = |r: &parrot_core::SimReport| r.energy;
    let rows: Vec<(&str, &str, String)> = vec![
        (
            "W vs N — IPC",
            "~ +15%",
            pct(set.suite_ratio(None, Model::W, Model::N, ipc)),
        ),
        (
            "W vs N — energy",
            "+70%",
            pct(set.suite_ratio(None, Model::W, Model::N, energy)),
        ),
        (
            "TON vs N — IPC",
            "+17%",
            pct(set.suite_ratio(None, Model::TON, Model::N, ipc)),
        ),
        (
            "TON vs N — energy",
            "+3%",
            pct(set.suite_ratio(None, Model::TON, Model::N, energy)),
        ),
        (
            "TON vs N — CMPW",
            "+32%",
            pct(set.suite_cmpw(None, Model::TON, Model::N)),
        ),
        (
            "TON vs W — IPC",
            "slightly better",
            pct(set.suite_ratio(None, Model::TON, Model::W, ipc)),
        ),
        (
            "TON vs W — energy",
            "−39%",
            pct(set.suite_ratio(None, Model::TON, Model::W, energy)),
        ),
        (
            "TON vs W — CMPW",
            "+67%",
            pct(set.suite_cmpw(None, Model::TON, Model::W)),
        ),
        (
            "TOW vs W — IPC",
            "+25%",
            pct(set.suite_ratio(None, Model::TOW, Model::W, ipc)),
        ),
        (
            "TOW vs W — energy",
            "−18%",
            pct(set.suite_ratio(None, Model::TOW, Model::W, energy)),
        ),
        (
            "TOW vs W — CMPW",
            "+92%",
            pct(set.suite_cmpw(None, Model::TOW, Model::W)),
        ),
        (
            "TOW vs N — IPC",
            "+45%",
            pct(set.suite_ratio(None, Model::TOW, Model::N, ipc)),
        ),
        (
            "TOW vs N — CMPW",
            "+51%",
            pct(set.suite_cmpw(None, Model::TOW, Model::N)),
        ),
    ];
    for (label, paper, ours) in rows {
        writeln!(md, "| {label} | {paper} | {ours} |").unwrap();
    }
    writeln!(md).unwrap();

    // ---- per-suite figures with a shared helper ----
    let suite_table =
        |md: &mut String,
         title: &str,
         models: &[Model],
         f: &dyn Fn(Option<parrot_workloads::Suite>, Model) -> String| {
            writeln!(md, "## {title}\n").unwrap();
            write!(md, "| model |").unwrap();
            for (label, _) in groups() {
                write!(md, " {label} |").unwrap();
            }
            writeln!(md).unwrap();
            write!(md, "|---|").unwrap();
            for _ in groups() {
                write!(md, "---|").unwrap();
            }
            writeln!(md).unwrap();
            for m in models {
                write!(md, "| {} |", m.name()).unwrap();
                for (_, suite) in groups() {
                    write!(md, " {} |", f(suite, *m)).unwrap();
                }
                writeln!(md).unwrap();
            }
            writeln!(md).unwrap();
        };

    let tmods = [Model::TN, Model::TON, Model::TW, Model::TOW];
    suite_table(&mut md, "Fig 4.1 — IPC improvement over same-width baseline (paper: TN +2%, TW +7%, TON +17%, TOW +25%)", &tmods, &|s, m| {
        pct(set.suite_ratio(s, m, m.same_width_baseline(), |r| r.ipc()))
    });
    writeln!(
        md,
        "Killer applications (paper: flash, wupwise, perlbench show the largest gains):\n"
    )
    .unwrap();
    writeln!(md, "| app | TON vs N | TOW vs W |").unwrap();
    writeln!(md, "|---|---|---|").unwrap();
    for k in parrot_workloads::killer_apps() {
        let ton = set.get(Model::TON, k).ipc() / set.get(Model::N, k).ipc();
        let tow = set.get(Model::TOW, k).ipc() / set.get(Model::W, k).ipc();
        writeln!(md, "| {k} | {} | {} |", pct(ton), pct(tow)).unwrap();
    }
    writeln!(md).unwrap();

    suite_table(&mut md, "Fig 4.2 — energy increase over same-width baseline (paper: TON +3% over N; all W extensions save energy, TOW −18%)", &tmods, &|s, m| {
        pct(set.suite_ratio(s, m, m.same_width_baseline(), |r| r.energy))
    });
    suite_table(
        &mut md,
        "Fig 4.3 — CMPW improvement over same-width baseline (paper: TON +32%, TOW +92%)",
        &tmods,
        &|s, m| pct(set.suite_cmpw(s, m, m.same_width_baseline())),
    );
    let all6 = [
        Model::W,
        Model::TN,
        Model::TW,
        Model::TON,
        Model::TOW,
        Model::TOS,
    ];
    suite_table(
        &mut md,
        "Fig 4.4 — IPC relative to N (paper: W ≈ +15%, TON ≳ W, TOW ≈ +45%)",
        &all6,
        &|s, m| pct(set.suite_ratio(s, m, Model::N, |r| r.ipc())),
    );
    suite_table(
        &mut md,
        "Fig 4.5 — energy relative to N (paper: W +70%, TON +3%, TOW +39%)",
        &all6,
        &|s, m| pct(set.suite_ratio(s, m, Model::N, |r| r.energy)),
    );
    suite_table(
        &mut md,
        "Fig 4.6 — CMPW relative to N (paper: TOW +51%)",
        &all6,
        &|s, m| pct(set.suite_cmpw(s, m, Model::N)),
    );

    // Fig 4.7
    writeln!(
        md,
        "## Fig 4.7 — misprediction rates (paper shape: trace < N branch < TON cold branch)\n"
    )
    .unwrap();
    writeln!(md, "| group | N branch | TON cold branch | TON trace |").unwrap();
    writeln!(md, "|---|---|---|---|").unwrap();
    for (label, suite) in groups() {
        let n = set.suite_metric(suite, Model::N, |r| r.branch_mispredict_rate().max(1e-6));
        let cold = set.suite_metric(suite, Model::TON, |r| r.branch_mispredict_rate().max(1e-6));
        let tmr = set.suite_metric(suite, Model::TON, |r| {
            r.trace
                .as_ref()
                .map(|t| t.trace_mispredict_rate())
                .unwrap_or(0.0)
                .max(1e-6)
        });
        writeln!(
            md,
            "| {label} | {:.2}% | {:.2}% | {:.2}% |",
            n * 100.0,
            cold * 100.0,
            tmr * 100.0
        )
        .unwrap();
    }
    writeln!(md).unwrap();

    // Fig 4.8
    writeln!(
        md,
        "## Fig 4.8 — coverage (paper: SpecFP ≈ 90%, SpecInt 60–70%)\n"
    )
    .unwrap();
    writeln!(md, "| group | coverage |").unwrap();
    writeln!(md, "|---|---|").unwrap();
    for (label, suite) in groups() {
        let cov = set.suite_metric(suite, Model::TON, |r| {
            r.trace
                .as_ref()
                .map(|t| t.coverage)
                .unwrap_or(0.0)
                .max(1e-6)
        });
        writeln!(md, "| {label} | {:.1}% |", cov * 100.0).unwrap();
    }
    writeln!(md).unwrap();

    // Fig 4.9
    writeln!(md, "## Fig 4.9 — optimizer impact on TOW (paper: uop −19%, dependency path −8%, SpecInt relatively higher dep reduction)\n").unwrap();
    writeln!(md, "| group | uop reduction | dep reduction |").unwrap();
    writeln!(md, "|---|---|---|").unwrap();
    for (label, suite) in groups() {
        let u = set.suite_metric(suite, Model::TOW, |r| {
            r.trace
                .as_ref()
                .and_then(|t| t.opt.as_ref())
                .map(|o| o.uop_reduction)
                .unwrap_or(0.0)
                .max(1e-6)
        });
        let d = set.suite_metric(suite, Model::TOW, |r| {
            r.trace
                .as_ref()
                .and_then(|t| t.opt.as_ref())
                .map(|o| o.dep_reduction)
                .unwrap_or(0.0)
                .max(1e-6)
        });
        writeln!(md, "| {label} | {:.1}% | {:.1}% |", u * 100.0, d * 100.0).unwrap();
    }
    writeln!(md).unwrap();

    // Translation-validation gate (companion to Fig 4.9): every optimized
    // trace carries a static verdict; demotions mean the gate refused a
    // rewrite it could not prove equivalent.
    writeln!(
        md,
        "## Translation validation on TOW (every optimized trace statically verified; demotions kept unoptimized)\n"
    )
    .unwrap();
    writeln!(
        md,
        "| group | traces | validated | demoted | lint | equiv |"
    )
    .unwrap();
    writeln!(md, "|---|---|---|---|---|---|").unwrap();
    for (label, suite) in groups() {
        let (mut traces, mut validated, mut demoted, mut lint, mut equiv) = (0, 0, 0, 0, 0);
        for a in all_apps()
            .iter()
            .filter(|a| suite.is_none_or(|s| a.suite == s))
        {
            if let Some(o) = set
                .get(Model::TOW, a.name)
                .trace
                .as_ref()
                .and_then(|t| t.opt.as_ref())
            {
                traces += o.traces;
                validated += o.validated;
                demoted += o.demoted;
                lint += o.inconclusive_lint;
                equiv += o.inconclusive_equiv;
            }
        }
        writeln!(
            md,
            "| {label} | {traces} | {validated} | {demoted} | {lint} | {equiv} |"
        )
        .unwrap();
    }
    writeln!(md).unwrap();

    // Fig 4.10
    writeln!(md, "## Fig 4.10 — executions per optimized trace (paper: SpecFP highest; reuse ≫ blazing threshold)\n").unwrap();
    writeln!(md, "| group | mean reuse |").unwrap();
    writeln!(md, "|---|---|").unwrap();
    for (label, suite) in groups() {
        let reuse = set.suite_metric(suite, Model::TOW, |r| {
            r.trace
                .as_ref()
                .map(|t| t.mean_opt_reuse)
                .unwrap_or(0.0)
                .max(1e-6)
        });
        writeln!(md, "| {label} | {reuse:.0} |").unwrap();
    }
    writeln!(md).unwrap();

    // Fig 4.11
    writeln!(md, "## Fig 4.11 — energy breakdown (paper shape: front-end share shrinks N → TON → TOS; trace manipulation ≈ 10%)\n").unwrap();
    for app in ["flash", "swim", "gcc"] {
        writeln!(md, "### {app}\n").unwrap();
        writeln!(md, "| unit | N | TON | TOS |").unwrap();
        writeln!(md, "|---|---|---|---|").unwrap();
        let runs = [
            set.get(Model::N, app),
            set.get(Model::TON, app),
            set.get(Model::TOS, app),
        ];
        for (label, _) in &runs[0].energy_by_unit {
            let shares: Vec<f64> = runs.iter().map(|r| r.unit_share(label) * 100.0).collect();
            if shares.iter().any(|s| *s >= 0.5) {
                writeln!(
                    md,
                    "| {label} | {:.1}% | {:.1}% | {:.1}% |",
                    shares[0], shares[1], shares[2]
                )
                .unwrap();
            }
        }
        let fe: Vec<f64> = runs
            .iter()
            .map(|r| {
                (r.unit_share("fetch") + r.unit_share("decode") + r.unit_share("bpred")) * 100.0
            })
            .collect();
        let tm: Vec<f64> = runs
            .iter()
            .map(|r| {
                (r.unit_share("tcache")
                    + r.unit_share("filters")
                    + r.unit_share("optimizer")
                    + r.unit_share("tpred"))
                    * 100.0
            })
            .collect();
        writeln!(
            md,
            "| **front-end total** | {:.1}% | {:.1}% | {:.1}% |",
            fe[0], fe[1], fe[2]
        )
        .unwrap();
        writeln!(
            md,
            "| **trace manipulation** | {:.1}% | {:.1}% | {:.1}% |",
            tm[0], tm[1], tm[2]
        )
        .unwrap();
        writeln!(md).unwrap();
    }

    // ---- static analysis cross-validation ----
    // Computed live (deterministic: fixed selector config and budget, no
    // cycle simulation), so there is no cache to go stale.
    writeln!(
        md,
        "## Static reuse prediction vs observed trace selection\n"
    )
    .unwrap();
    writeln!(
        md,
        "`parrot analyze` predicts per-head reuse from loop structure alone\n\
         (no execution). Validation against the trace selector's observed\n\
         per-head selection mass at {} committed instructions per app:\n\
         *precision* = predicted-hot heads that were observed hot, *recall* =\n\
         observed-hot heads that were predicted, *event coverage* = fraction\n\
         of all selection events landing on predicted-hot heads. See\n\
         DESIGN.md §17.\n",
        parrot_bench::xval::XVAL_INSTS
    )
    .unwrap();
    md.push_str(&parrot_bench::xval::xval_markdown());
    writeln!(md).unwrap();

    // ---- loop-aware eviction ----
    writeln!(md, "## Loop-aware trace-cache eviction (static hints)\n").unwrap();
    writeln!(
        md,
        "Same sweep with `loop_aware_eviction(true)`: the trace cache breaks\n\
         LRU ties by preferring to keep frames whose head sits in a deeper\n\
         static loop (hints from `parrot analyze`, see DESIGN.md §17). The\n\
         flag is part of the sweep fingerprint, so both variants cache\n\
         independently; with the flag off the reports are byte-identical to\n\
         the plain-LRU baseline. At the default budget the trace cache\n\
         rarely overflows, so deltas are small by construction — the policy\n\
         only changes *which* frame dies when a set is full (the\n\
         under-pressure behaviour is pinned by unit tests in\n\
         `crates/trace/src/cache.rs`).\n"
    )
    .unwrap();
    let set_la = ResultSet::load_or_run_with(
        &parrot_bench::SweepConfig::from_env().loop_aware_eviction(true),
    );
    writeln!(
        md,
        "| group | model | tc hit rate (LRU) | tc hit rate (hints) | evictions (LRU) | evictions (hints) | IPC delta |"
    )
    .unwrap();
    writeln!(md, "|---|---|---|---|---|---|---|").unwrap();
    let hit_rate = |r: &parrot_core::SimReport| {
        r.trace
            .as_ref()
            .map(|t| {
                if t.tc_lookups == 0 {
                    0.0
                } else {
                    t.tc_hits as f64 / t.tc_lookups as f64
                }
            })
            .unwrap_or(0.0)
            .max(1e-9)
    };
    let evictions = |r: &parrot_core::SimReport| {
        r.trace
            .as_ref()
            .map(|t| t.tc_evictions as f64)
            .unwrap_or(0.0)
            .max(1e-9)
    };
    for m in [Model::TON, Model::TOW] {
        for (label, suite) in groups() {
            let h0 = set.suite_metric(suite, m, hit_rate);
            let h1 = set_la.suite_metric(suite, m, hit_rate);
            let e0 = set.suite_metric(suite, m, evictions);
            let e1 = set_la.suite_metric(suite, m, evictions);
            let ipc = set_la.suite_metric(suite, m, |r| r.ipc())
                / set.suite_metric(suite, m, |r| r.ipc());
            writeln!(
                md,
                "| {label} | {} | {:.1}% | {:.1}% | {:.0} | {:.0} | {} |",
                m.name(),
                h0 * 100.0,
                h1 * 100.0,
                e0,
                e1,
                pct(ipc)
            )
            .unwrap();
        }
    }
    writeln!(md).unwrap();

    writeln!(md, "## Known calibration gaps\n").unwrap();
    writeln!(
        md,
        "* TOW's IPC gain over W and over N undershoots the paper (≈ +19%/+37% vs.\n\
         \u{20}\u{20}+25%/+45%): the paper's machines translate dynamic uop reduction into\n\
         \u{20}\u{20}cycles almost 1:1 (purely bandwidth-bound), while our synthetic workloads\n\
         \u{20}\u{20}retain more latency-bound behaviour. All orderings and crossovers hold.\n\
         * TON's total energy lands slightly *below* N instead of +3%: our trace-side\n\
         \u{20}\u{20}overhead estimate is conservative relative to the narrow decode savings.\n\
         * TOS is modeled with drain-based core switching (the paper left split-core\n\
         \u{20}\u{20}exploration to future work); it is reported for Fig 4.11 only, as in the\n\
         \u{20}\u{20}paper.\n"
    )
    .unwrap();

    std::fs::write("EXPERIMENTS.md", &md).expect("write EXPERIMENTS.md");
    println!("{md}");
    parrot_telemetry::status!("(written to EXPERIMENTS.md)");
    telemetry.finish();
}
