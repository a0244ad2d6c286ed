//! `detailed_200k`: 2 seed-drawn applications of every suite (10
//! applications) on all 7 models at the EXPERIMENTS.md budget, one
//! thread, no telemetry sinks, every run from empty modelled caches.
//!
//! Applications differ in host cost per instruction by up to 1.4×, so
//! the draw moves `cips` by about 3% between seeds (interquartile range
//! over ten seeds, from each operation's fastest time on one host).

use super::{against, build, guarded, Bench, Tally, EXPERIMENTS_INSTS};
use crate::check::{load_sweep_reference, self_check, Reports};
use crate::spans::Spans;
use parrot_core::{Model, SimRequest};
use parrot_telemetry::rng::Xorshift64Star;
use parrot_workloads::{all_apps, AppProfile, Suite, Workload};
use std::path::Path;

pub struct Detailed {
    workloads: Vec<Workload>,
    reference: Reports,
}

/// Applications drawn from every suite.
const APPS_PER_SUITE: usize = 2;

/// `APPS_PER_SUITE` of every suite's applications, drawn by `seed`.
pub fn choose_apps(seed: u64) -> Vec<AppProfile> {
    let mut rng = Xorshift64Star::seed_from_u64(seed);
    let apps = all_apps();
    let mut out = Vec::new();
    for suite in [
        Suite::SpecInt,
        Suite::SpecFp,
        Suite::Office,
        Suite::Multimedia,
        Suite::DotNet,
    ] {
        let mut pool: Vec<&AppProfile> = apps.iter().filter(|a| a.suite == suite).collect();
        for _ in 0..APPS_PER_SUITE {
            let i = rng.usize_in(0, pool.len());
            out.push(pool.swap_remove(i).clone());
        }
    }
    out
}

impl Detailed {
    pub fn setup(seed: u64, root: &Path, sp: &mut Spans) -> Result<Detailed, String> {
        let workloads = choose_apps(seed).iter().map(|p| build(p, sp)).collect();
        let (reference, _) = sp.time("perfbench", "load reference", |_| {
            load_sweep_reference(&root.join("results"), EXPERIMENTS_INSTS)
        });
        let reference = reference?;
        self_check(&reference)?;
        Ok(Detailed {
            workloads,
            reference,
        })
    }
}

impl Bench for Detailed {
    fn pass(&mut self, sp: &mut Spans, t: &mut Tally) {
        for wl in &self.workloads {
            for m in Model::ALL {
                let name = format!("SimRequest::run {} {}", m.name(), wl.profile.name);
                let (r, secs) = sp.time("core", &name, |_| {
                    guarded(&name, || {
                        SimRequest::model(m).insts(EXPERIMENTS_INSTS).run(wl)
                    })
                });
                let outcome = r.and_then(|r| {
                    against(&self.reference, &r)?;
                    t.insts += r.insts;
                    t.timed(secs);
                    t.latencies_ms.push(secs * 1e3);
                    let e = t.per_model.entry(r.model.clone()).or_default();
                    *e = (e.0 + secs, e.1 + r.insts, e.2 + r.cycles);
                    t.keep(r);
                    Ok(())
                });
                t.op(outcome);
            }
        }
    }

    fn profiles(&self) -> Vec<AppProfile> {
        self.workloads.iter().map(|w| w.profile.clone()).collect()
    }

    fn kernel_workload(&self) -> &Workload {
        &self.workloads[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_picks_two_of_every_suite() {
        let a = choose_apps(7);
        assert_eq!(a.len(), 10);
        let mut names: Vec<_> = a.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 10);
        assert_eq!(
            choose_apps(7).iter().map(|p| p.name).collect::<Vec<_>>(),
            a.iter().map(|p| p.name).collect::<Vec<_>>()
        );
    }
}
