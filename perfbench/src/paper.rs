//! The paper's headline numbers and the gap between them and a set of
//! simulated reports (`paper_gap_pct`).
//!
//! Every comparison here is one that the repository's `headline` binary
//! prints with a numeric paper value (§1 and the §4.1 figures of Rosner et
//! al., ISCA 2004, as DESIGN.md's figure table cites them); `TON vs W:
//! IPC`, whose paper value is only "≥0%", is left out. The same figures
//! are the band centres in `check_shapes`.

use crate::check::Reports;
use parrot_core::{Model, SimReport};
use parrot_energy::metrics::{cmpw_relative, geo_mean};

/// What a comparison measures.
#[derive(Clone, Copy, Debug)]
pub enum Quantity {
    Ipc,
    Energy,
    Cmpw,
}

/// One headline comparison: `model` against `base` on `quantity`, with the
/// paper's value in percent and where the paper states it.
pub struct Headline {
    pub model: Model,
    pub base: Model,
    pub quantity: Quantity,
    pub paper_pct: f64,
    pub source: &'static str,
}

const fn h(
    model: Model,
    base: Model,
    quantity: Quantity,
    paper_pct: f64,
    source: &'static str,
) -> Headline {
    Headline {
        model,
        base,
        quantity,
        paper_pct,
        source,
    }
}

/// The paper reference table.
pub const HEADLINES: [Headline; 12] = [
    h(
        Model::W,
        Model::N,
        Quantity::Ipc,
        15.0,
        "§1, Fig 4.4: W ≈ +15% IPC over N",
    ),
    h(
        Model::W,
        Model::N,
        Quantity::Energy,
        70.0,
        "§1, Fig 4.5: widening costs ~70% more energy",
    ),
    h(
        Model::TON,
        Model::N,
        Quantity::Ipc,
        17.0,
        "Fig 4.1: TON +17% IPC over N",
    ),
    h(
        Model::TON,
        Model::N,
        Quantity::Energy,
        3.0,
        "Fig 4.2: TON +3% energy over N",
    ),
    h(
        Model::TON,
        Model::W,
        Quantity::Energy,
        -39.0,
        "§1, Fig 4.5: TON ≈ W performance at ~39% less energy",
    ),
    h(
        Model::TON,
        Model::W,
        Quantity::Cmpw,
        67.0,
        "Fig 4.6: TON +67% CMPW over W",
    ),
    h(
        Model::TOW,
        Model::W,
        Quantity::Ipc,
        25.0,
        "Fig 4.1: TOW +25% IPC over W",
    ),
    h(
        Model::TOW,
        Model::W,
        Quantity::Energy,
        -18.0,
        "Fig 4.2: TOW −18% energy against W",
    ),
    h(
        Model::TOW,
        Model::N,
        Quantity::Ipc,
        45.0,
        "§1, Fig 4.4: TOW ≈ +45% IPC over N",
    ),
    h(
        Model::TOW,
        Model::N,
        Quantity::Cmpw,
        51.0,
        "§1, Fig 4.6: TOW +51% CMPW over N",
    ),
    h(
        Model::TON,
        Model::N,
        Quantity::Cmpw,
        32.0,
        "Fig 4.3: TON +32% CMPW over N",
    ),
    h(
        Model::TOW,
        Model::W,
        Quantity::Cmpw,
        92.0,
        "Fig 4.3: TOW +92% CMPW over W",
    ),
];

impl Headline {
    /// Label as `headline` prints it.
    pub fn label(&self) -> String {
        let q = match self.quantity {
            Quantity::Ipc => "IPC",
            Quantity::Energy => "energy",
            Quantity::Cmpw => "CMPW",
        };
        format!("{} vs {}: {q}", self.model.name(), self.base.name())
    }

    /// Our value in percent: the geometric mean over `apps` of the per-app
    /// ratio, computed exactly as `ResultSet::suite_ratio` and
    /// `ResultSet::suite_cmpw` do.
    pub fn ours_pct(&self, reports: &Reports, apps: &[String]) -> f64 {
        let get = |m: Model, app: &String| -> &SimReport {
            &reports[&(m.name().to_string(), app.clone())]
        };
        let ratios: Vec<f64> = apps
            .iter()
            .map(|a| {
                let (run, base) = (get(self.model, a), get(self.base, a));
                let (num, den) = match self.quantity {
                    Quantity::Ipc => (run.ipc(), base.ipc()),
                    Quantity::Energy => (run.energy, base.energy),
                    Quantity::Cmpw => return cmpw_relative(&base.summary(), &run.summary()),
                };
                if den == 0.0 {
                    1.0
                } else {
                    num / den
                }
            })
            .collect();
        (geo_mean(&ratios) - 1.0) * 100.0
    }
}

/// One row of the gap table.
pub struct Gap {
    pub label: String,
    pub source: &'static str,
    pub ours_pct: f64,
    pub paper_pct: f64,
}

impl Gap {
    /// Absolute gap in percentage points.
    pub fn pp(&self) -> f64 {
        (self.ours_pct - self.paper_pct).abs()
    }
}

/// Every headline comparison over the apps of `apps` that have a report
/// for every model (a failed operation leaves no report); none when no
/// app is complete.
pub fn gaps(reports: &Reports, apps: &[String]) -> Vec<Gap> {
    let complete: Vec<String> = apps
        .iter()
        .filter(|a| {
            Model::ALL
                .iter()
                .all(|m| reports.contains_key(&(m.name().to_string(), a.to_string())))
        })
        .cloned()
        .collect();
    if complete.is_empty() {
        return Vec::new();
    }
    let apps = &complete;
    HEADLINES
        .iter()
        .map(|h| Gap {
            label: h.label(),
            source: h.source,
            ours_pct: h.ours_pct(reports, apps),
            paper_pct: h.paper_pct,
        })
        .collect()
}

/// `paper_gap_pct`: the mean absolute gap in percentage points (NaN, which
/// prints as `null`, for no rows).
pub fn mean_gap(rows: &[Gap]) -> f64 {
    rows.iter().map(Gap::pp).sum::<f64>() / rows.len() as f64
}

/// The per-comparison table with its sources.
pub fn table(rows: &[Gap]) -> String {
    let mut out = format!(
        "{:<18}{:>9}{:>9}{:>8}  source\n",
        "comparison", "ours %", "paper %", "gap pp"
    );
    for g in rows {
        out.push_str(&format!(
            "{:<18}{:>+9.2}{:>+9.1}{:>8.2}  {}\n",
            g.label,
            g.ours_pct,
            g.paper_pct,
            g.pp(),
            g.source
        ));
    }
    out.push_str(&format!(
        "mean gap {:.3} pp over {} comparisons\n",
        mean_gap(rows),
        rows.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{load_sweep_reference, sweep_reference_path};
    use parrot_bench::{ResultSet, SweepConfig};

    /// `ours_pct` over the whole committed matrix equals what `headline`
    /// prints: the repository's own suite aggregation of the same reports.
    #[test]
    fn ours_matches_the_repository_aggregation() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let path = sweep_reference_path(&root.join("results"), 200_000);
        assert!(
            path.exists(),
            "committed reference {} missing",
            path.display()
        );
        let reports = load_sweep_reference(&root.join("results"), 200_000).expect("reference loads");
        let set = ResultSet::load_or_run_with(
            &SweepConfig::new()
                .insts(200_000)
                .cache_dir(path.parent().expect("results dir")),
        );
        let apps: Vec<String> = set.apps().iter().map(|a| a.name.to_string()).collect();
        for h in &HEADLINES {
            let theirs = match h.quantity {
                Quantity::Ipc => set.suite_ratio(None, h.model, h.base, |r| r.ipc()),
                Quantity::Energy => set.suite_ratio(None, h.model, h.base, |r| r.energy),
                Quantity::Cmpw => set.suite_cmpw(None, h.model, h.base),
            };
            let ours = h.ours_pct(&reports, &apps);
            assert!(
                (ours - (theirs - 1.0) * 100.0).abs() < 1e-9,
                "{}: {ours} vs {theirs}",
                h.label()
            );
        }
    }

    /// A failed operation leaves no report: its app drops out of the gap
    /// instead of aborting the run.
    #[test]
    fn incomplete_apps_are_left_out() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let mut reports =
            load_sweep_reference(&root.join("results"), 200_000).expect("reference loads");
        let apps = vec!["gcc".to_string(), "swim".to_string()];
        let both = mean_gap(&gaps(&reports, &apps));
        let swim_only = mean_gap(&gaps(&reports, &apps[1..]));
        reports.remove(&("TOW".to_string(), "gcc".to_string()));
        assert_eq!(mean_gap(&gaps(&reports, &apps)), swim_only);
        assert_ne!(both, swim_only);
        assert!(gaps(&reports, &apps[..1]).is_empty());
    }
}
