use crate::{EnergyModel, Event, Unit};

/// Event counts for one simulation run, or for one side of a split machine.
///
/// The timing models call [`EnergyAccount::emit`] for every activity; that is
/// a single integer add, with no price attached. After the run (or at a
/// mid-run snapshot) [`EnergyAccount::price`] applies an [`EnergyModel`] once
/// to turn the counts into [`Energy`]. The same counts can be re-priced under
/// any model without re-simulating.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EnergyAccount {
    counts: [u64; Event::COUNT],
}

impl Default for EnergyAccount {
    fn default() -> EnergyAccount {
        EnergyAccount::new()
    }
}

impl EnergyAccount {
    /// Empty account.
    pub fn new() -> EnergyAccount {
        EnergyAccount {
            counts: [0; Event::COUNT],
        }
    }

    /// Record one occurrence of `event`.
    #[inline]
    pub fn emit(&mut self, event: Event) {
        self.counts[event.index()] += 1;
    }

    /// Record `n` occurrences of `event`.
    #[inline]
    pub fn emit_n(&mut self, event: Event, n: u64) {
        self.counts[event.index()] += n;
    }

    /// Number of occurrences of `event` recorded.
    pub fn count(&self, event: Event) -> u64 {
        self.counts[event.index()]
    }

    /// Add another account's counts into this one.
    pub fn merge(&mut self, other: &EnergyAccount) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// The dynamic energy of these counts under `model` (no clock or
    /// leakage; add those with [`Energy::finish_static`]).
    pub fn price(&self, model: &EnergyModel) -> Energy {
        let mut energy = Energy::default();
        for e in Event::ALL {
            let spent = model.cost(e) * self.counts[e.index()] as f64;
            energy.by_unit[e.unit().index()] += spent;
            energy.total += spent;
        }
        energy
    }
}

/// Priced energy (arbitrary units), broken down by [`Unit`]. Breakdown by
/// unit reproduces Fig 4.11.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Energy {
    by_unit: [f64; Unit::COUNT],
    total: f64,
    static_done: bool,
}

impl Energy {
    /// Add clock and leakage energy for `cycles` simulated cycles. Call once,
    /// after pricing every account of the run.
    ///
    /// # Panics
    /// Panics if called twice on the same energy.
    pub fn finish_static(&mut self, model: &EnergyModel, cycles: u64) {
        assert!(!self.static_done, "finish_static called twice");
        self.static_done = true;
        let clock = model.static_per_cycle() * cycles as f64;
        let leak = model.leakage_per_cycle() * cycles as f64;
        self.by_unit[Unit::Clock.index()] += clock;
        self.by_unit[Unit::Leakage.index()] += leak;
        self.total += clock + leak;
    }

    /// Total energy (arbitrary units).
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Energy attributed to `unit`.
    pub fn unit_energy(&self, unit: Unit) -> f64 {
        self.by_unit[unit.index()]
    }

    /// Fraction of total energy attributed to `unit` (0 when total is 0).
    pub fn unit_share(&self, unit: Unit) -> f64 {
        if self.total > 0.0 {
            self.by_unit[unit.index()] / self.total
        } else {
            0.0
        }
    }

    /// Breakdown over all units, in [`Unit::ALL`] order: `(unit, energy)`.
    pub fn breakdown(&self) -> Vec<(Unit, f64)> {
        Unit::ALL
            .iter()
            .map(|u| (*u, self.by_unit[u.index()]))
            .collect()
    }

    /// Add another priced energy into this one (e.g. the two cores of a
    /// split machine, each priced under its own model).
    pub fn merge(&mut self, other: &Energy) {
        for (a, b) in self.by_unit.iter_mut().zip(&other.by_unit) {
            *a += b;
        }
        self.total += other.total;
        self.static_done |= other.static_done;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EnergyConfig;

    fn model() -> EnergyModel {
        EnergyModel::new(&EnergyConfig::narrow())
    }

    #[test]
    fn totals_equal_sum_of_units() {
        let m = model();
        let mut a = EnergyAccount::new();
        a.emit(Event::ExecAlu);
        a.emit_n(Event::L1dAccess, 10);
        let mut e = a.price(&m);
        e.finish_static(&m, 100);
        let sum: f64 = e.breakdown().iter().map(|(_, e)| e).sum();
        assert!((sum - e.total()).abs() < 1e-9);
    }

    #[test]
    fn counts_recorded() {
        let mut a = EnergyAccount::new();
        a.emit_n(Event::CommitUop, 42);
        assert_eq!(a.count(Event::CommitUop), 42);
        assert_eq!(a.count(Event::ExecAlu), 0);
    }

    #[test]
    fn shares_sum_to_one() {
        let m = model();
        let mut a = EnergyAccount::new();
        a.emit_n(Event::ExecAlu, 5);
        let mut e = a.price(&m);
        e.finish_static(&m, 10);
        let s: f64 = Unit::ALL.iter().map(|u| e.unit_share(*u)).sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn double_finish_panics() {
        let m = model();
        let mut e = EnergyAccount::new().price(&m);
        e.finish_static(&m, 1);
        e.finish_static(&m, 1);
    }

    #[test]
    fn merge_adds_everything() {
        let m = model();
        let mut a = EnergyAccount::new();
        let mut b = EnergyAccount::new();
        a.emit(Event::ExecAlu);
        b.emit(Event::ExecAlu);
        b.emit(Event::RegRead);
        a.merge(&b);
        assert_eq!(a.count(Event::ExecAlu), 2);
        assert_eq!(a.count(Event::RegRead), 1);
        let total = a.price(&m).total();
        assert!((total - (2.0 * m.cost(Event::ExecAlu) + m.cost(Event::RegRead))).abs() < 1e-9);
    }

    #[test]
    fn pricing_once_matches_pricing_every_event() {
        let m = model();
        let mut a = EnergyAccount::new();
        let mut running = 0.0;
        for (i, e) in Event::ALL.iter().enumerate() {
            let n = i as u64 * 7 + 1;
            a.emit_n(*e, n);
            running += m.cost(*e) * n as f64;
        }
        let priced = a.price(&m).total();
        assert!((priced - running).abs() <= 1e-12 * running);
    }
}

#[cfg(test)]
mod merge_edge_tests {
    use super::*;
    use crate::EnergyConfig;

    #[test]
    fn merge_preserves_breakdown_consistency() {
        let m = EnergyModel::new(&EnergyConfig::narrow());
        let w = EnergyModel::new(&EnergyConfig::wide());
        // Two accounts priced by different models (split machine): totals
        // and unit sums must stay consistent after merging.
        let mut cold = EnergyAccount::new();
        cold.emit_n(Event::DecodeSimple, 100);
        cold.emit_n(Event::ExecAlu, 50);
        let mut hot = EnergyAccount::new();
        hot.emit_n(Event::IqWakeup, 80);
        hot.emit_n(Event::ExecAlu, 70);
        let hot_energy = hot.price(&w);
        let mut energy = cold.price(&m);
        energy.merge(&hot_energy);
        let sum: f64 = energy.breakdown().iter().map(|(_, e)| e).sum();
        assert!((sum - energy.total()).abs() < 1e-9);
        assert!(energy.total() > hot_energy.total());
        cold.merge(&hot);
        assert_eq!(cold.count(Event::ExecAlu), 120);
    }
}
