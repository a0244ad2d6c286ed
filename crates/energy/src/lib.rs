//! # parrot-energy
//!
//! WATTCH/TEMPEST-style energy modeling for the PARROT reproduction
//! (paper §3.2) plus the evaluation metrics of §3.5.
//!
//! The methodology mirrors the paper exactly:
//!
//! 1. every microarchitectural activity is an [`Event`] with a per-access
//!    energy cost ("power tag");
//! 2. costs are derived from a machine description ([`EnergyConfig`]) with
//!    width/size scaling, so an 8-wide decoder or a 64-entry scheduler pays
//!    superlinearly more per access than a 4-wide/32-entry one;
//! 3. the timing simulation only counts events into an [`EnergyAccount`]
//!    (one integer add per activity); the counts are priced once, after the
//!    run, by [`EnergyAccount::price`], which yields an [`Energy`];
//! 4. static energy (clock + leakage) accrues per cycle, leakage following
//!    the paper's formula `LE = P_MAX · (0.05·M + 0.4·K) · CYC`, and is added
//!    by [`Energy::finish_static`];
//! 5. results are compared via total energy and the cubic-MIPS-per-WATT
//!    power-awareness metric ([`metrics`]).
//!
//! All energy values are arbitrary internal units; the paper's results (and
//! ours) are ratios between machine models, never absolute Joules.
//!
//! ```
//! use parrot_energy::{EnergyAccount, EnergyConfig, EnergyModel, Event};
//!
//! // The timing loop counts; it never sees a price.
//! let mut acct = EnergyAccount::new();
//! acct.emit(Event::ExecAlu);
//! acct.emit_n(Event::RegRead, 2);
//! assert_eq!(acct.count(Event::RegRead), 2);
//!
//! // After the run, price the counts once and add static energy.
//! let model = EnergyModel::new(&EnergyConfig::narrow());
//! let mut energy = acct.price(&model);
//! energy.finish_static(&model, 1_000); // 1000 cycles of clock + leakage
//! assert!(energy.total() > 0.0);
//! ```

#![warn(missing_docs)]

mod account;
mod event;
pub mod metrics;
mod model;

pub use account::{Energy, EnergyAccount};
pub use event::{Event, Unit};
pub use model::{EnergyConfig, EnergyModel};
