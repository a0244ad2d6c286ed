//! The source abstraction that lets the simulator consume a committed
//! instruction stream either by generating it live or by replaying a
//! capture — transparently, with no dynamic dispatch on the hot path.

use std::sync::Arc;

use crate::engine::{DynInst, ExecutionEngine};
use crate::tracefmt::{ReplayCursor, TraceError, TraceFile};
use crate::Workload;

/// Where a simulation's committed instruction stream comes from: the live
/// [`ExecutionEngine`] (regenerates the stream from the program) or a
/// [`ReplayCursor`] over a `.ptrace` capture (skips all generator cost).
///
/// An enum rather than a trait object: the oracle pulls one instruction per
/// simulated commit, and a static match keeps that pull inlinable (the
/// benchmark's `cips` would notice a virtual call here).
///
/// ```
/// use parrot_workloads::tracefmt::capture;
/// use parrot_workloads::{app_by_name, StreamSource, Workload};
/// use std::sync::Arc;
///
/// let wl = Workload::build(&app_by_name("gzip").expect("registered"));
/// let trace = Arc::new(capture(&wl, 1_000, 256).expect("encodable"));
/// let mut live = StreamSource::live(&wl);
/// let mut replay = StreamSource::replay(trace, &wl).expect("source matches");
/// assert!(!live.is_replay() && replay.is_replay());
/// for _ in 0..1_000 {
///     assert_eq!(live.next_inst(), replay.next_inst());
/// }
/// ```
#[derive(Debug)]
pub enum StreamSource<'p> {
    /// Generate the stream by executing the program.
    Live(ExecutionEngine<'p>),
    /// Decode the stream from a validated capture.
    Replay(ReplayCursor<'p>),
}

impl<'p> StreamSource<'p> {
    /// A live engine positioned at `wl`'s entry point.
    pub fn live(wl: &'p Workload) -> StreamSource<'p> {
        StreamSource::Live(wl.engine())
    }

    /// A replay cursor at the start of `trace`, which must have been
    /// captured from exactly `wl` ([`TraceError::SourceMismatch`] otherwise).
    pub fn replay(trace: Arc<TraceFile>, wl: &'p Workload) -> Result<StreamSource<'p>, TraceError> {
        Ok(StreamSource::Replay(ReplayCursor::new(trace, wl)?))
    }

    /// Pull the next committed instruction. Both sources are infallible
    /// here: the engine's stream is infinite, and replay is bounds-checked
    /// against the capture before simulation starts (see
    /// [`ReplayCursor::next_inst`] for the panic contract).
    #[inline]
    pub fn next_inst(&mut self) -> DynInst {
        match self {
            StreamSource::Live(eng) => eng.next().expect("engine streams are infinite"),
            StreamSource::Replay(cur) => cur.next_inst(),
        }
    }

    /// Is this source a capture replay (vs. live generation)?
    pub fn is_replay(&self) -> bool {
        matches!(self, StreamSource::Replay(_))
    }

    /// Advance the source past the first `n` committed instructions, so the
    /// next [`StreamSource::next_inst`] returns instruction `n` of the
    /// stream. Replay repositions through the slice index in O(slice)
    /// ([`ReplayCursor::seek`]) — the operation phase sampling leans on to
    /// make warmup windows cheap; a live engine can only step there, which
    /// is why sampled simulation always runs from a capture.
    pub fn skip(&mut self, n: u64) -> Result<(), TraceError> {
        match self {
            StreamSource::Live(eng) => {
                for _ in 0..n {
                    eng.next().expect("engine streams are infinite");
                }
                Ok(())
            }
            StreamSource::Replay(cur) => cur.seek(n),
        }
    }
}
