//! Sharded telemetry for parallel sweeps.
//!
//! The [`trace`], [`metrics`] and [`profile`] sinks are thread-local, so a
//! multi-threaded sweep would otherwise record nothing: every event would
//! land in the workers' uninstalled sinks. A [`SweepSession`] solves this
//! without any hot-path synchronization:
//!
//! 1. [`SweepSession::begin`] captures the sinks installed on the calling
//!    thread (remembering their configuration) — or returns `None` when no
//!    sink is installed, in which case the sweep runs with zero telemetry
//!    overhead.
//! 2. Each worker brackets every work item with
//!    [`SweepSession::install_item`] / [`SweepSession::collect_item`]:
//!    fresh, identically-configured sinks are installed thread-locally for
//!    the item, then collected into a *shard* tagged with the item index
//!    and worker id. During the item, every event is a plain store into
//!    the shard's own ring buffers and counter slots — no locks, no
//!    cross-thread traffic.
//! 3. Shards drain into the base sinks *at work-item boundaries*: when a
//!    shard for the next work item (in item order) is available,
//!    [`SweepSession::collect_item`] batch-absorbs the contiguous ready
//!    prefix into the captured sinks instead of letting completed shards
//!    pile up until the join. This bounds peak memory to in-flight items
//!    rather than the whole sweep — the fix for the parallel all-sinks
//!    pathology, where retaining every shard's event ring until the end
//!    put hundreds of megabytes of dead telemetry on the heap.
//! 4. After the join, [`SweepSession::finish`] drains any remaining shards
//!    (still in item order), merges them into the original sinks, and
//!    reinstalls those on the calling thread so the caller's normal flush
//!    path (e.g. `Telemetry::finish` in the bench CLI) works unchanged.
//!
//! Sharding per *item* rather than per worker keeps the merged artifacts
//! bit-stable: the trace ring bound and metric rows of an item depend only
//! on that item's (deterministic) simulation, never on which other items
//! happened to share a worker's sink. Draining strictly in item order —
//! only one drainer runs at a time, and it only ever absorbs the next
//! contiguous item — makes the merged documents identical regardless of
//! which worker finished what first, and identical to a serial sweep.
//!
//! Merge invariants (see DESIGN.md "Sweep engine & sharded telemetry"):
//!
//! - **Trace**: one Chrome trace; each run keeps its event order and
//!   simulated-cycle timestamps, gets a fresh deterministic pid, and is
//!   tagged with its worker as a named tid ([`trace::Tracer::absorb`]).
//!   Per-name sampling stats fold so the merged file's correction
//!   metadata stays exact.
//! - **Metrics**: one JSONL stream; rows ordered by committed-instruction
//!   interval, then run label, then sequence number; a final
//!   `sweep:total` row sums every counter absolutely and merges the
//!   histograms, reconciling exactly with the aggregated end-of-run
//!   reports ([`metrics::MetricsHub::seal_merged`]). Counters are plain
//!   per-shard `u64` values folded at merge, and trace-event sampling
//!   never touches them, so the total row is invariant under sampling.
//! - **Profile**: one report with aggregate section totals plus per-worker
//!   self/total attribution ([`profile::Profiler::absorb_worker`]).
//!
//! ```
//! use parrot_telemetry::shard::SweepSession;
//! use parrot_telemetry::metrics;
//!
//! metrics::install(metrics::MetricsHub::new(1_000));
//! let sess = SweepSession::begin().expect("a sink is installed");
//! for item in 0..2 {
//!     // On a worker thread in a real sweep:
//!     sess.install_item();
//!     metrics::begin_run(&format!("run{item}"));
//!     metrics::counter_set("work", 7);
//!     metrics::snapshot(500, 250);
//!     sess.collect_item(item, 0);
//! }
//! sess.finish(); // merged hub is reinstalled on this thread
//! let hub = metrics::take().unwrap();
//! let total = hub.to_jsonl().lines().last().unwrap().to_string();
//! assert!(total.contains("\"sweep:total\""));
//! assert!(total.contains("\"work\":14")); // counters summed absolutely
//! assert!(total.contains("\"insts\":1000")); // run intervals aggregated
//! ```

use crate::{metrics, profile, trace};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Run label of the final merged metrics row appended by
/// [`SweepSession::finish`].
pub const MERGED_RUN_LABEL: &str = "sweep:total";

/// A shared progress feed for long-running sweeps, drained from the
/// sharded telemetry merge: every time a completed work item's shard is
/// absorbed into the base sinks (strictly in item order — see the module
/// docs), the counter ticks. A caller installs one with
/// [`install_progress`] before starting the sweep, then reads
/// `done/total` from other threads to follow the sweep while it runs
/// (e.g. to time each work item as it drains).
#[derive(Debug, Default)]
pub struct Progress {
    done: AtomicU64,
    total: AtomicU64,
}

impl Progress {
    /// A fresh handle expecting `total` work items.
    pub fn new(total: u64) -> Arc<Progress> {
        Arc::new(Progress {
            done: AtomicU64::new(0),
            total: AtomicU64::new(total),
        })
    }

    /// Work items drained so far (monotonic, in item order).
    pub fn done(&self) -> u64 {
        self.done.load(Ordering::Acquire)
    }

    /// Expected total work items (0 when unknown).
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Acquire)
    }

    /// Record one more drained work item.
    pub fn tick(&self) {
        self.done.fetch_add(1, Ordering::AcqRel);
    }
}

thread_local! {
    static PROGRESS: RefCell<Option<Arc<Progress>>> = const { RefCell::new(None) };
}

/// Install a progress handle on the current thread. The next
/// [`SweepSession::begin`] on this thread captures it and ticks it once
/// per drained work-item shard; the caller keeps (a clone of) the `Arc`
/// and may read it from any thread.
pub fn install_progress(p: Arc<Progress>) {
    PROGRESS.with(|slot| *slot.borrow_mut() = Some(p));
}

/// Remove and return the current thread's progress handle, if any.
pub fn take_progress() -> Option<Arc<Progress>> {
    PROGRESS.with(|slot| slot.borrow_mut().take())
}

fn current_progress() -> Option<Arc<Progress>> {
    PROGRESS.with(|slot| slot.borrow().clone())
}

/// Sinks collected from one completed work item.
struct Shard {
    item: usize,
    worker: u32,
    tracer: Option<trace::Tracer>,
    metrics: Option<metrics::MetricsHub>,
    profiler: Option<profile::Profiler>,
}

/// Completed-but-undrained shards plus the drain cursor.
#[derive(Default)]
struct Pending {
    shards: Vec<Shard>,
    /// Next work item to drain; only the drain-lock holder advances it.
    next: usize,
}

/// A sweep-wide telemetry session: the calling thread's sinks, the
/// configuration to replicate on workers, and the collected shards.
///
/// See the [module docs](self) for the lifecycle.
pub struct SweepSession {
    trace_cap: Option<usize>,
    trace_sample: u32,
    metrics_interval: Option<u64>,
    profile: bool,
    base_trace: Mutex<Option<trace::Tracer>>,
    base_metrics: Mutex<Option<metrics::MetricsHub>>,
    base_profile: Mutex<Option<profile::Profiler>>,
    pending: Mutex<Pending>,
    /// Held while draining shards into the base sinks; `try_lock` so at
    /// most one worker drains and drain order stays strictly item order.
    drain: Mutex<()>,
    /// Progress feed captured from the calling thread ([`install_progress`]);
    /// ticked once per drained work-item shard.
    progress: Option<Arc<Progress>>,
}

impl SweepSession {
    /// Capture the calling thread's installed sinks into a session, or
    /// `None` when no sink (and no progress handle) is installed — the
    /// sweep then needs no telemetry bookkeeping at all.
    pub fn begin() -> Option<SweepSession> {
        let progress = current_progress();
        if !trace::active() && !metrics::active() && !profile::active() && progress.is_none() {
            return None;
        }
        let t = trace::take();
        let m = metrics::take();
        let p = profile::take();
        Some(SweepSession {
            trace_cap: t.as_ref().map(trace::Tracer::cap),
            trace_sample: t.as_ref().map_or(1, trace::Tracer::sample),
            metrics_interval: m.as_ref().map(metrics::MetricsHub::interval),
            profile: p.is_some(),
            base_trace: Mutex::new(t),
            base_metrics: Mutex::new(m),
            base_profile: Mutex::new(p),
            pending: Mutex::new(Pending::default()),
            drain: Mutex::new(()),
            progress,
        })
    }

    /// Install fresh sinks, configured like the captured ones (ring
    /// capacity, sampling rate, metrics interval), on the current worker
    /// thread. Call immediately before running a work item.
    pub fn install_item(&self) {
        if let Some(cap) = self.trace_cap {
            let mut t = trace::Tracer::new(cap);
            t.set_sample(self.trace_sample);
            trace::install(t);
        }
        if let Some(interval) = self.metrics_interval {
            metrics::install(metrics::MetricsHub::new(interval));
        }
        if self.profile {
            profile::install(profile::Profiler::new());
        }
    }

    /// Collect the current worker thread's sinks into the shard for work
    /// item `item`, executed by `worker`, then opportunistically drain the
    /// contiguous ready prefix of shards into the base sinks. Call
    /// immediately after the item completes.
    pub fn collect_item(&self, item: usize, worker: u32) {
        let shard = Shard {
            item,
            worker,
            tracer: if self.trace_cap.is_some() {
                trace::take()
            } else {
                None
            },
            metrics: if self.metrics_interval.is_some() {
                metrics::take()
            } else {
                None
            },
            profiler: if self.profile { profile::take() } else { None },
        };
        self.pending
            .lock()
            .expect("shard list lock")
            .shards
            .push(shard);
        self.drain_ready();
    }

    /// Absorb every shard whose item index is next in line. Only one
    /// drainer runs at a time (`try_lock`); a shard that becomes ready
    /// while another worker drains is picked up by the next drain call or
    /// by [`SweepSession::finish`].
    fn drain_ready(&self) {
        let Ok(_guard) = self.drain.try_lock() else {
            return;
        };
        loop {
            let shard = {
                let mut pending = self.pending.lock().expect("shard list lock");
                let next = pending.next;
                match pending.shards.iter().position(|s| s.item == next) {
                    Some(i) => {
                        pending.next += 1;
                        pending.shards.swap_remove(i)
                    }
                    None => return,
                }
            };
            self.absorb(shard);
        }
    }

    /// Merge one shard into the base sinks.
    fn absorb(&self, shard: Shard) {
        if let Some(t) = shard.tracer {
            if let Some(base) = self.base_trace.lock().expect("base tracer").as_mut() {
                base.absorb(shard.worker, t);
            }
        }
        if let Some(m) = shard.metrics {
            if let Some(base) = self.base_metrics.lock().expect("base metrics").as_mut() {
                base.absorb(m);
            }
        }
        if let Some(p) = shard.profiler {
            if let Some(base) = self.base_profile.lock().expect("base profiler").as_mut() {
                base.absorb_worker(shard.worker, p);
            }
        }
        if let Some(progress) = &self.progress {
            progress.tick();
        }
    }

    /// Drain every remaining shard (in work-item order) into the captured
    /// sinks and reinstall them on the calling thread, so the caller
    /// flushes one merged trace file, one reconciled metrics stream ending
    /// in a [`MERGED_RUN_LABEL`] total row, and one profiler report with
    /// per-worker attribution.
    pub fn finish(self) {
        // Workers have joined: drain the contiguous tail, then absorb any
        // non-contiguous leftovers (callers using arbitrary item indices)
        // in sorted order.
        self.drain_ready();
        let mut leftovers = self.pending.into_inner().expect("shard list").shards;
        leftovers.sort_by_key(|s| s.item);
        let mut tracer = self.base_trace.into_inner().expect("base tracer");
        let mut hub = self.base_metrics.into_inner().expect("base metrics");
        let mut profiler = self.base_profile.into_inner().expect("base profiler");
        for shard in leftovers {
            if let (Some(base), Some(t)) = (tracer.as_mut(), shard.tracer) {
                base.absorb(shard.worker, t);
            }
            if let (Some(base), Some(m)) = (hub.as_mut(), shard.metrics) {
                base.absorb(m);
            }
            if let (Some(base), Some(p)) = (profiler.as_mut(), shard.profiler) {
                base.absorb_worker(shard.worker, p);
            }
            if let Some(progress) = &self.progress {
                progress.tick();
            }
        }
        if let Some(t) = tracer {
            trace::install(t);
        }
        if let Some(mut m) = hub {
            m.seal_merged(MERGED_RUN_LABEL);
            metrics::install(m);
        }
        if let Some(p) = profiler {
            profile::install(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn begin_is_none_without_sinks() {
        assert!(!trace::active() && !metrics::active() && !profile::active());
        assert!(SweepSession::begin().is_none());
    }

    #[test]
    fn session_replicates_configs_and_merges_back() {
        metrics::install(metrics::MetricsHub::new(500));
        trace::install(trace::Tracer::new(64));
        profile::install(profile::Profiler::new());
        let session = SweepSession::begin().expect("sinks installed");
        // Sinks moved into the session: the thread has none until finish.
        assert!(!metrics::active() && !trace::active() && !profile::active());

        // Simulate two items completing on two workers, out of item order.
        for (item, worker) in [(1usize, 0u32), (0, 1)] {
            session.install_item();
            assert!(metrics::active() && trace::active() && profile::active());
            metrics::begin_run(&format!("run{item}"));
            metrics::counter_set("trace_entries", 10 * (item as u64 + 1));
            metrics::snapshot(1_000, 500);
            trace::begin_run(&format!("run{item}"));
            trace::set_clock(7);
            trace::instant("e", "c", trace::track::MACHINE, trace::NO_ARGS);
            {
                let _s = profile::scope("machine.run");
            }
            session.collect_item(item, worker);
        }
        session.finish();

        let hub = metrics::take().expect("merged hub reinstalled");
        let jsonl = hub.to_jsonl();
        let rows: Vec<_> = jsonl.lines().map(|l| json::parse(l).unwrap()).collect();
        // Two per-run rows (sorted by insts then run label) + the total.
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].get("run").as_str(), Some("run0"));
        assert_eq!(rows[1].get("run").as_str(), Some("run1"));
        let total = &rows[2];
        assert_eq!(total.get("run").as_str(), Some(MERGED_RUN_LABEL));
        assert_eq!(total.get("trace_entries").as_u64(), Some(30));
        assert_eq!(total.get("insts").as_u64(), Some(2_000));
        assert_eq!(total.get("cycles").as_u64(), Some(1_000));
        assert_eq!(total.get("runs_merged").as_u64(), Some(2));

        let tracer = trace::take().expect("merged tracer reinstalled");
        let doc = json::parse(&tracer.to_chrome_json()).unwrap();
        let events = doc.get("traceEvents").as_arr().unwrap();
        // Shards drained in item order: run0 gets the lower pid despite
        // finishing second.
        let pid_of = |label: &str| {
            events
                .iter()
                .find(|e| {
                    e.get("name").as_str() == Some("process_name")
                        && e.get("args").get("name").as_str() == Some(label)
                })
                .and_then(|e| e.get("pid").as_u64())
                .unwrap()
        };
        assert!(pid_of("run0") < pid_of("run1"));
        // Worker attribution rendered as a named tid 0.
        assert!(events.iter().any(|e| {
            e.get("name").as_str() == Some("thread_name")
                && e.get("args").get("name").as_str() == Some("worker 1")
        }));

        let p = profile::take().expect("merged profiler reinstalled");
        assert_eq!(p.section("machine.run").unwrap().0, 2);
        assert_eq!(p.worker_section(0, "machine.run").unwrap().0, 1);
        assert_eq!(p.worker_section(1, "machine.run").unwrap().0, 1);
        let report = p.report();
        assert!(report.contains("per-worker attribution"));
    }

    #[test]
    fn progress_ticks_in_item_order_without_other_sinks() {
        // A progress handle alone is enough to get a session: a caller can
        // follow a sweep's progress with no trace/metrics sink installed.
        let p = Progress::new(3);
        install_progress(Arc::clone(&p));
        let session = SweepSession::begin().expect("progress handle installed");
        assert_eq!(p.done(), 0);
        // Item 1 completes first: nothing drains (item 0 not ready).
        session.install_item();
        session.collect_item(1, 0);
        assert_eq!(p.done(), 0, "drain is strictly in item order");
        // Item 0 completes: both drain.
        session.install_item();
        session.collect_item(0, 1);
        assert_eq!(p.done(), 2);
        // Item 2 arrives only at finish.
        session.install_item();
        session.collect_item(7, 0); // non-contiguous: drained at finish
        session.finish();
        assert_eq!(p.done(), 3);
        assert_eq!(p.total(), 3);
        assert!(take_progress().is_some(), "handle stays installed");
        assert!(take_progress().is_none());
    }

    #[test]
    fn session_replicates_sampling_rate_and_folds_stats() {
        let mut t = trace::Tracer::new(256);
        t.set_sample(3);
        trace::install(t);
        let session = SweepSession::begin().expect("tracer installed");
        for item in 0..2usize {
            session.install_item();
            trace::begin_run(&format!("run{item}"));
            for i in 0..6u64 {
                trace::set_clock(i);
                trace::instant("e", "c", trace::track::MACHINE, trace::NO_ARGS);
            }
            session.collect_item(item, 0);
        }
        session.finish();
        let t = trace::take().expect("merged tracer");
        // Each shard keeps ceil(6/3)=2 of 6 "e" events.
        assert_eq!(t.event_stats("e"), (12, 8));
        assert_eq!(t.len(), 4);
    }
}
