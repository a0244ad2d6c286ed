//! The out-of-order superscalar execution core.
//!
//! One generic, width-configurable engine backs every machine model in the
//! study (the paper's "generic, highly configurable object-oriented
//! execution core", §3.1): rename with a register alias table, a unified
//! ROB, an issue window with per-class execution ports, a load/store queue
//! budget, and in-order commit. It is *trace-driven*: only correct-path
//! uops enter; branch mispredictions manifest as fetch stalls plus
//! wrong-path energy, and resolved mispredicts are reported so the front
//! end can model the redirect.

use crate::cache::{MemHierarchy, ServicedBy};
use parrot_energy::{EnergyAccount, Event};
use parrot_isa::{ExecClass, Reg, Uop};
use parrot_telemetry::profile;

/// Per-class execution port counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PortCounts {
    /// Integer ALU ports (also execute multiplies, divides, nops).
    pub int_alu: u32,
    /// Memory ports (loads + store-address).
    pub mem: u32,
    /// Floating-point ports.
    pub fp: u32,
    /// Branch resolution ports.
    pub branch: u32,
    /// Packed/SIMD ports.
    pub simd: u32,
}

/// Execution-core configuration (one per machine model; Table 3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreConfig {
    /// Macro-instructions fetched per cycle (cold front end).
    pub fetch_width: u32,
    /// Uops leaving decode per cycle.
    pub decode_uops: u32,
    /// Multi-uop (CISC) instructions decodable per cycle.
    pub max_complex: u32,
    /// Uops renamed/dispatched per cycle.
    pub rename_width: u32,
    /// Peak uops issued per cycle.
    pub issue_width: u32,
    /// Uops committed per cycle.
    pub commit_width: u32,
    /// Reorder buffer entries.
    pub rob_size: u32,
    /// Issue-window entries.
    pub iq_size: u32,
    /// Load/store queue entries.
    pub lsq_size: u32,
    /// Execution ports.
    pub ports: PortCounts,
    /// Front-end refill penalty after a resolved misprediction (cycles).
    pub mispredict_penalty: u32,
    /// In-order issue (§5's alternative execution model for a hot core):
    /// uops issue strictly in age order, stalling at the first non-ready
    /// one. Saves scheduler energy at some IPC cost.
    pub in_order: bool,
}

impl CoreConfig {
    /// The standard 4-wide OOO core (model `N`).
    pub fn narrow() -> CoreConfig {
        CoreConfig {
            fetch_width: 4,
            decode_uops: 6,
            max_complex: 1,
            rename_width: 4,
            issue_width: 4,
            commit_width: 4,
            rob_size: 128,
            iq_size: 32,
            lsq_size: 48,
            ports: PortCounts {
                int_alu: 3,
                mem: 2,
                fp: 2,
                branch: 1,
                simd: 1,
            },
            mispredict_penalty: 10,
            in_order: false,
        }
    }

    /// The theoretical 8-wide core (model `W`).
    pub fn wide() -> CoreConfig {
        CoreConfig {
            fetch_width: 8,
            decode_uops: 10,
            max_complex: 1,
            rename_width: 8,
            issue_width: 8,
            commit_width: 8,
            rob_size: 144,
            iq_size: 36,
            lsq_size: 64,
            ports: PortCounts {
                int_alu: 4,
                mem: 3,
                fp: 3,
                branch: 2,
                simd: 2,
            },
            mispredict_penalty: 10,
            in_order: false,
        }
    }

    /// An in-order variant of this core (issue stalls at the first
    /// non-ready uop) — the paper's §5 alternative execution model.
    pub fn into_in_order(mut self) -> CoreConfig {
        self.in_order = true;
        self
    }
}

/// A uop ready for rename/dispatch: the compact, pipeline-facing projection
/// of a [`Uop`] plus its dynamic context.
#[derive(Clone, Copy, Debug)]
pub struct DispatchUop {
    /// Execution class (port binding + latency).
    pub class: ExecClass,
    /// Registers read (including flags), capped at 4 — SIMD packs beyond
    /// that are approximated by their first lanes.
    pub reads: [Option<Reg>; 4],
    /// Registers written (including flags), capped at 4.
    pub writes: [Option<Reg>; 4],
    /// Effective address for memory uops.
    pub eff_addr: u64,
    /// Macro-instructions credited at this uop's commit. Cold uops carry 1
    /// on each instruction's final uop; an atomic trace carries its whole
    /// instruction count on its final uop (atomic commit accounting, robust
    /// to optimizer uop elimination).
    pub inst_credit: u32,
    /// This uop is a mispredicted control transfer: its completion triggers
    /// a front-end redirect.
    pub mispredict: bool,
    /// SIMD lane count (0 for scalar uops) — drives per-lane exec energy.
    pub simd_lanes: u8,
}

impl DispatchUop {
    /// Project a decoded [`Uop`] into dispatch form. `inst_credit` is the
    /// number of macro-instructions credited when this uop commits.
    pub fn from_uop(uop: &Uop, eff_addr: u64, inst_credit: u32) -> DispatchUop {
        let mut reads = [None; 4];
        let mut nr = 0;
        uop.for_each_use(|r| {
            if nr < 4 {
                reads[nr] = Some(r);
                nr += 1;
            }
        });
        let mut writes = [None; 4];
        let mut nw = 0;
        uop.for_each_def(|r| {
            if nw < 4 {
                writes[nw] = Some(r);
                nw += 1;
            }
        });
        let simd_lanes = match &uop.kind {
            parrot_isa::UopKind::Simd(p) => p.lanes.len() as u8,
            _ => 0,
        };
        DispatchUop {
            class: uop.exec_class(),
            reads,
            writes,
            eff_addr,
            inst_credit,
            mispredict: false,
            simd_lanes,
        }
    }
}

const NONE: u32 = u32::MAX;
/// Completion-bucket ring size; must exceed the longest latency.
const BUCKETS: usize = 256;
/// Operand slots per uop, and so wakeup edges per ROB entry.
const READS: usize = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum UopState {
    Waiting,
    Issued,
    Done,
}

#[derive(Clone, Copy, Debug)]
struct RobEntry {
    state: UopState,
    class: ExecClass,
    writes: [u8; 4], // register indices, 255 = none
    seq: u64,
    eff_addr: u64,
    reads: u8,
    /// Operand reads whose producer has not written back yet; the uop is
    /// ready to issue at 0.
    pending: u8,
    inst_credit: u32,
    mispredict: bool,
    simd_lanes: u8,
    /// Position in the issue window while waiting (out-of-order cores).
    iq_pos: u32,
    /// First wakeup edge of the consumers waiting on this uop (see
    /// `OooCore::wake_next`), `NONE` when there are none.
    wake_head: u32,
    /// Next uop in the same completion bucket, `NONE` at the end.
    next_done: u32,
}

impl RobEntry {
    fn empty() -> RobEntry {
        RobEntry {
            state: UopState::Done,
            class: ExecClass::Nop,
            writes: [255; 4],
            seq: 0,
            eff_addr: 0,
            reads: 0,
            pending: 0,
            inst_credit: 0,
            mispredict: false,
            simd_lanes: 0,
            iq_pos: NONE,
            wake_head: NONE,
            next_done: NONE,
        }
    }
}

/// Aggregate statistics of one core.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Uops committed.
    pub committed_uops: u64,
    /// Macro-instructions committed.
    pub committed_insts: u64,
    /// Uops issued to execution.
    pub issued_uops: u64,
    /// Loads that missed L1.
    pub l1d_misses: u64,
    /// Cycles in which nothing committed (stall visibility).
    pub commit_stall_cycles: u64,
    /// Issue cycles with an empty window (front-end starvation).
    pub iq_empty_cycles: u64,
    /// Issue cycles where the window was non-empty but nothing issued
    /// (dependency/port bound).
    pub issue_blocked_cycles: u64,
    /// Total issue-cycle count (denominator for the two above).
    pub issue_cycles: u64,
}

/// What one [`OooCore::cycle`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CycleOutcome {
    /// Uops that completed execution (wrote back).
    pub completed: u32,
    /// Uops committed.
    pub committed_uops: u32,
    /// Macro-instructions committed.
    pub committed_insts: u32,
    /// Uops issued to execution.
    pub issued: u32,
    /// Resolution cycle of a completing mispredicted branch, if any (the
    /// front end resumes at `resolution + mispredict_penalty`).
    pub resolved: Option<u64>,
}

impl CycleOutcome {
    /// Did the cycle change anything but the statistics? A core whose cycle
    /// was inactive stays inactive until [`OooCore::next_event`] or a
    /// dispatch.
    pub fn active(&self) -> bool {
        self.completed + self.committed_uops + self.issued > 0
    }
}

/// The out-of-order core. Drive it each cycle with [`OooCore::cycle`]
/// (writeback → commit → issue) and then [`OooCore::dispatch`]. When a
/// whole machine cycle does nothing, [`OooCore::next_event`] names the next
/// cycle at which the core can act on its own, and [`OooCore::skip_idle`]
/// charges the cycles in between without simulating them.
///
/// Issue is event-driven: each waiting uop counts its producers that have
/// not written back, and each producer keeps an intrusive list of its
/// consumers (one edge per operand slot, in the flat `wake_next` array).
/// Writeback decrements the counts and marks the window positions whose
/// count reaches zero in a readiness bitset, so issue visits only ready
/// positions, in the same order as a scan of the whole window.
#[derive(Clone, Debug)]
pub struct OooCore {
    cfg: CoreConfig,
    rob: Vec<RobEntry>,
    head: u32,
    tail: u32,
    count: u32,
    next_seq: u64,
    rat: [u32; 192],
    rat_seq: [u64; 192],
    iq: Vec<u32>,
    /// Bit `p` is set when the uop at window position `p` is ready
    /// (out-of-order cores only; in-order issue reads `pending` directly).
    ready: Vec<u64>,
    /// Wakeup edge `idx * READS + k` links ROB entry `idx`, operand `k`,
    /// into its producer's consumer list; the value is the next edge.
    wake_next: Vec<u32>,
    lsq_count: u32,
    div_busy_until: u64,
    /// Head of each completion bucket's list (threaded through
    /// `RobEntry::next_done`), and one bit per non-empty bucket.
    done_head: [u32; BUCKETS],
    done_mask: [u64; BUCKETS / 64],
    stats: CoreStats,
}

impl OooCore {
    /// An empty core.
    pub fn new(cfg: CoreConfig) -> OooCore {
        OooCore {
            cfg,
            rob: vec![RobEntry::empty(); cfg.rob_size as usize],
            head: 0,
            tail: 0,
            count: 0,
            next_seq: 1,
            rat: [NONE; 192],
            rat_seq: [0; 192],
            iq: Vec::with_capacity(cfg.iq_size as usize),
            ready: vec![0; (cfg.iq_size as usize).div_ceil(64)],
            wake_next: vec![NONE; cfg.rob_size as usize * READS],
            lsq_count: 0,
            div_busy_until: 0,
            done_head: [NONE; BUCKETS],
            done_mask: [0; BUCKETS / 64],
            stats: CoreStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Is the pipeline drained?
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// In-flight uop count.
    pub fn occupancy(&self) -> u32 {
        self.count
    }

    /// One cycle of the back end: writeback, commit, then issue.
    pub fn cycle(
        &mut self,
        now: u64,
        mem: &mut MemHierarchy,
        acct: &mut EnergyAccount,
    ) -> CycleOutcome {
        let _stage = profile::stage(profile::Stage::Exec);
        let (completed, resolved) = self.writeback(now, acct);
        let (committed_uops, committed_insts) = self.commit(mem, acct);
        let issued = self.issue(now, mem, acct);
        CycleOutcome {
            completed,
            committed_uops,
            committed_insts,
            issued,
            resolved,
        }
    }

    /// The earliest cycle at or after `now` at which this core can act
    /// without new input: its next completion, or the divider freeing up.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        let start = now as usize % BUCKETS;
        let completion = first_set(&self.done_mask, start)
            .or_else(|| first_set(&self.done_mask, 0))
            .map(|bucket| now + ((bucket + BUCKETS - start) % BUCKETS) as u64);
        let div = (self.div_busy_until >= now).then_some(self.div_busy_until);
        completion.into_iter().chain(div).min()
    }

    /// Account `cycles` idle cycles in bulk, exactly as that many calls to
    /// [`OooCore::cycle`] would when nothing completes, commits or issues:
    /// each is a commit stall and an issue cycle, with an empty or blocked
    /// window.
    pub fn skip_idle(&mut self, cycles: u64) {
        self.stats.commit_stall_cycles += cycles;
        self.stats.issue_cycles += cycles;
        if self.iq.is_empty() {
            self.stats.iq_empty_cycles += cycles;
        } else {
            self.stats.issue_blocked_cycles += cycles;
        }
    }

    /// Mark completions due at `now` and wake their consumers. Returns the
    /// number of uops completed and the resolution cycle of a completing
    /// mispredicted branch, if any.
    fn writeback(&mut self, now: u64, acct: &mut EnergyAccount) -> (u32, Option<u64>) {
        let bucket = (now as usize) % BUCKETS;
        let mut idx = std::mem::replace(&mut self.done_head[bucket], NONE);
        self.done_mask[bucket / 64] &= !(1 << (bucket % 64));
        let mut completed = 0;
        let mut resolved = None;
        while idx != NONE {
            let e = &mut self.rob[idx as usize];
            let next = e.next_done;
            e.state = UopState::Done;
            acct.emit(Event::IqWakeup);
            let writes = e.writes.iter().filter(|w| **w != 255).count();
            acct.emit_n(Event::RegWrite, writes as u64);
            if e.mispredict {
                resolved = Some(now);
            }
            let mut edge = std::mem::replace(&mut e.wake_head, NONE);
            while edge != NONE {
                let c = &mut self.rob[edge as usize / READS];
                c.pending -= 1;
                if c.pending == 0 && !self.cfg.in_order {
                    let pos = c.iq_pos as usize;
                    self.set_ready_bit(pos, true);
                }
                edge = self.wake_next[edge as usize];
            }
            completed += 1;
            idx = next;
        }
        (completed, resolved)
    }

    /// Retire up to `commit_width` completed uops from the ROB head. Stores
    /// access the data cache at retirement. Returns (uops, insts) committed.
    fn commit(&mut self, mem: &mut MemHierarchy, acct: &mut EnergyAccount) -> (u32, u32) {
        let mut uops = 0;
        let mut insts = 0;
        while self.count > 0 && uops < self.cfg.commit_width {
            let h = self.head as usize;
            if self.rob[h].state != UopState::Done {
                break;
            }
            let e = self.rob[h];
            // Free the RAT mapping if this entry still owns it.
            for w in e.writes {
                if w != 255
                    && self.rat[w as usize] == self.head
                    && self.rat_seq[w as usize] == e.seq
                {
                    self.rat[w as usize] = NONE;
                }
            }
            if e.class == ExecClass::Store {
                let r = mem.access_data(e.eff_addr);
                emit_data_events(r.serviced_by, acct);
                self.lsq_count = self.lsq_count.saturating_sub(1);
            }
            if e.class == ExecClass::Load {
                self.lsq_count = self.lsq_count.saturating_sub(1);
            }
            acct.emit(Event::CommitUop);
            acct.emit(Event::RobRead);
            self.stats.committed_uops += 1;
            uops += 1;
            if e.inst_credit > 0 {
                acct.emit_n(Event::CommitInst, u64::from(e.inst_credit));
                self.stats.committed_insts += u64::from(e.inst_credit);
                insts += e.inst_credit;
            }
            self.head = (self.head + 1) % self.cfg.rob_size;
            self.count -= 1;
        }
        if uops == 0 {
            self.stats.commit_stall_cycles += 1;
        }
        (uops, insts)
    }

    /// Select and begin execution of ready uops, oldest window position
    /// first, bounded by issue width and port counts. Returns the number of
    /// uops issued.
    fn issue(&mut self, now: u64, mem: &mut MemHierarchy, acct: &mut EnergyAccount) -> u32 {
        self.stats.issue_cycles += 1;
        if self.iq.is_empty() {
            self.stats.iq_empty_cycles += 1;
        }
        let p = self.cfg.ports;
        let mut ports = [p.int_alu, p.mem, p.fp, p.branch, p.simd];
        let mut issued = 0u32;
        if self.cfg.in_order {
            // The window is in age order (dispatch appends, issue removes
            // the front): issue from the front and stall at the first uop
            // that is not ready or cannot get its unit.
            while issued < self.cfg.issue_width {
                let Some(&idx) = self.iq.first() else { break };
                if self.rob[idx as usize].pending > 0
                    || !self.try_issue(idx as usize, now, &mut ports, mem, acct)
                {
                    break;
                }
                self.iq.remove(0);
                issued += 1;
            }
        } else {
            // Visit ready positions in window order. Issuing swap-removes
            // the entry, moving the last one into its position, which is
            // then examined next (as a full scan of the window would).
            let mut pos = 0;
            while issued < self.cfg.issue_width {
                let Some(p) = first_set(&self.ready, pos) else {
                    break;
                };
                if self.try_issue(self.iq[p] as usize, now, &mut ports, mem, acct) {
                    self.iq_swap_remove(p);
                    issued += 1;
                    pos = p;
                } else {
                    pos = p + 1;
                }
            }
        }
        self.stats.issued_uops += u64::from(issued);
        if issued == 0 && !self.iq.is_empty() {
            self.stats.issue_blocked_cycles += 1;
        }
        issued
    }

    fn set_ready_bit(&mut self, pos: usize, on: bool) {
        let (w, b) = (pos / 64, 1u64 << (pos % 64));
        if on {
            self.ready[w] |= b;
        } else {
            self.ready[w] &= !b;
        }
    }

    /// `Vec::swap_remove` on the window, mirrored in the readiness bitset
    /// and the moved entry's `iq_pos`.
    fn iq_swap_remove(&mut self, pos: usize) {
        let last = self.iq.len() - 1;
        let last_ready = self.ready[last / 64] >> (last % 64) & 1 == 1;
        self.set_ready_bit(last, false);
        self.iq.swap_remove(pos);
        if pos < last {
            self.set_ready_bit(pos, last_ready);
            self.rob[self.iq[pos] as usize].iq_pos = pos as u32;
        }
    }

    /// Start executing the ready uop at ROB index `idx` if its unit is
    /// free this cycle: claim a port, probe the data cache for loads,
    /// charge the select/read/execute events and schedule its completion.
    /// Returns false (changing nothing) when the divider or port is busy.
    fn try_issue(
        &mut self,
        idx: usize,
        now: u64,
        ports: &mut [u32; 5],
        mem: &mut MemHierarchy,
        acct: &mut EnergyAccount,
    ) -> bool {
        let class = self.rob[idx].class;
        let port = match class {
            ExecClass::IntAlu | ExecClass::IntMul | ExecClass::Nop => 0,
            ExecClass::IntDiv => {
                if now < self.div_busy_until {
                    return false;
                }
                0
            }
            ExecClass::Load | ExecClass::Store => 1,
            ExecClass::FpAdd | ExecClass::FpMul | ExecClass::FpDiv => 2,
            ExecClass::Branch => 3,
            ExecClass::Simd => 4,
        };
        if ports[port] == 0 {
            return false;
        }
        ports[port] -= 1;

        // Compute latency (loads probe the hierarchy now).
        let latency = match class {
            ExecClass::IntAlu | ExecClass::Branch | ExecClass::Nop | ExecClass::Store => 1,
            ExecClass::IntMul => 3,
            ExecClass::IntDiv => 16,
            ExecClass::FpAdd => 3,
            ExecClass::FpMul => 4,
            ExecClass::FpDiv => 18,
            ExecClass::Simd => 2,
            ExecClass::Load => {
                let r = mem.access_data(self.rob[idx].eff_addr);
                emit_data_events(r.serviced_by, acct);
                if r.serviced_by != ServicedBy::L1 {
                    self.stats.l1d_misses += 1;
                }
                r.latency
            }
        } as u64;

        // Events for select, operand reads and the operation itself.
        acct.emit(Event::IqSelect);
        acct.emit_n(Event::RegRead, u64::from(self.rob[idx].reads));
        match class {
            ExecClass::IntAlu | ExecClass::Nop | ExecClass::Branch => acct.emit(Event::ExecAlu),
            ExecClass::IntMul => acct.emit(Event::ExecMul),
            ExecClass::IntDiv => acct.emit(Event::ExecDiv),
            ExecClass::FpAdd => acct.emit(Event::ExecFpAdd),
            ExecClass::FpMul => acct.emit(Event::ExecFpMul),
            ExecClass::FpDiv => acct.emit(Event::ExecFpDiv),
            ExecClass::Simd => acct.emit_n(
                Event::ExecSimdLane,
                u64::from(self.rob[idx].simd_lanes.max(1)),
            ),
            ExecClass::Load | ExecClass::Store => acct.emit(Event::AguCalc),
        }

        let complete = now + latency;
        if class == ExecClass::IntDiv {
            self.div_busy_until = complete;
        }
        let bucket = (complete as usize) % BUCKETS;
        let e = &mut self.rob[idx];
        e.state = UopState::Issued;
        e.next_done = std::mem::replace(&mut self.done_head[bucket], idx as u32);
        self.done_mask[bucket / 64] |= 1 << (bucket % 64);
        true
    }

    /// Can another uop be dispatched this cycle (structural hazards only;
    /// the caller enforces rename width)?
    pub fn can_dispatch(&self, d: &DispatchUop) -> bool {
        if self.count >= self.cfg.rob_size {
            return false;
        }
        if self.iq.len() >= self.cfg.iq_size as usize {
            return false;
        }
        if matches!(d.class, ExecClass::Load | ExecClass::Store)
            && self.lsq_count >= self.cfg.lsq_size
        {
            return false;
        }
        true
    }

    /// Rename and insert one uop: link it onto the wakeup list of every
    /// producer that has not written back yet.
    ///
    /// # Panics
    /// Panics if [`OooCore::can_dispatch`] would return false.
    pub fn dispatch(&mut self, d: &DispatchUop, acct: &mut EnergyAccount) {
        assert!(self.can_dispatch(d), "dispatch without capacity check");
        let idx = self.tail;
        let seq = self.next_seq;
        self.next_seq += 1;

        let mut e = RobEntry::empty();
        e.state = UopState::Waiting;
        e.class = d.class;
        e.seq = seq;
        e.eff_addr = d.eff_addr;
        e.inst_credit = d.inst_credit;
        e.mispredict = d.mispredict;
        e.simd_lanes = d.simd_lanes;

        for (k, r) in d.reads.iter().enumerate() {
            if let Some(r) = r {
                e.reads += 1;
                // A live mapping names an uncommitted producer (commit
                // clears the mapping it still owns).
                let p = self.rat[r.index()];
                if p != NONE && self.rob[p as usize].state != UopState::Done {
                    let edge = idx as usize * READS + k;
                    let producer = &mut self.rob[p as usize];
                    self.wake_next[edge] = std::mem::replace(&mut producer.wake_head, edge as u32);
                    e.pending += 1;
                }
            }
        }
        for (k, w) in d.writes.iter().enumerate() {
            if let Some(w) = w {
                e.writes[k] = w.index() as u8;
                self.rat[w.index()] = idx;
                self.rat_seq[w.index()] = seq;
            }
        }

        if matches!(d.class, ExecClass::Load | ExecClass::Store) {
            self.lsq_count += 1;
        }
        let pos = self.iq.len();
        e.iq_pos = pos as u32;
        if e.pending == 0 && !self.cfg.in_order {
            self.set_ready_bit(pos, true);
        }
        self.rob[idx as usize] = e;
        self.iq.push(idx);
        self.tail = (self.tail + 1) % self.cfg.rob_size;
        self.count += 1;

        acct.emit(Event::RenameUop);
        acct.emit(Event::RobWrite);
        acct.emit(Event::IqInsert);
    }
}

/// The index of the first set bit at or after `from` in the bitset `bits`.
fn first_set(bits: &[u64], from: usize) -> Option<usize> {
    let mut w = from / 64;
    let mut word = *bits.get(w)? & (u64::MAX << (from % 64));
    loop {
        if word != 0 {
            return Some(w * 64 + word.trailing_zeros() as usize);
        }
        w += 1;
        word = *bits.get(w)?;
    }
}

/// Count the events for a data access serviced at `level`.
pub fn emit_data_events(level: ServicedBy, acct: &mut EnergyAccount) {
    acct.emit(Event::L1dAccess);
    match level {
        ServicedBy::L1 => {}
        ServicedBy::L2 => {
            acct.emit(Event::L1dMiss);
            acct.emit(Event::L2Access);
        }
        ServicedBy::Memory => {
            acct.emit(Event::L1dMiss);
            acct.emit(Event::L2Access);
            acct.emit(Event::MemAccess);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parrot_isa::{AluOp, Cond, Uop};

    struct Rig {
        core: OooCore,
        mem: MemHierarchy,
        acct: EnergyAccount,
        now: u64,
    }

    impl Rig {
        fn new() -> Rig {
            Rig {
                core: OooCore::new(CoreConfig::narrow()),
                mem: MemHierarchy::standard(),
                acct: EnergyAccount::new(),
                now: 0,
            }
        }

        fn cycle(&mut self) -> (u32, u32) {
            let c = self.core.cycle(self.now, &mut self.mem, &mut self.acct);
            self.now += 1;
            (c.committed_uops, c.committed_insts)
        }

        fn run_until_empty(&mut self, max: u64) -> (u64, u64) {
            let mut uops = 0u64;
            let mut insts = 0u64;
            for _ in 0..max {
                let (u, i) = self.cycle();
                uops += u64::from(u);
                insts += u64::from(i);
                if self.core.is_empty() {
                    break;
                }
            }
            (uops, insts)
        }

        fn dispatch(&mut self, d: DispatchUop) {
            assert!(self.core.can_dispatch(&d));
            self.core.dispatch(&d, &mut self.acct);
        }
    }

    fn alu(dst: u8, a: u8, b: u8, last: bool) -> DispatchUop {
        let u = Uop::alu(AluOp::Add, Reg::int(dst), Reg::int(a), Reg::int(b));
        DispatchUop::from_uop(&u, 0, u32::from(last))
    }

    #[test]
    fn independent_uops_commit_quickly() {
        let mut rig = Rig::new();
        for i in 0..4 {
            rig.dispatch(alu(i, i, i, true));
        }
        let (uops, insts) = rig.run_until_empty(100);
        assert_eq!(uops, 4);
        assert_eq!(insts, 4);
        // 4 independent ALU uops on a 4-wide machine: a handful of cycles.
        assert!(rig.now <= 6, "took {} cycles", rig.now);
    }

    #[test]
    fn dependency_chain_serializes() {
        let mut rig = Rig::new();
        // r1 = r0+r0; r2 = r1+r1; ... chain of 8.
        for i in 0..8 {
            rig.dispatch(alu(i + 1, i, i, true));
        }
        let (uops, _) = rig.run_until_empty(100);
        assert_eq!(uops, 8);
        assert!(rig.now >= 8, "chain must serialize, took {}", rig.now);
    }

    #[test]
    fn load_miss_takes_memory_latency() {
        let mut rig = Rig::new();
        let u = Uop::load(Reg::int(1), Reg::int(2));
        rig.dispatch(DispatchUop::from_uop(&u, 0x0dea_d000, 1));
        rig.run_until_empty(400);
        assert!(
            rig.now >= 150,
            "cold load must reach memory, took {}",
            rig.now
        );
        // Same line again: hits L1.
        let mut cycles_before = rig.now;
        let u2 = Uop::load(Reg::int(3), Reg::int(2));
        rig.dispatch(DispatchUop::from_uop(&u2, 0x0dea_d000, 1));
        rig.run_until_empty(400);
        cycles_before = rig.now - cycles_before;
        assert!(cycles_before < 10, "warm load took {cycles_before}");
    }

    #[test]
    fn mispredict_resolution_is_reported() {
        let mut rig = Rig::new();
        let mut b = DispatchUop::from_uop(&Uop::branch(Cond::Eq), 0, 1);
        b.mispredict = true;
        rig.dispatch(b);
        let mut resolved = None;
        for _ in 0..20 {
            let c = rig.core.cycle(rig.now, &mut rig.mem, &mut rig.acct);
            resolved = resolved.or(c.resolved);
            rig.now += 1;
        }
        assert!(resolved.is_some(), "mispredict resolution must surface");
    }

    #[test]
    fn rob_capacity_blocks_dispatch() {
        let mut rig = Rig::new();
        let d = alu(1, 0, 0, true);
        let mut n = 0;
        while rig.core.can_dispatch(&d) {
            rig.core.dispatch(&d, &mut rig.acct);
            n += 1;
            // Window fills first (iq_size=32) since nothing issues.
            assert!(n <= 128, "dispatch never blocked");
        }
        assert_eq!(n, 32, "issue window should be the first structural limit");
    }

    #[test]
    fn commit_is_in_order() {
        let mut rig = Rig::new();
        // First a long-latency divide, then fast ALUs: ALUs finish first but
        // must not commit before the divide.
        let mut div = alu(1, 0, 0, true);
        div.class = ExecClass::IntDiv;
        rig.dispatch(div);
        for i in 0..3 {
            rig.dispatch(alu(i + 2, 10, 11, true));
        }
        let mut committed_any_before_div = false;
        for _ in 0..5 {
            let (u, _) = rig.cycle();
            if u > 0 {
                committed_any_before_div = true;
            }
        }
        assert!(
            !committed_any_before_div,
            "nothing may commit before the div at head"
        );
        let (uops, _) = rig.run_until_empty(100);
        assert_eq!(uops, 4);
    }

    #[test]
    fn wide_core_has_more_throughput() {
        let run = |cfg: CoreConfig| {
            let mut rig = Rig::new();
            rig.core = OooCore::new(cfg);
            let mut dispatched = 0u32;
            let mut cycles = 0u64;
            let width = cfg.rename_width;
            while rig.core.stats().committed_uops < 2000 && cycles < 10_000 {
                rig.core.cycle(rig.now, &mut rig.mem, &mut rig.acct);
                for i in 0..width {
                    let d = alu(((dispatched + i) % 14) as u8 + 1, 0, 0, true);
                    if rig.core.can_dispatch(&d) {
                        rig.core.dispatch(&d, &mut rig.acct);
                        dispatched += 1;
                    }
                }
                rig.now += 1;
                cycles += 1;
            }
            cycles
        };
        let narrow = run(CoreConfig::narrow());
        let wide = run(CoreConfig::wide());
        assert!(
            (wide as f64) < narrow as f64 * 0.82,
            "wide {wide} should be well under narrow {narrow}"
        );
    }

    /// Feed `prog` through a core, dispatching up to rename width per cycle
    /// after the core's cycle (as the machine does). With `skip`, a cycle in
    /// which nothing happened jumps straight to the core's next event.
    /// Returns the stats, the final cycle and the issue log: the ROB
    /// sequence numbers issued, with their cycle.
    fn drive(
        cfg: CoreConfig,
        prog: &[DispatchUop],
        skip: bool,
    ) -> (CoreStats, u64, Vec<(u64, u64)>) {
        let mut core = OooCore::new(cfg);
        let mut mem = MemHierarchy::standard();
        let mut acct = EnergyAccount::new();
        let mut issued_seen = std::collections::HashSet::new();
        let mut log = Vec::new();
        let (mut now, mut next) = (0u64, 0usize);
        while (next < prog.len() || !core.is_empty()) && now < 100_000 {
            let c = core.cycle(now, &mut mem, &mut acct);
            let mut fresh: Vec<u64> = core
                .rob
                .iter()
                .filter(|e| e.state == UopState::Issued && issued_seen.insert(e.seq))
                .map(|e| e.seq)
                .collect();
            fresh.sort_unstable();
            log.extend(fresh.into_iter().map(|seq| (now, seq)));
            let mut dispatched = 0;
            while next < prog.len()
                && dispatched < cfg.rename_width
                && core.can_dispatch(&prog[next])
            {
                core.dispatch(&prog[next], &mut acct);
                next += 1;
                dispatched += 1;
            }
            now += 1;
            if skip && !c.active() && dispatched == 0 {
                let to = core.next_event(now).unwrap_or(100_000);
                assert!(to >= now, "next event {to} is in the past at {now}");
                core.skip_idle(to - now);
                now = to;
            }
        }
        (*core.stats(), now, log)
    }

    fn assert_skip_matches_ticking(cfg: CoreConfig, prog: &[DispatchUop]) {
        let ticked = drive(cfg, prog, false);
        let skipped = drive(cfg, prog, true);
        assert_eq!(
            ticked.0.committed_uops,
            prog.len() as u64,
            "program must drain"
        );
        assert_eq!(skipped, ticked);
    }

    fn div(dst: u8, a: u8) -> DispatchUop {
        let mut d = alu(dst, a, a, true);
        d.class = ExecClass::IntDiv;
        d
    }

    fn load_at(dst: u8, addr: u64) -> DispatchUop {
        DispatchUop::from_uop(&Uop::load(Reg::int(dst), Reg::int(15)), addr, 1)
    }

    #[test]
    fn skipping_a_busy_divider_matches_ticking() {
        // Back-to-back divides hold the single divider; independent ALU
        // work drains early, leaving cycles where only the divider's
        // release can wake the window.
        let mut prog = Vec::new();
        for i in 0..6u8 {
            prog.push(div(1 + i % 3, 10 + i % 3));
            prog.push(alu(5, 6, 7, true));
        }
        prog.push(alu(8, 1, 2, true));
        assert_skip_matches_ticking(CoreConfig::narrow(), &prog);
    }

    #[test]
    fn skipping_an_in_order_core_matches_ticking() {
        let cfg = CoreConfig::narrow().into_in_order();
        let prog = vec![
            load_at(1, 0x4000_0000),
            alu(2, 1, 1, true),
            alu(3, 13, 13, true),
            div(4, 3),
            div(5, 13),
            load_at(6, 0x4100_0000),
            alu(7, 6, 4, true),
        ];
        assert_skip_matches_ticking(cfg, &prog);
    }

    #[test]
    fn a_uop_reading_one_producer_twice_wakes_once_it_completes() {
        // r2 = r1 + r1 waits on both operands of the same missing load.
        let prog = vec![
            load_at(1, 0x5000_0000),
            alu(2, 1, 1, true),
            alu(3, 2, 2, true),
        ];
        assert_skip_matches_ticking(CoreConfig::narrow(), &prog);
        let (_, _, log) = drive(CoreConfig::narrow(), &prog, true);
        let load_issue = log[0].0;
        let miss = u64::from(MemHierarchy::standard().access_data(0x5000_0000).latency);
        assert_eq!(
            log[1],
            (load_issue + miss, 2),
            "consumer issues the cycle its producer completes"
        );
        assert_eq!(log[2], (load_issue + miss + 1, 3));
    }

    #[test]
    fn skipping_a_mixed_program_matches_ticking() {
        // A pseudo-random mix of every class, with long misses and reads
        // of recent producers, on both issue disciplines.
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let mut prog = Vec::new();
        for i in 0..600u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (dst, a, b) = (
                (x % 12) as u8 + 1,
                (x >> 8) as u8 % 12 + 1,
                (x >> 16) as u8 % 12 + 1,
            );
            let mut d = match (x >> 24) % 10 {
                0..=1 => load_at(dst, (x >> 32) % 64 * 0x1_0000 + i % 8 * 64),
                2 => DispatchUop::from_uop(
                    &Uop::store(Reg::int(a), Reg::int(b)),
                    (x >> 32) % 4096 * 64,
                    1,
                ),
                3 => div(dst, a),
                _ => alu(dst, a, b, true),
            };
            if (x >> 40).is_multiple_of(7) {
                d.class = [
                    ExecClass::IntMul,
                    ExecClass::FpAdd,
                    ExecClass::FpDiv,
                    ExecClass::Simd,
                ][(x >> 44) as usize % 4];
            }
            prog.push(d);
        }
        assert_skip_matches_ticking(CoreConfig::narrow(), &prog);
        assert_skip_matches_ticking(CoreConfig::wide(), &prog);
        assert_skip_matches_ticking(CoreConfig::narrow().into_in_order(), &prog);
    }
}
