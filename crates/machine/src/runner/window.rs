//! Windowed, sharded execution: the bulk of a run advances in bounded
//! time windows where every simulated CPU is an independent *lane*,
//! and cross-CPU state changes are deferred as events that the
//! coordinating thread replays in one canonical order.
//!
//! # Determinism contract
//!
//! A lane's window is a pure function of (lane state, the shared-state
//! snapshot at the window start, the window bounds): it owns its TLB,
//! L2, clock, reference stream and RNG, reads the pager and topology
//! immutably, and queues everything else — first touches, coherence
//! writes and fills, policy-driving miss events — as [`WinEv`] values
//! stamped with the lane clock. Each CPU keeps one event queue, already
//! in time order (a lane clock only moves forward); the merge replays
//! the queues in `(time, cpu, queue position)` order through a k-way
//! heap merge on the coordinating thread, so the result depends only on the
//! *window size*, never on how lanes are grouped onto host threads.
//! `--shards 1` and `--shards 8` are the same computation with
//! different thread placement; reports are byte-identical by
//! construction.
//!
//! Directory-controller contention (§7.1.2) is charged entirely at the
//! merge: lanes charge the uncontended miss latency, and the canonical
//! replay queues every miss at the shared
//! [`DirectoryModel`](crate::DirectoryModel) in merge
//! order, deferring the computed wait onto the CPU's clock before its
//! next window. Queueing statistics therefore see the same global
//! interleaving the serial loop produced; only the timing feedback is
//! one window late.
//!
//! Windows are clamped to scheduler-quantum boundaries, so a context
//! switch never lands inside a window; the quantum-boundary work
//! (scheduler re-query, fault storms, adaptive ticks, epoch sampling)
//! runs between windows on the coordinating thread, exactly once per
//! quantum. The final stretch of a run (and anything too short to
//! window) uses the exact serial per-reference loop in `sched`.

use super::accounting::miss_record;
use super::memory::{first_touch_home, TLB_REFILL};
use super::Sim;
use crate::{L2Cache, Tlb};
use ccnuma_faults::FaultInjector;
use ccnuma_obs::{Phase, Profiler, Recorder};
use ccnuma_stats::RunBreakdown;
use ccnuma_trace::{MissRecord, MissSource};
use ccnuma_types::{
    AccessKind, FxHashMap, MachineConfig, MemAccess, Mode, NodeId, Ns, Pid, ProcId, ProcSet,
    RefClass, SimError, Topology, VirtPage,
};
use ccnuma_workloads::ProcessStream;
use rand::rngs::SmallRng;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// Default window length in simulated nanoseconds, used when
/// [`RunOptions::window_us`](super::RunOptions) is `None`. Windows are
/// additionally clamped so they never cross a scheduler-quantum
/// boundary.
pub(super) const WINDOW: Ns = Ns(100_000);

/// Merge keys are `time << CPU_BITS | cpu`; every CPU index fits.
const CPU_BITS: u32 = 10;
const _: () = assert!(ProcSet::MAX_PROCS as u64 <= 1 << CPU_BITS);

/// What a [`WinEv`] asks the merge to do.
#[derive(Debug, Clone, Copy)]
pub(super) enum Tag {
    /// A first touch of an unmapped page: the merge allocates it at
    /// `home` (with the §7.2.3 reclaim-then-retry pressure response).
    FirstTouch,
    /// A TLB refill: recorded, traced, and fed to the policy engine.
    Tlb,
    /// A secondary-cache miss: recorded, traced, policy-driven, and
    /// queued at `home`'s directory controller during the merge (the
    /// lane charges the uncontended latency; the canonical replay
    /// computes the queueing delay and defers it to the CPU's next
    /// window).
    Miss,
    /// A write hit the coherence directory: invalidate other sharers.
    CohWrite,
    /// A clean fill: record the sharer in the coherence directory.
    CohFill,
}

/// One deferred cross-CPU interaction, replayed at merge time. The CPU
/// is the queue the event sits in; the replay rebuilds the miss record,
/// latency and remote flag from the CPU's node, `home` and the
/// immutable topology, exactly as the lane computed them.
#[derive(Debug, Clone, Copy)]
pub(super) struct WinEv {
    /// Lane clock when the event was emitted (the miss record's time).
    time: Ns,
    page: VirtPage,
    pid: Pid,
    line: u16,
    /// The first-touch home, or the missed page's home node.
    home: NodeId,
    tag: Tag,
    /// The access's kind, mode and class: bits 0, 1 and 2 are set for
    /// a write, kernel mode and an instruction fetch.
    bits: u8,
}

impl WinEv {
    /// The access the event was emitted for.
    fn access(&self) -> MemAccess {
        MemAccess {
            pid: self.pid,
            page: self.page,
            line: self.line,
            kind: [AccessKind::Read, AccessKind::Write][usize::from(self.bits & 1)],
            mode: [Mode::User, Mode::Kernel][usize::from(self.bits >> 1 & 1)],
            class: [RefClass::Data, RefClass::Instr][usize::from(self.bits >> 2 & 1)],
        }
    }

    /// The miss record the lane would have built on `cpu`.
    fn record(&self, cpu: usize, source: MissSource) -> MissRecord {
        let proc = ProcId(cpu as u16);
        miss_record(self.time, proc, self.pid, &self.access(), source)
    }
}

/// Shared read-only context every lane sees during one window: the
/// canonical state as of the window start.
struct LaneCtx<'a> {
    cfg: &'a MachineConfig,
    topo: &'a Topology,
    pager: &'a ccnuma_kernel::Pager,
    overlay: &'a FxHashMap<(Pid, VirtPage), NodeId>,
    rr_nodes: Option<u16>,
    /// Whether anything consumes [`Tag::Tlb`] (a recorder, trace
    /// capture, or a TLB-source metric); otherwise the replay would
    /// drop every one, so lanes do not emit them.
    tlb_events: bool,
    end: Ns,
}

/// Per-CPU state a window lane owns while it runs (moved out of `Sim`
/// for the window, moved back at the merge).
struct Lane {
    cpu: u16,
    clock: Ns,
    pid: Option<Pid>,
    tlb: Tlb,
    l2: L2Cache,
    /// The scheduled process's stream and RNG, taken from the slot.
    slot: Option<(ProcessStream, SmallRng)>,
    breakdown: RunBreakdown,
    /// First-touch homes this lane decided this window.
    touched: FxHashMap<(Pid, VirtPage), NodeId>,
    local_lat_sum: Ns,
    local_lat_n: u64,
    refs: u64,
    events: Vec<WinEv>,
}

impl Lane {
    /// Queues a `tag` event for `access`, stamped with the lane clock.
    fn emit(&mut self, tag: Tag, pid: Pid, access: &MemAccess, home: NodeId) {
        let bits = u8::from(access.kind.is_write())
            | u8::from(access.mode.is_kernel()) << 1
            | u8::from(access.class.is_instr()) << 2;
        self.events.push(WinEv {
            time: self.clock,
            page: access.page,
            pid,
            line: access.line,
            home,
            tag,
            bits,
        });
    }

    /// Advances this lane to the window end (or until its reference
    /// budget runs out — a guard against zero-cost configurations).
    fn run_window(&mut self, ctx: &LaneCtx) {
        let Some(pid) = self.pid else {
            if self.clock < ctx.end {
                self.breakdown.add_idle(ctx.end - self.clock);
                self.clock = ctx.end;
            }
            return;
        };
        let min_step = ctx.cfg.compute_ns_per_ref.0.max(1);
        let mut budget = ctx.end.0.saturating_sub(self.clock.0) / min_step + 1;
        let my_node = ctx.cfg.node_of_proc(ProcId(self.cpu));
        while self.clock < ctx.end && budget > 0 {
            budget -= 1;
            let (stream, rng) = self.slot.as_mut().expect("scheduled lane has a stream");
            let access = stream.next_ref(rng);
            self.refs += 1;
            self.step(ctx, pid, my_node, access);
        }
    }

    /// The lane-side memory step: identical timing to the serial
    /// `Sim::step`, but every cross-CPU effect becomes an event.
    fn step(&mut self, ctx: &LaneCtx, pid: Pid, my_node: NodeId, access: MemAccess) {
        let (page, line) = (access.page, access.line);

        self.breakdown
            .add_busy(access.mode, ctx.cfg.compute_ns_per_ref);
        self.clock += ctx.cfg.compute_ns_per_ref;

        if !self.tlb.access(page) {
            let key = (pid, page);
            if ctx.pager.mapping_node(pid, page).is_none()
                && !ctx.overlay.contains_key(&key)
                && !self.touched.contains_key(&key)
            {
                let home = first_touch_home(ctx.rr_nodes, page, my_node);
                self.touched.insert(key, home);
                self.emit(Tag::FirstTouch, pid, &access, home);
            }
            self.breakdown.add_busy(Mode::Kernel, TLB_REFILL);
            self.clock += TLB_REFILL;
            if ctx.tlb_events {
                self.emit(Tag::Tlb, pid, &access, my_node);
            }
        }

        let hit = self.l2.access(page, line);
        if access.kind == AccessKind::Write {
            self.emit(Tag::CohWrite, pid, &access, my_node);
        } else if !hit {
            self.emit(Tag::CohFill, pid, &access, my_node);
        }

        if hit {
            self.breakdown
                .add_hit_stall(access.mode, access.class, ctx.cfg.l2_hit);
            self.clock += ctx.cfg.l2_hit;
            return;
        }

        let home = ctx
            .pager
            .mapping_node(pid, page)
            .or_else(|| ctx.overlay.get(&(pid, page)).copied())
            .or_else(|| self.touched.get(&(pid, page)).copied())
            .expect("page mapped by a prior touch");
        let tier = ctx.topo.tier(my_node, home);
        let latency = ctx.topo.latency(my_node, home, access.kind);
        self.breakdown
            .add_stall_tier(access.mode, access.class, tier, latency);
        self.clock += latency;
        if !tier.is_off_node() {
            self.local_lat_sum += latency;
            self.local_lat_n += 1;
        }
        self.emit(Tag::Miss, pid, &access, home);
    }
}

impl<R: Recorder, F: FaultInjector, P: Profiler> Sim<'_, R, F, P> {
    /// The configured window length (the `--window-us` knob, or the
    /// built-in default).
    pub(super) fn window(&self) -> Ns {
        self.opts.window_us.map_or(WINDOW, Ns::from_us)
    }

    /// References the windowed phase must leave for the serial tail:
    /// one window can consume at most this many, so running windows
    /// only while `refs_left` exceeds it can never overdraw.
    pub(super) fn window_tail_bound(&self) -> u64 {
        let min_step = self.spec.config.compute_ns_per_ref.0.max(1);
        self.clocks.len() as u64 * (self.window().0 / min_step + 2)
    }

    /// Runs one window: quantum/epoch work, parallel lanes, canonical
    /// merge. Returns the number of references consumed.
    pub(super) fn run_window(&mut self, shards: usize, quantum: Ns) -> Result<u64, SimError> {
        let procs = self.clocks.len();
        let cur = self.clocks.iter().copied().min().expect("at least one cpu");

        self.sample_epoch(cur);
        // Quantum-boundary work runs once per quantum, between windows,
        // for every CPU at once (windows never straddle a boundary, so
        // all CPUs share one current quantum here).
        let q = cur.0 / quantum.0;
        if q != self.cur_quantum[0] {
            self.quantum_boundary(cur, q, 0..procs);
        }
        let end = Ns((cur.0 + self.window().0).min((q + 1) * quantum.0));

        // Move per-CPU state out of `Sim` into lanes.
        let tlbs = std::mem::take(&mut self.tlb);
        let l2s = std::mem::take(&mut self.l2);
        let mut lanes: Vec<Lane> = tlbs
            .into_iter()
            .zip(l2s)
            .enumerate()
            .map(|(cpu, (tlb, l2))| {
                let pid = self.cur_pid[cpu];
                let slot = pid.map(|p| {
                    self.proc_streams[p.index()]
                        .take()
                        .expect("scheduler assigned one pid to two cpus")
                });
                Lane {
                    cpu: cpu as u16,
                    clock: self.clocks[cpu],
                    pid,
                    tlb,
                    l2,
                    slot,
                    breakdown: RunBreakdown::new(),
                    touched: FxHashMap::default(),
                    local_lat_sum: Ns::ZERO,
                    local_lat_n: 0,
                    refs: 0,
                    events: std::mem::take(&mut self.queues[cpu]),
                }
            })
            .collect();

        let ctx = LaneCtx {
            cfg: &self.spec.config,
            topo: &self.topo,
            pager: &self.pager,
            overlay: &self.overlay,
            rr_nodes: self.rr_nodes,
            tlb_events: R::ENABLED
                || self.trace.is_some()
                || self
                    .metric
                    .as_ref()
                    .is_some_and(|m| m.source() == MissSource::Tlb),
            end,
        };
        let span = self.prof.enter(Phase::Lanes);
        if shards <= 1 {
            for lane in &mut lanes {
                lane.run_window(&ctx);
            }
        } else {
            // The calling thread runs the first chunk itself rather
            // than idle while the spawned threads run the others.
            let per = lanes.len().div_ceil(shards);
            let run = |chunk: &mut [Lane]| chunk.iter_mut().for_each(|l| l.run_window(&ctx));
            std::thread::scope(|s| {
                let mut chunks = lanes.chunks_mut(per);
                let first = chunks.next();
                for chunk in chunks {
                    s.spawn(move || run(chunk));
                }
                if let Some(chunk) = first {
                    run(chunk);
                }
            });
        }
        self.prof.exit(Phase::Lanes, span);

        // Fold lane state back in CPU order (deterministic float sums),
        // then replay the queued events in canonical order.
        let span = self.prof.enter(Phase::Merge);
        let mut consumed = 0u64;
        let mut tlbs = Vec::with_capacity(procs);
        let mut l2s = Vec::with_capacity(procs);
        for mut lane in lanes {
            let cpu = lane.cpu as usize;
            consumed += lane.refs;
            // Every event the lane queued is stamped at or before its
            // clock, so this bounds the merge keys of the whole window.
            assert!(
                lane.clock.0 < 1 << (64 - CPU_BITS),
                "cpu {cpu}: simulated time {} ns overflows the window merge key",
                lane.clock.0
            );
            self.clocks[cpu] = lane.clock;
            self.breakdown.merge(&lane.breakdown);
            self.local_lat_sum += lane.local_lat_sum;
            self.local_lat_n += lane.local_lat_n;
            if let (Some(pid), Some(slot)) = (lane.pid, lane.slot.take()) {
                self.proc_streams[pid.index()] = Some(slot);
            }
            for (k, v) in lane.touched.drain() {
                self.overlay.entry(k).or_insert(v);
            }
            debug_assert!(
                lane.events.windows(2).all(|w| w[0].time <= w[1].time),
                "cpu {cpu}: queue out of time order"
            );
            self.queues[cpu] = lane.events;
            tlbs.push(lane.tlb);
            l2s.push(lane.l2);
        }
        self.tlb = tlbs;
        self.l2 = l2s;
        // Events stamped at or past the window end stay queued for a
        // later merge. Queues stay time-sorted across windows:
        // lane clocks only move forward, the replay only adds waits to
        // them, and every lane clock is >= `end` now, so the next
        // window's events sort after everything carried.
        let outcome = self.merge(Some(end));
        self.prof.exit(Phase::Merge, span);
        outcome?;
        Ok(consumed)
    }

    /// Replays every still-queued event (the windowed phase is over;
    /// the serial tail starts from fully merged state).
    pub(super) fn flush_carried(&mut self) -> Result<(), SimError> {
        let span = self.prof.enter(Phase::Merge);
        let outcome = self.merge(None);
        self.prof.exit(Phase::Merge, span);
        outcome
    }

    /// Replays the queued events stamped before `end` (all of them
    /// when `None`) in canonical order.
    fn merge(&mut self, end: Option<Ns>) -> Result<(), SimError> {
        let mut queues = std::mem::take(&mut self.queues);
        let outcome = kway_merge(&mut queues, end, |cpu, ev| self.replay(cpu, ev));
        self.queues = queues;
        outcome
    }

    /// Applies one event of `cpu`'s lane to the canonical state.
    /// Mirrors the corresponding arms of the serial `Sim::step`.
    fn replay(&mut self, cpu: usize, ev: &WinEv) -> Result<(), SimError> {
        let (page, line) = (ev.page, ev.line);
        match ev.tag {
            // Another event (same page, earlier in canonical order) may
            // have mapped it already; first writer wins.
            Tag::FirstTouch => self.first_touch(ev.pid, page, ev.home),
            Tag::Tlb => {
                let rec = ev.record(cpu, MissSource::Tlb);
                self.obs.on_tlb_fill(&rec, TLB_REFILL);
                self.observe(&rec)
            }
            Tag::CohWrite => {
                let span = self.prof.enter(Phase::Coherence);
                self.coherence
                    .write(ProcId(cpu as u16), page, line, &mut self.victims);
                for victim in self.victims.iter() {
                    self.l2[victim.index()].invalidate(page, line);
                }
                self.prof.exit(Phase::Coherence, span);
                Ok(())
            }
            Tag::CohFill => {
                self.coherence.record_fill(ProcId(cpu as u16), page, line);
                Ok(())
            }
            Tag::Miss => {
                // Queue the request at the canonical directory in merge
                // order — the single place every CPU's misses contend,
                // exactly as in the serial loop. The lane already
                // charged the uncontended latency; the queueing delay
                // lands on the CPU's clock here, before its next
                // window (a one-window deferral, the price of relaxed
                // synchronization).
                let rec = ev.record(cpu, MissSource::Cache);
                let node = self.node_of(cpu);
                let tier = self.topo.tier(node, ev.home);
                let remote = tier.is_off_node();
                let wait = self.directory.request(ev.time, ev.home, remote);
                if wait > Ns::ZERO {
                    self.breakdown
                        .add_contention_stall(rec.mode, rec.class, tier, wait);
                    self.clocks[cpu] += wait;
                    if !remote {
                        self.local_lat_sum += wait;
                    }
                }
                let latency = self.topo.latency(node, ev.home, rec.kind);
                self.obs.on_miss(&rec, latency + wait, remote);
                self.observe(&rec)
            }
        }
    }
}

/// Hands `replay` every queued event stamped before `end` (every event
/// when `None`), with its CPU, in `(time, cpu, queue position)` order,
/// then drains each queue's replayed prefix: what is left is the next
/// merge's carry. Each queue must be time-sorted, so the heap holds
/// just one key per CPU — its queue head's `time << CPU_BITS | cpu` —
/// and orders it: O(log P) per event instead of a global sort.
fn kway_merge(
    queues: &mut [Vec<WinEv>],
    end: Option<Ns>,
    mut replay: impl FnMut(usize, &WinEv) -> Result<(), SimError>,
) -> Result<(), SimError> {
    let due = |e: &&WinEv| end.is_none_or(|end| e.time < end);
    let key = |e: &WinEv, cpu: usize| Reverse(e.time.0 << CPU_BITS | cpu as u64);
    let mut next = vec![0usize; queues.len()];
    let mut heap: BinaryHeap<Reverse<u64>> = queues
        .iter()
        .enumerate()
        .filter_map(|(cpu, q)| q.first().filter(due).map(|e| key(e, cpu)))
        .collect();
    let mut outcome = Ok(());
    while let Some(mut head) = heap.peek_mut() {
        let cpu = (head.0 & ((1 << CPU_BITS) - 1)) as usize;
        let i = next[cpu];
        next[cpu] += 1;
        match queues[cpu].get(i + 1).filter(due) {
            Some(e) => *head = key(e, cpu),
            None => drop(PeekMut::pop(head)),
        }
        outcome = replay(cpu, &queues[cpu][i]);
        if outcome.is_err() {
            break;
        }
    }
    for (queue, n) in queues.iter_mut().zip(next) {
        queue.drain(..n);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// A `CohFill` event whose page carries its queue position.
    fn event(time: u64, pos: u64) -> WinEv {
        WinEv {
            time: Ns(time),
            page: VirtPage(pos),
            pid: Pid(0),
            line: 0,
            home: NodeId(0),
            tag: Tag::CohFill,
            bits: 0,
        }
    }

    fn replay_order(queues: &mut [Vec<WinEv>], end: Option<Ns>) -> Vec<(Ns, usize, u64)> {
        let mut order = Vec::new();
        kway_merge(queues, end, |cpu, e| {
            order.push((e.time, cpu, e.page.0));
            Ok(())
        })
        .expect("the test replay never fails");
        order
    }

    /// Over several windows, each appending time-sorted lane events
    /// behind the carry, the k-way replay order equals the global
    /// `(time, cpu, queue position)` sort of everything queued, cut at
    /// `end`; the bound-less flush replays the rest in that order too.
    #[test]
    fn kway_merge_matches_global_sort() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut carried = 0;
        for _ in 0..200 {
            let cpus = rng.gen_range(1..10usize);
            let mut queues: Vec<Vec<WinEv>> = (0..cpus).map(|_| Vec::new()).collect();
            let (mut clocks, mut pushed, mut pool, mut end) =
                (vec![0; cpus], vec![0; cpus], vec![], 0);
            for _ in 0..4 {
                for cpu in 0..cpus {
                    // Lane clocks resume at the last window end; small
                    // steps make equal timestamps, across CPUs and
                    // within one, common.
                    clocks[cpu] = u64::max(clocks[cpu], end);
                    for _ in 0..rng.gen_range(0..30u32) {
                        clocks[cpu] += rng.gen_range(0..3u64);
                        queues[cpu].push(event(clocks[cpu], pushed[cpu]));
                        pool.push((Ns(clocks[cpu]), cpu, pushed[cpu]));
                        pushed[cpu] += 1;
                    }
                }
                end += rng.gen_range(0..40u64);
                pool.sort_unstable();
                let cut = pool.partition_point(|k| k.0 < Ns(end));
                assert_eq!(replay_order(&mut queues, Some(Ns(end))), pool[..cut]);
                pool.drain(..cut);
                carried += usize::from(!pool.is_empty());
            }
            assert_eq!(replay_order(&mut queues, None), pool);
            assert!(queues.iter().all(Vec::is_empty));
        }
        assert!(carried > 100, "too few windows carried events: {carried}");
    }

    /// The merge key keeps the CPU out of the time bits at the largest
    /// machine and the latest admissible time.
    #[test]
    fn merge_keys_order_the_largest_machine() {
        let last = usize::from(ProcSet::MAX_PROCS) - 1;
        let late = (1 << (64 - CPU_BITS)) - 1;
        let mut queues = vec![Vec::new(); last + 1];
        queues[last].push(event(late - 1, 0));
        queues[0].push(event(late, 0));
        queues[last].push(event(late, 1));
        assert_eq!(
            replay_order(&mut queues, None),
            [
                (Ns(late - 1), last, 0),
                (Ns(late), 0, 0),
                (Ns(late), last, 1)
            ]
        );
    }

    #[test]
    fn window_events_fit_in_32_bytes() {
        assert!(std::mem::size_of::<WinEv>() <= 32);
    }

    /// Every kind/mode/class combination survives the event's bit byte.
    #[test]
    fn events_rebuild_their_access() {
        for bits in 0..8u8 {
            let access = MemAccess {
                pid: Pid(3),
                page: VirtPage(1 << 40),
                line: 31,
                kind: [AccessKind::Read, AccessKind::Write][usize::from(bits & 1)],
                mode: [Mode::User, Mode::Kernel][usize::from(bits >> 1 & 1)],
                class: [RefClass::Data, RefClass::Instr][usize::from(bits >> 2)],
            };
            let mut lane = Lane {
                cpu: 5,
                clock: Ns(77),
                pid: None,
                tlb: Tlb::new(&MachineConfig::cc_numa()),
                l2: L2Cache::new(&MachineConfig::cc_numa()),
                slot: None,
                breakdown: RunBreakdown::new(),
                touched: FxHashMap::default(),
                local_lat_sum: Ns::ZERO,
                local_lat_n: 0,
                refs: 0,
                events: Vec::new(),
            };
            lane.emit(Tag::Miss, Pid(3), &access, NodeId(2));
            let ev = lane.events[0];
            assert_eq!(ev.access(), access);
            assert_eq!(
                ev.record(5, MissSource::Cache),
                miss_record(Ns(77), ProcId(5), Pid(3), &access, MissSource::Cache)
            );
        }
    }
}
