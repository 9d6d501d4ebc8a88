//! Per-layer probes for the traced run.
//!
//! Each probe feeds a workload's real inputs through one layer's public
//! functions, staged in chunks so that every span covers a run of calls
//! into a single layer: the clock is read twice per chunk, not twice per
//! call, and a layer's self time is its spans' time. The machine probe
//! pushes the seeded workload's generated references through `Tlb` →
//! `L2Cache` → `CoherenceDir` → `DirectoryModel`; the policy probe
//! feeds a captured miss trace through `PolicyEngine::observe` and the
//! resulting page operations through `Pager::service_batch`; the store
//! probe encodes, decodes and replays the sweep's trace.
//!
//! Staging reorders work within a chunk (all TLB lookups, then all L2
//! accesses, ...), so the probes' hit and miss counts approximate the
//! full machine's rather than repeat them; the probes exist to price
//! each layer's calls on realistic inputs.

use crate::spans::Tracer;
use ccnuma_core::{MissMetric, ObservedMiss, PolicyAction, PolicyEngine};
use ccnuma_kernel::{OpOutcome, PageOp, Pager, PagerConfig};
use ccnuma_machine::{CoherenceDir, DirectoryModel, L2Cache, Tlb};
use ccnuma_polsim::Replay;
use ccnuma_trace::{MissRecord, Trace};
use ccnuma_tracestore::{SweepSpec, TraceReader};
use ccnuma_types::{
    AccessKind, FxHashMap, MachineConfig, MemAccess, NodeId, Ns, Pid, ProcId, ProcSet, VirtPage,
};
use ccnuma_workloads::WorkloadSpec;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Calls per span.
const CHUNK: usize = 4096;

/// Pages a pager batch collects before servicing (the runner's default).
const BATCH_PAGES: usize = 4;

/// Work the machine probe did, counted at the layer boundaries.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MachineCounts {
    pub refs: u64,
    pub tlb_misses: u64,
    pub cache_misses: u64,
    pub writes: u64,
    /// `CoherenceDir::write` plus `record_fill` calls.
    pub coherence_ops: u64,
    pub invalidations: u64,
    pub dir_requests: u64,
}

impl MachineCounts {
    pub fn add(&mut self, o: &MachineCounts) {
        self.refs += o.refs;
        self.tlb_misses += o.tlb_misses;
        self.cache_misses += o.cache_misses;
        self.writes += o.writes;
        self.coherence_ops += o.coherence_ops;
        self.invalidations += o.invalidations;
        self.dir_requests += o.dir_requests;
    }
}

/// Drives `w`'s references through the machine layers. The workload's
/// own scheduler places processes on CPUs at quantum boundaries of each
/// CPU's clock (a switch flushes that CPU's TLB, as in the runner), and
/// references are drawn round-robin over the running CPUs, each process
/// from its own seeded RNG.
pub fn probe_machine(w: WorkloadSpec, tr: &mut Tracer) -> MachineCounts {
    let cfg = w.config.clone();
    let procs = cfg.procs() as usize;
    let topo = cfg.effective_topology();
    let mut tlb: Vec<Tlb> = (0..procs).map(|_| Tlb::new(&cfg)).collect();
    let mut l2: Vec<L2Cache> = (0..procs).map(|_| L2Cache::new(&cfg)).collect();
    let mut coherence = CoherenceDir::with_procs(cfg.procs());
    let mut victims = ProcSet::with_capacity_for(cfg.procs());
    let mut directory = DirectoryModel::new(&cfg);
    let mut streams: Vec<_> = w
        .streams
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            let rng = SmallRng::seed_from_u64(w.seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9));
            (s, rng)
        })
        .collect();
    let mut scheduler = w.scheduler;
    let quantum = scheduler.quantum();
    let mut cur_quantum = vec![u64::MAX; procs];
    let mut cur_pid: Vec<Option<Pid>> = vec![None; procs];
    let mut running: Vec<usize> = Vec::with_capacity(procs);
    let mut home: FxHashMap<VirtPage, NodeId> = FxHashMap::default();
    let mut clocks = vec![Ns::ZERO; procs];
    let mut chunk: Vec<(usize, MemAccess)> = Vec::with_capacity(CHUNK);
    let mut hits: Vec<bool> = Vec::with_capacity(CHUNK);
    let mut requests: Vec<(usize, NodeId, NodeId, AccessKind)> = Vec::with_capacity(CHUNK);
    let mut counts = MachineCounts::default();
    let mut left = w.total_refs;

    let run = tr.enter("machine.probe");
    while left > 0 {
        // Scheduling is the probe's own work (the runner's scheduler).
        let s = tr.enter("bench.bookkeeping");
        running.clear();
        for cpu in 0..procs {
            let q = clocks[cpu].0 / quantum.0;
            if q != cur_quantum[cpu] {
                cur_quantum[cpu] = q;
                let pid = scheduler
                    .assignment(clocks[cpu])
                    .get(cpu)
                    .copied()
                    .flatten();
                if pid != cur_pid[cpu] {
                    tlb[cpu].flush();
                    cur_pid[cpu] = pid;
                }
            }
            if cur_pid[cpu].is_some() {
                running.push(cpu);
            } else {
                clocks[cpu] = Ns((q + 1) * quantum.0);
            }
        }
        tr.exit(s);
        if running.is_empty() {
            continue;
        }
        let n = (CHUNK as u64).min(left) as usize;
        left -= n as u64;

        let s = tr.enter("workloads.gen");
        chunk.clear();
        for k in 0..n {
            let cpu = running[k % running.len()];
            let pid = cur_pid[cpu].expect("running CPUs have a process");
            let (stream, rng) = &mut streams[pid.index()];
            chunk.push((cpu, stream.next_ref(rng)));
        }
        tr.exit(s);

        let s = tr.enter("machine.tlb");
        for (cpu, a) in &chunk {
            if !tlb[*cpu].access(a.page) {
                counts.tlb_misses += 1;
            }
        }
        tr.exit(s);

        let s = tr.enter("machine.cache");
        hits.clear();
        for (cpu, a) in &chunk {
            hits.push(l2[*cpu].access(a.page, a.line));
        }
        tr.exit(s);

        let s = tr.enter("machine.coherence");
        for ((cpu, a), &hit) in chunk.iter().zip(&hits) {
            let proc = ProcId(*cpu as u16);
            if a.kind == AccessKind::Write {
                coherence.write(proc, a.page, a.line, &mut victims);
                for v in victims.iter() {
                    l2[v.index()].invalidate(a.page, a.line);
                    counts.invalidations += 1;
                }
                counts.writes += 1;
                counts.coherence_ops += 1;
            } else if !hit {
                coherence.record_fill(proc, a.page, a.line);
                counts.coherence_ops += 1;
            }
        }
        tr.exit(s);

        // The probe's own bookkeeping: per-CPU clocks and first-touch
        // homes, which the runner keeps in the pager and scheduler.
        let s = tr.enter("bench.bookkeeping");
        requests.clear();
        for ((cpu, a), &hit) in chunk.iter().zip(&hits) {
            clocks[*cpu] += cfg.compute_ns_per_ref;
            if hit {
                clocks[*cpu] += cfg.l2_hit;
            } else {
                let node = cfg.node_of_proc(ProcId(*cpu as u16));
                let at = *home.entry(a.page).or_insert(node);
                requests.push((*cpu, node, at, a.kind));
            }
        }
        counts.cache_misses += requests.len() as u64;
        tr.exit(s);

        let s = tr.enter("machine.contention");
        for &(cpu, node, at, kind) in &requests {
            let remote = topo.tier(node, at).is_off_node();
            let wait = directory.request(clocks[cpu], at, remote);
            clocks[cpu] += topo.latency(node, at, kind) + wait;
        }
        tr.exit(s);

        counts.refs += n as u64;
        counts.dir_requests += requests.len() as u64;
    }
    tr.exit(run);
    counts
}

/// Work the policy probe did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PolicyCounts {
    pub records: u64,
    pub observes: u64,
    pub hot_pages: u64,
    pub page_moves: u64,
    pub ops: u64,
    pub ops_failed: u64,
    pub lock_wait_ns: u64,
}

impl PolicyCounts {
    pub fn add(&mut self, o: &PolicyCounts) {
        self.records += o.records;
        self.observes += o.observes;
        self.hot_pages += o.hot_pages;
        self.page_moves += o.page_moves;
        self.ops += o.ops;
        self.ops_failed += o.ops_failed;
        self.lock_wait_ns += o.lock_wait_ns;
    }
}

/// The dynamic policy a probe replays: parameters, kind and metric.
pub type PolicySetup = (
    ccnuma_core::PolicyParams,
    ccnuma_core::DynamicPolicyKind,
    MissMetric,
);

/// Feeds `trace` through the policy engine and its page operations
/// through the pager of a fresh machine `cfg`.
pub fn probe_policy(
    cfg: &MachineConfig,
    policy: &PolicySetup,
    trace: &Trace,
    tr: &mut Tracer,
) -> PolicyCounts {
    let (params, kind, metric) = policy;
    let mut metric = metric.clone();
    let mut engine = PolicyEngine::with_procs(*params, *kind, cfg.procs() as usize);
    let mut pager = Pager::new(PagerConfig::for_machine(cfg.clone()));
    let mut counts = PolicyCounts::default();
    let mut located = Vec::with_capacity(CHUNK);
    let mut actions: Vec<(MissRecord, PolicyAction)> = Vec::new();
    let mut pending: Vec<(PageOp, PolicyAction)> = Vec::new();

    let run = tr.enter("policy.probe");
    for chunk in trace.as_slice().chunks(CHUNK) {
        let s = tr.enter("kernel.pager.map");
        located.clear();
        for rec in chunk {
            let node = cfg.node_of_proc(rec.proc);
            if pager.first_touch(rec.pid, rec.page, node).is_none() {
                counts.ops_failed += 1;
                located.push(None);
                continue;
            }
            let loc = pager.location_for(rec.pid, rec.page, node);
            located.push(Some((node, loc, pager.pressure(node))));
        }
        tr.exit(s);

        let s = tr.enter("core.engine");
        actions.clear();
        for (rec, at) in chunk.iter().zip(&located) {
            let Some((node, loc, pressure)) = at else {
                continue;
            };
            if !metric.admits(rec) {
                continue;
            }
            counts.observes += 1;
            let miss = ObservedMiss {
                now: rec.time,
                proc: rec.proc,
                node: *node,
                page: rec.page,
                is_write: rec.kind.is_write(),
            };
            let action = engine.observe(miss, loc, *pressure);
            if !matches!(action, PolicyAction::Nothing(_)) {
                actions.push((*rec, action));
            }
        }
        tr.exit(s);

        let s = tr.enter("kernel.pager");
        for &(rec, action) in &actions {
            match action {
                PolicyAction::Nothing(_) => {}
                PolicyAction::Collapse => {
                    service(
                        &mut pager,
                        &mut engine,
                        rec.time,
                        &[(PageOp::collapse(rec.page), action)],
                        &mut counts,
                    );
                }
                PolicyAction::Remap { to } => {
                    service(
                        &mut pager,
                        &mut engine,
                        rec.time,
                        &[(PageOp::remap(rec.page, rec.pid, to), action)],
                        &mut counts,
                    );
                }
                PolicyAction::Migrate { to } => {
                    pending.push((PageOp::migrate(rec.page, to), action))
                }
                PolicyAction::Replicate { at } => {
                    pending.push((PageOp::replicate(rec.page, at), action))
                }
            }
            if pending.len() >= BATCH_PAGES {
                service(&mut pager, &mut engine, rec.time, &pending, &mut counts);
                pending.clear();
            }
        }
        tr.exit(s);
        counts.records += chunk.len() as u64;
    }
    if let Some(last) = trace.as_slice().last() {
        let s = tr.enter("kernel.pager");
        service(&mut pager, &mut engine, last.time, &pending, &mut counts);
        tr.exit(s);
    }
    tr.exit(run);
    let stats = engine.stats();
    counts.hot_pages = stats.hot_pages();
    counts.page_moves = stats.migrations + stats.replications;
    counts.lock_wait_ns = pager.locks().total_wait().0;
    counts
}

fn service(
    pager: &mut Pager,
    engine: &mut PolicyEngine,
    now: Ns,
    batch: &[(PageOp, PolicyAction)],
    counts: &mut PolicyCounts,
) {
    if batch.is_empty() {
        return;
    }
    let ops: Vec<PageOp> = batch.iter().map(|(op, _)| *op).collect();
    let outcomes = pager.service_batch(now, &ops);
    for ((_, action), outcome) in batch.iter().zip(outcomes) {
        counts.ops += 1;
        match outcome {
            OpOutcome::Done { .. } | OpOutcome::Skipped => {}
            OpOutcome::NoPage => {
                engine.note_no_page(action);
                counts.ops_failed += 1;
            }
            OpOutcome::Failed { .. } => counts.ops_failed += 1,
        }
    }
}

/// Work the store and replay probe did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreCounts {
    pub records: u64,
    pub bytes: u64,
    pub replayed: u64,
}

/// Encodes `trace` to v2, decodes it back, and replays every cell of
/// `grid` over the decoded records (decode excluded from the replay
/// spans). Returns `None` if the round trip does not reproduce the trace.
pub fn probe_store(
    trace: &Trace,
    nodes: u16,
    other_time: Ns,
    grid: &SweepSpec,
    tr: &mut Tracer,
) -> Option<StoreCounts> {
    let s = tr.enter("tracestore.encode");
    let bytes = crate::suite::encode_v2(trace).ok()?;
    tr.exit(s);

    let s = tr.enter("tracestore.decode");
    let decoded: Result<Vec<MissRecord>, _> = TraceReader::new(bytes.as_slice()).ok()?.collect();
    tr.exit(s);
    let decoded = decoded.ok()?;
    if decoded.as_slice() != trace.as_slice() {
        return None;
    }

    let mut replayed = 0u64;
    for cell in grid.cells() {
        let cfg = crate::suite::polsim_config(&cell, nodes, other_time);
        let mut replay = Replay::new(&cfg, crate::suite::sim_policy(&cell), grid.filter);
        if replay.needs_priming() {
            for rec in &decoded {
                replay.prime(rec);
            }
            replay.seal();
        }
        let s = tr.enter("polsim.replay");
        for rec in &decoded {
            replay.observe(rec);
        }
        tr.exit(s);
        replayed += decoded.len() as u64;
        black_box(replay.finish());
    }
    Some(StoreCounts {
        records: decoded.len() as u64,
        bytes: bytes.len() as u64,
        replayed,
    })
}
