//! The main simulation loop: CPU clock ordering, quantum boundaries,
//! context switches, idle accounting, and the adaptive-trigger interval
//! hook.

use super::Sim;
use crate::RunReport;
use ccnuma_core::IntervalFeedback;
use ccnuma_faults::FaultInjector;
use ccnuma_obs::{Phase, Profiler, Recorder};
use ccnuma_types::{Ns, SimError};
use std::ops::Range;

impl<R: Recorder, F: FaultInjector, P: Profiler> Sim<'_, R, F, P> {
    /// Runs the workload to completion and reports. Fails with a typed
    /// [`SimError`] instead of panicking when the machine cannot
    /// continue (exhaustion) or a kernel invariant breaks.
    pub(super) fn run(mut self) -> Result<RunReport, SimError> {
        let run_span = self.prof.enter(Phase::Run);
        let mut refs_left = self.spec.total_refs;
        let quantum = self.spec.scheduler.quantum();
        let shards = self.opts.shards.effective(self.clocks.len());

        // Windowed bulk phase: lanes advance one bounded time window at
        // a time (in parallel when sharded), merging cross-CPU events
        // in canonical order between windows. The bound guarantees one
        // window can never consume the references reserved for the
        // exact serial tail below.
        let tail_bound = self.window_tail_bound();
        while refs_left > tail_bound {
            refs_left -= self.run_window(shards, quantum)?;
        }
        self.flush_carried()?;

        // Exact serial tail: the original per-reference loop.
        while refs_left > 0 {
            // The CPU with the smallest clock steps next (deterministic
            // tie-break by index).
            let cpu = (0..self.clocks.len())
                .min_by_key(|&i| (self.clocks[i], i))
                .expect("at least one cpu");
            let now = self.clocks[cpu];

            self.sample_epoch(now);
            let q = now.0 / quantum.0;
            if q != self.cur_quantum[cpu] {
                self.quantum_boundary(now, q, cpu..cpu + 1);
            }
            let Some(pid) = self.cur_pid[cpu] else {
                // Idle until the next quantum boundary.
                let next = Ns((q + 1) * quantum.0);
                self.breakdown.add_idle(next - now);
                self.clocks[cpu] = next;
                continue;
            };

            let access = {
                let (stream, rng) = self.proc_streams[pid.index()]
                    .as_mut()
                    .expect("scheduled pid has a stream");
                stream.next_ref(rng)
            };
            refs_left -= 1;
            // The per-reference hot path: stride-sampled (see
            // `Phase::stride`) so the NullProfiler-free overhead budget
            // holds even here.
            let span = self.prof.enter(Phase::Memory);
            let stepped = self.step(cpu, pid, access);
            self.prof.exit(Phase::Memory, span);
            stepped?;
        }
        // `finish` consumes `self`, so the run span closes here; the
        // cheap report assembly after this point is uncounted.
        self.prof.exit(Phase::Run, run_span);
        Ok(self.finish())
    }

    /// Epoch sampling: when the minimum clock crosses a boundary, every
    /// CPU has reached it. The `R::ENABLED` guard keeps the (non-free)
    /// sample view off the uninstrumented path entirely.
    pub(super) fn sample_epoch(&mut self, now: Ns) {
        if R::ENABLED && self.obs.epoch_due(now) {
            let span = self.prof.enter(Phase::Epoch);
            let view = self.sample_view(now);
            self.obs.on_epoch(now, &view);
            self.prof.exit(Phase::Epoch, span);
        }
    }

    /// Quantum-boundary work for `cpus` entering quantum `q` at `now`:
    /// fault storms, the adaptive tick, and the scheduler re-query with
    /// its context switches (no ASIDs, so a switch flushes the TLB).
    pub(super) fn quantum_boundary(&mut self, now: Ns, q: u64, cpus: Range<usize>) {
        let span = self.prof.enter(Phase::Sched);
        if F::ENABLED {
            self.drive_storms(now);
        }
        self.adaptive_tick(now);
        let map = self.spec.scheduler.assignment(now);
        for cpu in cpus {
            self.cur_quantum[cpu] = q;
            let pid = map.get(cpu).copied().flatten();
            if pid != self.cur_pid[cpu] {
                self.tlb[cpu].flush();
                self.cur_pid[cpu] = pid;
                if let Some(p) = pid {
                    self.pager.set_pid_node(p, self.node_of(cpu));
                }
                self.obs
                    .on_context_switch(cpu, now, pid.map(|p| p.0 as u64));
            }
        }
        self.prof.exit(Phase::Sched, span);
    }

    /// At reset-interval boundaries, feed the adaptive controller the
    /// interval's overhead/stall deltas and install its new parameters.
    pub(super) fn adaptive_tick(&mut self, now: Ns) {
        let (Some(controller), Some(engine)) = (&mut self.adaptive, &mut self.engine) else {
            return;
        };
        let epoch = engine.params().epoch_of(now);
        if epoch <= self.adaptive_epoch {
            return;
        }
        self.adaptive_epoch = epoch;
        let cur = (
            self.breakdown.policy_overhead(),
            self.breakdown.remote_stall(),
            self.breakdown.local_stall(),
        );
        let fb = IntervalFeedback {
            move_overhead: cur.0 - self.adaptive_snap.0,
            remote_stall: cur.1 - self.adaptive_snap.1,
            local_stall: cur.2 - self.adaptive_snap.2,
        };
        self.adaptive_snap = cur;
        engine.set_params(controller.end_interval(fb));
    }
}
