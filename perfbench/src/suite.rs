//! The three benchmark workloads: set-up, one timed iteration, and the
//! output checks each iteration must pass.
//!
//! * `machine-migrep` — full-system machine runs under the base Mig/Rep
//!   policy on Engineering and Raytrace (Fig 3, Tables 4–6).
//! * `policy-sweep` — one captured Raytrace first-touch miss trace,
//!   encoded once, replayed under the default sweep grid (Figs 6–9).
//! * `paper-quick` — every table and figure at quick scale through the
//!   executor, checked against the committed golden output.
//!
//! No check compares a simulated value with a number written here: the
//! references are the program's own outputs (a second iteration, a
//! second engine configuration, a direct replay, the committed golden),
//! so a reviewed golden regeneration does not break the benchmark.

use ccnuma_bench::experiments;
use ccnuma_bench::{dynamic_options, traced_ft_spec, Executor, ExecutorStats, RunPlan, TracedRun};
use ccnuma_core::{DynamicPolicyKind, MissMetric, PolicyParams};
use ccnuma_machine::{RunReport, RunSpec};
use ccnuma_obs::Verbosity;
use ccnuma_polsim::{simulate, PolsimConfig, SimPolicy};
use ccnuma_trace::Trace;
use ccnuma_tracestore::{
    run_sweep, CellParams, StoreError, SweepPolicy, SweepReport, SweepSpec, TraceReader,
    TraceWriter,
};
use ccnuma_types::{Ns, ShardPlan};
use ccnuma_workloads::{Scale, WorkloadKind};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Worker threads of the sweep and the executor in the timed iterations.
///
/// One, not `nproc`: on a 2-core Xeon host, a run's median with two
/// workers moved by up to a quarter between two sets of runs of the same
/// code (load elsewhere on the host slows whichever core a worker waits
/// on), against 6–7% for one worker. The parallel
/// engine is still held to its outputs (every `machine-migrep` report is
/// checked at `nproc` shards) and timed (`machine.runner.shard_speedup`).
pub const WORKERS: usize = 1;

/// The committed `repro all --scale quick` output.
pub const GOLDEN_QUICK: &str =
    include_str!("../../crates/bench/tests/golden_repro_all_quick.stdout");

/// Counts attempted and failed operations (runs, cells, output checks);
/// `failed / attempted` is the run's error rate.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Records one checked operation; a failure is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Records `n` operations that completed (runs, sweep cells).
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Shortest sample `time_reps` takes: cheaper calls are batched.
const MIN_SAMPLE_S: f64 = 2e-3;

/// Times `f` in `reps` samples and returns each sample's seconds per
/// call with the last value. Calls shorter than [`MIN_SAMPLE_S`] are
/// repeated within each sample, so a microsecond set-up is not read off
/// a clock at its own resolution.
pub fn time_reps<T>(reps: usize, mut f: impl FnMut() -> T) -> (Vec<f64>, T) {
    let t = Instant::now();
    let mut last = black_box(f());
    let first = t.elapsed().as_secs_f64();
    let batch = (MIN_SAMPLE_S / first.max(1e-9)).ceil().max(1.0) as usize;
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        for _ in 0..batch {
            last = black_box(f());
        }
        times.push(t.elapsed().as_secs_f64() / batch as f64);
    }
    (times, last)
}

/// Machine references a run simulates: every reference ends in exactly
/// one L2 hit (charged `l2_hit` of hit stall) or one counted miss.
/// `None` when the hit stall is not a whole number of hits.
pub fn refs_retired(r: &RunReport, l2_hit: Ns) -> Option<u64> {
    let hit_stall = r.breakdown.hit_stall_total().0;
    hit_stall.is_multiple_of(l2_hit.0).then(|| {
        hit_stall / l2_hit.0
            + r.breakdown.local_misses()
            + r.breakdown.remote_misses()
            + r.breakdown.far_misses()
    })
}

/// The simulated counts a host-speed change must leave untouched.
pub fn run_counts(r: &RunReport) -> String {
    let ps = r.policy_stats.unwrap_or_default();
    format!(
        "{} [{}]: hot_pages={} migrations={} replications={} collapses={} \
         local_miss_pct={:.6} avg_remote_queue={:.9} sim_time_ns={} cpu_time_ns={}",
        r.workload,
        r.policy_label,
        ps.hot_pages(),
        ps.migrations,
        ps.replications,
        ps.collapses,
        r.breakdown.pct_local_misses(),
        r.contention.avg_remote_queue(),
        r.sim_time.0,
        r.cpu_time.0
    )
}

/// Miss records a placement policy consumed in a machine run.
pub fn policy_records(r: &RunReport) -> u64 {
    r.policy_stats.map_or(0, |s| s.misses_observed)
}

// ----------------------------------------------------------------------
// machine-migrep

/// Engineering and Raytrace under the base Mig/Rep policy, serial
/// engine, with the benchmark's workload seed.
pub fn migrep_specs(scale: Scale, seed: u64) -> Vec<RunSpec> {
    [WorkloadKind::Engineering, WorkloadKind::Raytrace]
        .into_iter()
        .map(|k| RunSpec::catalog(k, scale, dynamic_options(k)).with_seed(seed))
        .collect()
}

/// One `machine-migrep` iteration's reports and wall time.
pub struct MigrepIter {
    pub reports: Vec<RunReport>,
    pub wall_s: f64,
}

/// What set-up hands the timed iterations of `machine-migrep`.
pub struct Migrep {
    pub specs: Vec<RunSpec>,
    /// Per spec: the workload's reference count and L2 hit latency.
    pub sizes: Vec<(u64, Ns)>,
}

impl Migrep {
    pub fn setup(scale: Scale, seed: u64) -> Migrep {
        let specs = migrep_specs(scale, seed);
        let sizes = specs
            .iter()
            .map(|s| {
                let w = s.build_workload();
                (w.total_refs, w.config.l2_hit)
            })
            .collect();
        Migrep { specs, sizes }
    }

    pub fn total_refs(&self) -> u64 {
        self.sizes.iter().map(|(n, _)| n).sum()
    }

    pub fn iterate(&self, checks: &mut Checks) -> MigrepIter {
        let t = Instant::now();
        let results: Vec<_> = self.specs.iter().map(RunSpec::try_run).collect();
        let wall_s = t.elapsed().as_secs_f64();
        let mut reports = Vec::with_capacity(results.len());
        for ((result, spec), &(refs, l2_hit)) in
            results.into_iter().zip(&self.specs).zip(&self.sizes)
        {
            let r = match result {
                Ok(r) => r,
                Err(e) => {
                    checks.check(false, || format!("{}: {e}", spec.describe()));
                    continue;
                }
            };
            checks.passed(1);
            checks.check(r.cpu_time == r.breakdown.total(), || {
                format!("{}: cpu_time != breakdown total", r.workload)
            });
            let retired = refs_retired(&r, l2_hit);
            checks.check(retired == Some(refs), || {
                format!("{}: retired {retired:?} refs, expected {refs}", r.workload)
            });
            reports.push(r);
        }
        MigrepIter { reports, wall_s }
    }

    /// Runs every spec again at `shards` host threads and checks each
    /// report is identical to the serial engine's.
    pub fn check_shards(&self, serial: &[RunReport], shards: usize, checks: &mut Checks) {
        for (spec, base) in self.specs.iter().zip(serial) {
            let mut sharded = spec.clone();
            sharded.opts = sharded
                .opts
                .clone()
                .with_shards(ShardPlan::new(shards as u32));
            let same = sharded
                .try_run()
                .is_ok_and(|r| format!("{r:?}") == format!("{base:?}"));
            checks.check(same, || {
                format!(
                    "{}: shards={shards} report differs from shards=1",
                    spec.describe()
                )
            });
        }
    }
}

// ----------------------------------------------------------------------
// policy-sweep

/// The sweep's input: a seeded Raytrace first-touch capture, encoded
/// to the v2 store format in memory.
pub struct Sweep {
    pub traced: TracedRun,
    pub bytes: Vec<u8>,
    pub grid: SweepSpec,
}

/// One capture-and-encode set-up.
pub struct Capture {
    pub traced: TracedRun,
    pub bytes: Vec<u8>,
    /// The capturing executor's counters.
    pub stats: ExecutorStats,
    pub capture_s: f64,
    pub encode_s: f64,
}

/// Encodes `trace` to v2 bytes in memory.
pub fn encode_v2(trace: &Trace) -> Result<Vec<u8>, StoreError> {
    let mut bytes = Vec::new();
    let mut w = TraceWriter::new(&mut bytes)?;
    for rec in trace.iter() {
        w.push(rec)?;
    }
    w.finish()?;
    Ok(bytes)
}

impl Sweep {
    pub fn capture_spec(scale: Scale, seed: u64) -> RunSpec {
        traced_ft_spec(WorkloadKind::Raytrace, scale).with_seed(seed)
    }

    /// Captures the trace and encodes it: the set-up, timed in its two
    /// parts.
    pub fn capture(spec: &RunSpec) -> Capture {
        let exec = Executor::serial().with_verbosity(Verbosity::Quiet);
        let t = Instant::now();
        let traced = exec.traced(spec);
        let capture_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let bytes = encode_v2(traced.trace()).expect("encoding to memory cannot fail");
        let encode_s = t.elapsed().as_secs_f64();
        Capture {
            traced,
            bytes,
            stats: exec.stats(),
            capture_s,
            encode_s,
        }
    }

    pub fn iterate(&self, checks: &mut Checks) -> Option<(SweepReport, f64)> {
        let open = || TraceReader::new(self.bytes.as_slice());
        let t = Instant::now();
        let result = run_sweep(
            &self.grid,
            self.traced.nodes(),
            self.traced.other_time(),
            WORKERS,
            open,
        );
        let wall_s = t.elapsed().as_secs_f64();
        match result {
            Ok(report) => {
                let records = self.traced.trace().len() as u64;
                checks.passed(report.unique_replays as u64);
                checks.check(report.records == records, || {
                    format!("sweep replayed {} records of {records}", report.records)
                });
                checks.check(report.cells.len() == self.grid.len(), || {
                    format!("sweep produced {} cells", report.cells.len())
                });
                Some((report, wall_s))
            }
            Err(e) => {
                checks.check(false, || format!("sweep failed: {e}"));
                None
            }
        }
    }

    /// Checks sweep cell `i` against a direct replay of the in-memory
    /// trace through `ccnuma_polsim::simulate`.
    pub fn check_cell(&self, report: &SweepReport, i: usize, checks: &mut Checks) {
        let cell = &report.cells[i % report.cells.len()];
        let direct = simulate(
            self.traced.trace(),
            &polsim_config(&cell.params, self.traced.nodes(), self.traced.other_time()),
            sim_policy(&cell.params),
            self.grid.filter,
        );
        checks.check(direct == cell.report, || {
            format!(
                "sweep cell {} differs from a direct replay",
                cell.params.memo_key()
            )
        });
    }
}

/// The polsim configuration a sweep cell replays under, built here from
/// the cell's public coordinates so the direct replay does not share the
/// sweep's own mapping.
pub fn polsim_config(cell: &CellParams, nodes: u16, other_time: Ns) -> PolsimConfig {
    let mut cfg = PolsimConfig::section8(nodes).with_other_time(other_time);
    cfg.remote_latency = Ns(cell.remote_ns);
    cfg.move_cost = Ns::from_us(cell.move_us);
    if !cell.topology.is_flat() {
        cfg = cfg.with_topology(cell.topology);
    }
    cfg
}

/// The replay policy a sweep cell names.
pub fn sim_policy(cell: &CellParams) -> SimPolicy {
    let kind = match cell.policy {
        SweepPolicy::RoundRobin => return SimPolicy::round_robin(),
        SweepPolicy::FirstTouch => return SimPolicy::first_touch(),
        SweepPolicy::PostFacto => return SimPolicy::post_facto(),
        SweepPolicy::MigrationOnly => DynamicPolicyKind::MigrationOnly,
        SweepPolicy::ReplicationOnly => DynamicPolicyKind::ReplicationOnly,
        SweepPolicy::MigRep => DynamicPolicyKind::MigRep,
    };
    SimPolicy::Dynamic {
        params: PolicyParams::base().with_trigger(cell.trigger),
        kind,
        metric: if cell.sample == 1 {
            MissMetric::full_cache()
        } else {
            MissMetric::sampled_cache(cell.sample)
        },
    }
}

/// The simulated counts of every sweep cell, one line each.
pub fn sweep_counts(report: &SweepReport) -> Vec<String> {
    report
        .cells
        .iter()
        .map(|c| {
            let r = &c.report;
            format!(
                "{}: stall_ns={} moves={} migrations={} replications={} collapses={} \
                 local_miss_pct={:.6}",
                c.params.memo_key(),
                r.stall().0,
                r.migrations + r.replications + r.collapses,
                r.migrations,
                r.replications,
                r.collapses,
                r.pct_local_misses()
            )
        })
        .collect()
}

// ----------------------------------------------------------------------
// paper-quick

/// Every experiment's plan at `scale`, merged in `repro all` order.
pub fn paper_plan(scale: Scale) -> RunPlan {
    let mut plan = RunPlan::new();
    for e in experiments::ALL {
        plan.extend((e.plan)(scale));
    }
    plan
}

/// The distinct runs of a plan (equal cache keys share one run).
pub fn distinct_specs(plan: &RunPlan) -> Vec<RunSpec> {
    let mut seen = HashSet::new();
    plan.specs()
        .iter()
        .filter(|s| seen.insert(s.cache_key()))
        .cloned()
        .collect()
}

/// One `paper-quick` iteration.
pub struct PaperIter {
    pub exec: Executor,
    pub output: String,
    pub execute_s: f64,
    pub render_s: f64,
    pub stats: ExecutorStats,
}

/// Executes `plan` on [`WORKERS`] threads and renders every experiment
/// the way `repro all` prints them to stdout.
pub fn paper_iterate(plan: &RunPlan, scale: Scale) -> PaperIter {
    let exec = Executor::new(WORKERS).with_verbosity(Verbosity::Quiet);
    let t = Instant::now();
    exec.execute(plan);
    let execute_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let output = render_all(scale, &exec);
    let render_s = t.elapsed().as_secs_f64();
    let stats = exec.stats();
    PaperIter {
        exec,
        output,
        execute_s,
        render_s,
        stats,
    }
}

/// The output checks of one `paper-quick` iteration.
pub fn check_paper(it: &PaperIter, distinct: &[RunSpec], checks: &mut Checks) {
    checks.passed(it.stats.computed);
    checks.check(it.stats.failed == 0, || {
        format!("paper-quick: {} runs failed", it.stats.failed)
    });
    checks.check(it.stats.computed == distinct.len() as u64, || {
        format!(
            "paper-quick: {} runs computed for {} distinct specs",
            it.stats.computed,
            distinct.len()
        )
    });
    checks.check(it.output == GOLDEN_QUICK, || {
        "paper-quick: output differs from the committed golden".into()
    });
}

fn render_all(scale: Scale, exec: &Executor) -> String {
    let mut out = String::new();
    for e in experiments::ALL {
        let broken = (e.plan)(scale)
            .iter()
            .filter(|s| exec.failure_for(s).is_some())
            .count();
        if broken == 0 {
            let _ = writeln!(out, "{}", (e.render)(scale, exec));
        } else {
            let _ = writeln!(out, "== {} skipped: {broken} failed run(s) ==\n", e.name);
        }
    }
    out
}
