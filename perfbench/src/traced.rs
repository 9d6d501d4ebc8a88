//! The traced run: per-layer metrics for one workload.
//!
//! 1. Reference runs, untraced: each machine run the layer probes
//!    imitate is run for real, three times each at 1 and `nproc` host
//!    threads (giving the runner's median ns/ref and its shard
//!    speed-up), and once more capturing
//!    its miss trace, which feeds the policy probe. The workload's own
//!    executor work, if any, gives the `bench.*` metrics.
//! 2. Probe passes: the layer probes run alternately without spans
//!    (the untraced pass) and with spans (the traced pass) until the
//!    run's time is spent; per-layer values are medians over the traced
//!    passes, and `trace_overhead_pct` compares the two kinds of pass.
//!
//! Which inputs a workload feeds its probes:
//! * `machine-migrep` — its two seeded Mig/Rep runs, and a seeded
//!   Raytrace first-touch capture for the store and replay layers;
//! * `policy-sweep` — its seeded Raytrace first-touch capture, for all
//!   layers (the machine layers ran it during set-up);
//! * `paper-quick` — the Engineering and Raytrace Mig/Rep runs and the
//!   Raytrace first-touch capture at catalog seeds, the inputs of
//!   Fig 3 and Figs 6–9.

use crate::host::median;
use crate::layers::{self, MachineCounts, PolicyCounts, PolicySetup, StoreCounts};
use crate::spans::Tracer;
use crate::suite::{self, Checks};
use crate::{Args, Outcome, Workload};
use ccnuma_bench::{dynamic_options, traced_ft_spec};
use ccnuma_machine::{PolicyChoice, RunKind, RunReport, RunSpec};
use ccnuma_trace::Trace;
use ccnuma_tracestore::SweepSpec;
use ccnuma_types::{Ns, ShardPlan};
use ccnuma_workloads::WorkloadKind;
use std::collections::BTreeMap;
use std::time::Instant;

/// Traced passes at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// Timed repetitions of each reference run (the median is used).
const REFERENCE_REPS: usize = 3;

/// One machine run the probes imitate.
struct Subject {
    spec: RunSpec,
    report: RunReport,
    serial_s: f64,
    sharded_s: f64,
    misses: Trace,
    policy: PolicySetup,
}

/// The base Mig/Rep policy a workload kind runs under.
fn base_policy(kind: WorkloadKind) -> PolicySetup {
    match dynamic_options(kind).policy {
        PolicyChoice::Dynamic {
            params,
            kind,
            metric,
        } => (params, kind, metric),
        _ => unreachable!("dynamic_options builds a dynamic policy"),
    }
}

fn with_shards(spec: &RunSpec, shards: usize) -> RunSpec {
    let mut s = spec.clone();
    s.opts = s.opts.clone().with_shards(ShardPlan::new(shards as u32));
    s
}

/// Runs `spec` `reps` times; returns the first report and the median
/// wall seconds. Every report must equal the first.
fn timed_run(spec: &RunSpec, reps: usize, checks: &mut Checks) -> Option<(RunReport, f64)> {
    let mut first: Option<RunReport> = None;
    let mut walls = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let result = spec.try_run();
        walls.push(t.elapsed().as_secs_f64());
        let r = match result {
            Ok(r) => r,
            Err(e) => {
                checks.check(false, || format!("{}: {e}", spec.describe()));
                return None;
            }
        };
        checks.passed(1);
        checks.check(r.cpu_time == r.breakdown.total(), || {
            format!("{}: cpu_time != breakdown total", spec.describe())
        });
        match &first {
            None => first = Some(r),
            Some(f) => checks.check(format!("{f:?}") == format!("{r:?}"), || {
                format!("{}: two runs of one spec differ", spec.describe())
            }),
        }
    }
    Some((first?, median(&walls)))
}

fn subject(spec: RunSpec, nproc: usize, checks: &mut Checks) -> Option<Subject> {
    let RunKind::Catalog(kind) = spec.kind else {
        return None;
    };
    let (report, serial_s) = timed_run(&spec, REFERENCE_REPS, checks)?;
    let (sharded, sharded_s) = timed_run(&with_shards(&spec, nproc), REFERENCE_REPS, checks)?;
    checks.check(format!("{sharded:?}") == format!("{report:?}"), || {
        format!(
            "{}: shards={nproc} report differs from shards=1",
            spec.describe()
        )
    });
    let misses = match &report.trace {
        Some(t) => t.clone(),
        None => {
            let mut capture = spec.clone();
            capture.opts = capture.opts.clone().with_trace();
            timed_run(&capture, 1, checks)?.0.trace?
        }
    };
    Some(Subject {
        policy: base_policy(kind),
        spec,
        report,
        serial_s,
        sharded_s,
        misses,
    })
}

/// The store and replay input: a Raytrace first-touch capture.
struct StoreInput {
    trace: Trace,
    nodes: u16,
    other_time: Ns,
}

/// Per-pass results of the probes.
struct Pass {
    wall_s: f64,
    machine: MachineCounts,
    policy: PolicyCounts,
    store: StoreCounts,
}

fn probe_all(
    subjects: &[Subject],
    store: &StoreInput,
    grid: &SweepSpec,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Pass {
    let t = Instant::now();
    let mut machine = MachineCounts::default();
    let mut policy = PolicyCounts::default();
    for s in subjects {
        let w = s.spec.build_workload();
        let cfg = w.config.clone();
        machine.add(&layers::probe_machine(w, tr));
        policy.add(&layers::probe_policy(&cfg, &s.policy, &s.misses, tr));
    }
    let store_counts = layers::probe_store(&store.trace, store.nodes, store.other_time, grid, tr);
    checks.check(store_counts.is_some(), || {
        "v2 encode/decode round trip lost records".into()
    });
    Pass {
        wall_s: t.elapsed().as_secs_f64(),
        machine,
        policy,
        store: store_counts.unwrap_or_default(),
    }
}

/// Executor statistics the workload's own executor work produced.
#[derive(Default)]
struct BenchLayer {
    runs_computed: u64,
    cache_hits: u64,
    execute_s: f64,
    render_s: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn run(args: &Args, nproc: usize) -> Outcome {
    let mut out = Outcome::default();
    let scale = args.scale();
    let checks = &mut out.checks;

    // 1. Reference runs.
    let mut bench = BenchLayer::default();
    let (specs, store_spec) = match args.workload {
        Workload::MachineMigrep => (
            suite::migrep_specs(scale, args.seed),
            suite::Sweep::capture_spec(scale, args.seed),
        ),
        Workload::PolicySweep => {
            let spec = suite::Sweep::capture_spec(scale, args.seed);
            (vec![spec.clone()], spec)
        }
        Workload::PaperQuick => {
            let plan = suite::paper_plan(scale);
            let distinct = suite::distinct_specs(&plan);
            let it = suite::paper_iterate(&plan, scale);
            suite::check_paper(&it, &distinct, checks);
            bench = BenchLayer {
                runs_computed: it.stats.computed,
                cache_hits: it.stats.hits,
                execute_s: it.execute_s,
                render_s: it.render_s,
            };
            let specs = [WorkloadKind::Engineering, WorkloadKind::Raytrace]
                .into_iter()
                .map(|k| RunSpec::catalog(k, scale, dynamic_options(k)))
                .collect();
            (specs, traced_ft_spec(WorkloadKind::Raytrace, scale))
        }
    };
    let subjects: Vec<Subject> = specs
        .into_iter()
        .filter_map(|s| subject(s, nproc, checks))
        .collect();
    let capture = suite::Sweep::capture(&store_spec);
    if args.workload == Workload::PolicySweep {
        bench = BenchLayer {
            runs_computed: capture.stats.computed,
            cache_hits: capture.stats.hits,
            execute_s: capture.capture_s,
            render_s: 0.0,
        };
    }
    let store = StoreInput {
        trace: capture.traced.trace().clone(),
        nodes: capture.traced.nodes(),
        other_time: capture.traced.other_time(),
    };
    let grid = SweepSpec::default_grid();

    // 2. Probe passes, alternating untraced and traced.
    let mut tracer = Tracer::new(true);
    let mut untraced_walls = Vec::new();
    let mut passes: Vec<(Pass, BTreeMap<&'static str, u64>)> = Vec::new();
    let start = Instant::now();
    while passes.len() < MIN_PASSES || start.elapsed() < args.seconds {
        let quiet = probe_all(&subjects, &store, &grid, &mut Tracer::new(false), checks);
        untraced_walls.push(quiet.wall_s);
        let rep = passes.len() as u32;
        tracer.set_iteration(rep);
        let pass = probe_all(&subjects, &store, &grid, &mut tracer, checks);
        let same = pass.machine == quiet.machine
            && pass.policy == quiet.policy
            && pass.store == quiet.store;
        checks.check(same, || {
            "layer probes counted different work in two passes".into()
        });
        let self_ns = tracer.self_ns(rep);
        passes.push((pass, self_ns));
    }
    out.samples = passes.len();

    // 3. Metrics: medians over the traced passes of each layer's
    // exclusive ns per call; counts repeat exactly, so any pass's do.
    let (last, _) = passes.last().expect("at least one pass");
    let (m, p, st) = (last.machine, last.policy, last.store);
    let per = |layer: &str, calls: u64| -> f64 {
        median(
            &passes
                .iter()
                .map(|(_, ns)| ratio(*ns.get(layer).unwrap_or(&0) as f64, calls as f64))
                .collect::<Vec<_>>(),
        )
    };
    let secs = |layer: &str| per(layer, 1) / 1e9;
    let refs = m.refs as f64;
    let dynamic = subjects.iter().all(|s| s.report.policy_stats.is_some());
    let run_ns_per_ref = ratio(subjects.iter().map(|s| s.serial_s).sum::<f64>() * 1e9, refs);
    let mut attributed = [
        "workloads.gen",
        "machine.tlb",
        "machine.cache",
        "machine.coherence",
        "machine.contention",
    ]
    .iter()
    .map(|l| per(l, m.refs))
    .sum::<f64>();
    if dynamic {
        attributed += per("core.engine", m.refs) + per("kernel.pager", m.refs);
    }
    let remote_queue: f64 = subjects
        .iter()
        .map(|s| s.report.contention.remote_queue_sum)
        .sum();
    let remote_requests: u64 = subjects
        .iter()
        .map(|s| s.report.contention.remote_requests)
        .sum();
    let max_occupancy = subjects
        .iter()
        .map(|s| s.report.max_occupancy)
        .fold(0.0, f64::max);
    let shard_speedup = ratio(
        subjects.iter().map(|s| s.serial_s).sum(),
        subjects.iter().map(|s| s.sharded_s).sum(),
    );

    out.counts = subjects
        .iter()
        .map(|s| suite::run_counts(&s.report))
        .collect();
    out.counts.push(format!(
        "machine probe: refs={} tlb_misses={} cache_misses={} writes={} coherence_ops={} \
         invalidations={} dir_requests={}",
        m.refs,
        m.tlb_misses,
        m.cache_misses,
        m.writes,
        m.coherence_ops,
        m.invalidations,
        m.dir_requests
    ));
    out.counts.push(format!(
        "policy probe: records={} observes={} hot_pages={} page_moves={} ops={} ops_failed={} \
         lock_wait_ns={}",
        p.records, p.observes, p.hot_pages, p.page_moves, p.ops, p.ops_failed, p.lock_wait_ns
    ));
    out.counts.push(format!(
        "store probe: records={} bytes={} replayed={}",
        st.records, st.bytes, st.replayed
    ));

    let o = &mut out;
    o.push(
        "workloads.gen.ns_per_ref",
        per("workloads.gen", m.refs),
        "ns",
    );
    o.push(
        "machine.tlb.ns_per_access",
        per("machine.tlb", m.refs),
        "ns",
    );
    o.push(
        "machine.tlb.miss_ratio",
        ratio(m.tlb_misses as f64, refs),
        "ratio",
    );
    o.push(
        "machine.cache.ns_per_access",
        per("machine.cache", m.refs),
        "ns",
    );
    o.push(
        "machine.cache.miss_ratio",
        ratio(m.cache_misses as f64, refs),
        "ratio",
    );
    o.push(
        "machine.coherence.ns_per_op",
        per("machine.coherence", m.coherence_ops),
        "ns",
    );
    o.push(
        "machine.coherence.invalidations_per_write",
        ratio(m.invalidations as f64, m.writes as f64),
        "ratio",
    );
    o.push(
        "machine.contention.ns_per_request",
        per("machine.contention", m.dir_requests),
        "ns",
    );
    o.push(
        "machine.contention.avg_remote_queue",
        ratio(remote_queue, remote_requests as f64),
        "requests",
    );
    o.push("machine.contention.max_occupancy", max_occupancy, "ratio");
    o.push(
        "machine.runner.self_ns_per_ref",
        run_ns_per_ref - attributed,
        "ns",
    );
    o.push("machine.runner.shard_speedup", shard_speedup, "x");
    o.push(
        "core.engine.ns_per_observe",
        per("core.engine", p.observes),
        "ns",
    );
    o.push("core.engine.hot_pages", p.hot_pages as f64, "count");
    o.push("core.engine.page_moves", p.page_moves as f64, "count");
    o.push("kernel.pager.ns_per_op", per("kernel.pager", p.ops), "ns");
    o.push("kernel.pager.ops_failed", p.ops_failed as f64, "count");
    o.push("kernel.pager.lock_wait_ns", p.lock_wait_ns as f64, "sim_ns");
    o.push(
        "tracestore.decode_mb_per_s",
        ratio(st.bytes as f64 / 1e6, secs("tracestore.decode")),
        "MB/s",
    );
    o.push(
        "tracestore.encode_mb_per_s",
        ratio(st.bytes as f64 / 1e6, secs("tracestore.encode")),
        "MB/s",
    );
    o.push(
        "tracestore.bytes_per_record",
        ratio(st.bytes as f64, st.records as f64),
        "B",
    );
    o.push(
        "polsim.ns_per_record",
        per("polsim.replay", st.replayed),
        "ns",
    );
    o.push(
        "bench.plan.runs_computed",
        bench.runs_computed as f64,
        "count",
    );
    o.push("bench.plan.cache_hits", bench.cache_hits as f64, "count");
    o.push("bench.plan.execute_s", bench.execute_s, "s");
    o.push("bench.render_s", bench.render_s, "s");
    let traced_walls: Vec<f64> = passes.iter().map(|(p, _)| p.wall_s).collect();
    o.push(
        "trace_overhead_pct",
        100.0 * (median(&traced_walls) / median(&untraced_walls) - 1.0),
        "%",
    );
    let error_rate = o.checks.error_rate();
    o.push("error_rate", error_rate, "ratio");
    o.spans_json = Some(tracer.to_json());
    out
}
