//! Window lanes emit TLB-miss events only when something consumes them
//! (a recorder, trace capture, or a TLB-source policy metric). These
//! runs pin that skipping them elsewhere changes no report byte.

use ccnuma_core::{DynamicPolicyKind, MissMetric, PolicyParams};
use ccnuma_machine::{Machine, PolicyChoice, RunOptions, RunReport};
use ccnuma_obs::RunRecorder;
use ccnuma_trace::MissSource;
use ccnuma_types::ShardPlan;
use ccnuma_workloads::{Scale, WorkloadKind};

fn machine(opts: RunOptions) -> Machine {
    Machine::new(WorkloadKind::Raytrace.build(Scale::quick()), opts)
}

fn mig_rep(metric: MissMetric) -> RunOptions {
    RunOptions::new(PolicyChoice::Dynamic {
        params: PolicyParams::base().with_trigger(16),
        kind: DynamicPolicyKind::MigRep,
        metric,
    })
}

fn bytes(r: &RunReport) -> String {
    format!("{r:?}")
}

/// TLB misses in a captured trace of `opts` (capture changes no
/// simulated count, so this is the run's true TLB-miss total).
fn tlb_misses(opts: RunOptions) -> usize {
    let trace = machine(opts.with_trace())
        .run()
        .trace
        .expect("trace requested");
    trace
        .as_slice()
        .iter()
        .filter(|m| m.source == MissSource::Tlb)
        .count()
}

/// The recorder path still sees every TLB refill; the plain path skips
/// them, and the reports agree to the byte.
#[test]
fn cache_metric_report_matches_the_recorded_run() {
    let plain = machine(mig_rep(MissMetric::full_cache())).run();
    let mut rec = RunRecorder::default();
    let recorded = machine(mig_rep(MissMetric::full_cache())).run_with(&mut rec);
    assert_eq!(bytes(&plain), bytes(&recorded));
    let refills = rec.metrics.counter("tlb_refills");
    assert_eq!(
        refills as usize,
        tlb_misses(mig_rep(MissMetric::full_cache()))
    );
}

/// A full-TLB metric policy observes every TLB miss, at any shard count.
#[test]
fn tlb_metric_policy_sees_every_tlb_miss_at_any_shard_count() {
    let run = |n| machine(mig_rep(MissMetric::full_tlb()).with_shards(ShardPlan::new(n))).run();
    let serial = run(1);
    let stats = serial.policy_stats.expect("dynamic run has stats");
    assert_eq!(
        stats.misses_observed as usize,
        tlb_misses(mig_rep(MissMetric::full_tlb()))
    );
    assert_eq!(bytes(&serial), bytes(&run(2)));
}

/// Trace capture alone (no recorder) still records the lanes' TLB misses.
#[test]
fn captured_trace_keeps_tlb_records() {
    let opts = || mig_rep(MissMetric::full_cache()).with_trace();
    let plain = machine(opts()).run();
    let recorded = machine(opts()).run_with(&mut RunRecorder::default());
    assert_eq!(bytes(&plain), bytes(&recorded));
    assert!(tlb_misses(mig_rep(MissMetric::full_cache())) > 0);
}
