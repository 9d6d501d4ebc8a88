//! Micro-benchmarks for the per-reference hot path, plus one whole-run
//! macro-bench.
//!
//! The micro targets isolate the three structures every reference (or
//! every miss) touches — the page-indexed TLB, the page-indexed ProcSet
//! coherence directory, and the directory-contention model — so a
//! regression in any one of them is visible without re-running the whole
//! suite. The macro target runs Raytrace at quick scale end to end under
//! both policies, the same shape `repro bench` times.

use ccnuma_machine::{CoherenceDir, DirectoryModel, Tlb};
use ccnuma_types::{MachineConfig, NodeId, Ns, ProcId, ProcSet, VirtPage};
use ccnuma_workloads::{Scale, WorkloadKind};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// TLB access over a working set larger than the TLB: a fixed hit/miss
/// mix exercising the page-index lookup and FIFO eviction.
fn bench_tlb(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath/tlb");
    group.bench_function("access_mixed", |b| {
        let mut tlb = Tlb::new(&MachineConfig::cc_numa());
        let mut p = 0u64;
        b.iter(|| {
            p = p.wrapping_add(1);
            // ~192 distinct pages over a 64-entry TLB: a steady mix of
            // hits (recent pages) and evicting misses.
            black_box(tlb.access(VirtPage(p % 192)))
        });
    });
    group.bench_function("access_hot", |b| {
        let mut tlb = Tlb::new(&MachineConfig::cc_numa());
        for p in 0..64u64 {
            tlb.access(VirtPage(p));
        }
        let mut p = 0u64;
        b.iter(|| {
            p = p.wrapping_add(1);
            black_box(tlb.access(VirtPage(p % 64)))
        });
    });
    group.finish();
}

/// Coherence-directory write: the per-store path that must not allocate.
fn bench_coherence(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath/coherence");
    group.bench_function("write_contended", |b| {
        let mut dir = CoherenceDir::new();
        let mut victims = ProcSet::with_capacity_for(64);
        let mut t = 0u64;
        b.iter(|| {
            t = t.wrapping_add(1);
            let proc = ProcId((t % 8) as u16);
            let page = VirtPage(t % 64);
            let line = (t % 4) as u16;
            // Another processor fills first, so the write usually has a
            // victim to invalidate.
            dir.record_fill(ProcId(((t + 1) % 8) as u16), page, line);
            dir.write(proc, page, line, &mut victims);
            black_box(victims.len())
        });
    });
    // The lifted-cap configuration: 128 sharers per line means the
    // victim set spans two 64-bit words, and the write must stay
    // allocation-free exactly like the 8-proc case above.
    group.bench_function("write_128_procs", |b| {
        let mut dir = CoherenceDir::with_procs(128);
        let mut victims = ProcSet::with_capacity_for(128);
        let mut t = 0u64;
        b.iter(|| {
            t = t.wrapping_add(1);
            let proc = ProcId((t % 128) as u16);
            let page = VirtPage(t % 64);
            let line = (t % 4) as u16;
            dir.record_fill(ProcId(((t + 67) % 128) as u16), page, line);
            dir.write(proc, page, line, &mut victims);
            black_box(victims.len())
        });
    });
    group.bench_function("fill_evict", |b| {
        let mut dir = CoherenceDir::new();
        let mut t = 0u64;
        b.iter(|| {
            t = t.wrapping_add(1);
            let proc = ProcId((t % 8) as u16);
            let page = VirtPage(t % 128);
            dir.record_fill(proc, page, 0);
            dir.record_evict(proc, page, 0);
        });
    });
    group.finish();
}

/// Directory-contention model: one request through the busy-until queue.
fn bench_directory(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath/directory");
    group.bench_function("request", |b| {
        let mut dir = DirectoryModel::new(&MachineConfig::cc_numa());
        let mut t = 0u64;
        b.iter(|| {
            t = t.wrapping_add(137);
            black_box(dir.request(Ns(t), NodeId((t % 8) as u16), t.is_multiple_of(3)))
        });
    });
    group.finish();
}

/// Whole-run macro-bench: Raytrace at quick scale, the per-reference loop
/// end to end (TLB → L2 → coherence → directory → policy).
fn bench_whole_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath/raytrace_quick");
    group.bench_function("first_touch", |b| {
        let spec = ccnuma_bench::ft_spec(WorkloadKind::Raytrace, Scale::quick());
        b.iter(|| black_box(spec.run().breakdown.total()));
    });
    group.bench_function("mig_rep", |b| {
        let spec = ccnuma_bench::dynamic_spec(WorkloadKind::Raytrace, Scale::quick());
        b.iter(|| black_box(spec.run().breakdown.total()));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_tlb,
    bench_coherence,
    bench_directory,
    bench_whole_run
);
criterion_main!(benches);
