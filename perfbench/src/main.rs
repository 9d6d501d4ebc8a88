//! The repository's benchmark.
//!
//! ```text
//! perfbench --workload <machine-migrep|policy-sweep|paper-quick>
//!           --seed <n> --seconds <s> --trace <0|1> [--size tiny|full]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off:
//! set-up, then timed iterations for `--seconds`, each checked for
//! correct output. `--trace 1` is the separate traced run: it repeats
//! the workload's real runs once for reference, then drives each layer
//! with the workload's inputs under in-memory spans (see `layers`) and
//! prints the per-layer metrics. Either way the last stdout line is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. The
//! host fingerprint, the seed and the exact simulated counts are printed
//! above it and written with the spans under `perfbench/out/`.
//!
//! `--size tiny` shrinks the machine runs for the smoke test;
//! `paper-quick` always runs at quick scale, where its golden exists.

mod host;
mod layers;
mod spans;
mod suite;
mod traced;

use host::{json_str, median, Fingerprint};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use suite::Checks;

/// Set-up samples taken before the first iteration, and (for set-ups
/// shorter than a capture run) at each re-timing.
const SETUP_REPS: usize = 5;
/// Set-up is timed again between iterations this often, so its samples
/// spread over the run (and the host's cores) like the iterations' do.
const SETUP_EVERY: Duration = Duration::from_secs(1);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    MachineMigrep,
    PolicySweep,
    PaperQuick,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "machine-migrep" => Some(Workload::MachineMigrep),
            "policy-sweep" => Some(Workload::PolicySweep),
            "paper-quick" => Some(Workload::PaperQuick),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::MachineMigrep => "machine-migrep",
            Workload::PolicySweep => "policy-sweep",
            Workload::PaperQuick => "paper-quick",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub tiny: bool,
}

impl Args {
    /// Machine-run length: quick scale, or a few thousand references per
    /// CPU for the smoke test. `paper-quick` ignores `--size`.
    pub fn scale(&self) -> ccnuma_workloads::Scale {
        if self.tiny && self.workload != Workload::PaperQuick {
            ccnuma_workloads::Scale {
                refs_per_cpu: 2_000,
            }
        } else {
            ccnuma_workloads::Scale::quick()
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace expects 0 or 1, got {v:?}")),
                })
            }
            "--size" => {
                tiny = match value()?.as_str() {
                    "tiny" => true,
                    "full" => false,
                    v => return Err(format!("--size expects tiny or full, got {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
    })
}

/// One named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a run reports.
#[derive(Default)]
pub struct Outcome {
    pub checks: Checks,
    pub metrics: Vec<Metric>,
    /// Timed samples behind the medians (iterations or traced reps).
    pub samples: usize,
    /// Each timed iteration's wall seconds.
    pub walls: Vec<f64>,
    /// Each set-up sample's seconds.
    pub setups: Vec<f64>,
    /// Exact simulated counts, one line each.
    pub counts: Vec<String>,
    /// The traced run's spans as JSON, when there are any.
    pub spans_json: Option<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }
}

/// Runs `iteration(i, resample)` until `budget` has elapsed (at least
/// once); `resample` is true every [`SETUP_EVERY`], when the caller times
/// its set-up again.
fn until(budget: Duration, mut iteration: impl FnMut(usize, bool)) -> usize {
    let start = Instant::now();
    let mut last = start;
    let mut n = 0;
    loop {
        let resample = last.elapsed() >= SETUP_EVERY;
        if resample {
            last = Instant::now();
        }
        iteration(n, resample);
        n += 1;
        if start.elapsed() >= budget {
            return n;
        }
    }
}

fn timed(args: &Args, nproc: usize) -> Outcome {
    let mut out = Outcome::default();
    let scale = args.scale();
    match args.workload {
        Workload::MachineMigrep => {
            let setup_once = || suite::Migrep::setup(scale, args.seed);
            let (mut setup, m) = suite::time_reps(SETUP_REPS, setup_once);
            let mut walls = Vec::new();
            let mut first: Option<(Vec<String>, Vec<ccnuma_machine::RunReport>)> = None;
            let checks = &mut out.checks;
            out.samples = until(args.seconds, |_, resample| {
                if resample {
                    setup.extend(suite::time_reps(SETUP_REPS, setup_once).0);
                }
                let it = m.iterate(checks);
                walls.push(it.wall_s);
                let ident: Vec<String> = it.reports.iter().map(|r| format!("{r:?}")).collect();
                match &first {
                    None => first = Some((ident, it.reports)),
                    Some((f, _)) => checks.check(*f == ident, || {
                        "machine-migrep: an iteration's reports differ from the first".into()
                    }),
                }
            });
            let (_, reports) = first.expect("at least one iteration");
            m.check_shards(&reports, nproc, &mut out.checks);
            out.counts = reports.iter().map(suite::run_counts).collect();
            let wall = median(&walls);
            out.walls = walls;
            let records: u64 = reports.iter().map(suite::policy_records).sum();
            out.push("setup_s", median(&setup), "s");
            out.setups = setup;
            out.push("wall_s", wall, "s");
            out.push("sim_refs_per_s", m.total_refs() as f64 / wall, "refs/s");
            out.push("replay_records_per_s", records as f64 / wall, "records/s");
        }
        Workload::PolicySweep => {
            let spec = suite::Sweep::capture_spec(scale, args.seed);
            let refs = spec.build_workload().total_refs;
            let c = suite::Sweep::capture(&spec);
            let mut setup = vec![c.capture_s + c.encode_s];
            let mut capture = vec![c.capture_s];
            // Every capture after the first must encode to the same bytes.
            let mut resample = |first: &[u8], checks: &mut Checks| {
                let again = suite::Sweep::capture(&spec);
                setup.push(again.capture_s + again.encode_s);
                capture.push(again.capture_s);
                checks.check(first == again.bytes, || {
                    "policy-sweep: two captures encoded to different bytes".into()
                });
            };
            for _ in 1..SETUP_REPS {
                resample(&c.bytes, &mut out.checks);
            }
            let sweep = suite::Sweep {
                traced: c.traced,
                bytes: c.bytes,
                grid: ccnuma_tracestore::SweepSpec::default_grid(),
            };
            let mut walls = Vec::new();
            let mut first = None;
            let mut replayed = 0u64;
            let checks = &mut out.checks;
            out.samples = until(args.seconds, |i, again| {
                if again {
                    resample(&sweep.bytes, checks);
                }
                let Some((report, wall)) = sweep.iterate(checks) else {
                    return;
                };
                walls.push(wall);
                sweep.check_cell(&report, i, checks);
                replayed = report.unique_replays as u64 * report.records;
                match &first {
                    None => first = Some(report),
                    Some(f) => checks.check(f.cells == report.cells, || {
                        "policy-sweep: an iteration's cells differ from the first".into()
                    }),
                }
            });
            out.counts = first.as_ref().map(suite::sweep_counts).unwrap_or_default();
            let wall = if walls.is_empty() {
                f64::NAN
            } else {
                median(&walls)
            };
            out.walls = walls;
            out.push("setup_s", median(&setup), "s");
            out.setups = setup;
            out.push("wall_s", wall, "s");
            out.push("sim_refs_per_s", refs as f64 / median(&capture), "refs/s");
            out.push("replay_records_per_s", replayed as f64 / wall, "records/s");
        }
        Workload::PaperQuick => {
            let setup_once = || suite::paper_plan(scale);
            let (mut setup, plan) = suite::time_reps(SETUP_REPS, setup_once);
            let distinct = suite::distinct_specs(&plan);
            let refs: u64 = distinct.iter().map(|s| s.build_workload().total_refs).sum();
            let mut walls = Vec::new();
            let mut records = 0u64;
            let mut counts = Vec::new();
            let checks = &mut out.checks;
            out.samples = until(args.seconds, |i, resample| {
                if resample {
                    setup.extend(suite::time_reps(SETUP_REPS, setup_once).0);
                }
                let it = suite::paper_iterate(&plan, scale);
                walls.push(it.execute_s + it.render_s);
                suite::check_paper(&it, &distinct, checks);
                if i == 0 {
                    // Fetching the reports counts as cache hits, so this
                    // comes after the iteration's statistics were taken.
                    for spec in &distinct {
                        let r = it.exec.run(spec);
                        checks.check(r.cpu_time == r.breakdown.total(), || {
                            format!("{}: cpu_time != breakdown total", spec.describe())
                        });
                        records += suite::policy_records(&r);
                        counts.push(suite::run_counts(&r));
                    }
                    counts.push(format!(
                        "executor: runs_computed={} cache_hits={} output_fnv={:016x}",
                        it.stats.computed,
                        it.stats.hits,
                        ccnuma_obs::fnv1a64(it.output.as_bytes())
                    ));
                }
            });
            out.counts = counts;
            let wall = median(&walls);
            out.walls = walls;
            out.push("setup_s", median(&setup), "s");
            out.setups = setup;
            out.push("wall_s", wall, "s");
            out.push("sim_refs_per_s", refs as f64 / wall, "refs/s");
            out.push("replay_records_per_s", records as f64 / wall, "records/s");
        }
    }
    out.push("peak_rss_mb", host::peak_rss_mb(), "MiB");
    out
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(out: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.checks.failed == 0,
        out.checks.attempted,
        out.checks.failed
    )
}

/// Writes the result with its fingerprint, seed and simulated counts
/// (and the traced run's spans) under `perfbench/out/`.
fn write_artifacts(
    args: &Args,
    fp: &Fingerprint,
    out: &Outcome,
    line: &str,
) -> std::io::Result<()> {
    let dir = host::repo_root().join("perfbench").join("out");
    std::fs::create_dir_all(&dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let counts: Vec<String> = out.counts.iter().map(|c| json_str(c)).collect();
    let doc = format!(
        "{{\"schema\": \"perfbench-result/1\", \"workload\": \"{}\", \"seed\": {}, \
         \"seed_used\": {}, \"trace\": {}, \"seconds\": {}, \"samples\": {}, \"wall_samples_s\": {:?}, \
         \"setup_samples_s\": {:?}, \
         \"host\": {}, \"sim_counts\": [{}], \"result\": {line}}}\n",
        args.workload.name(),
        args.seed,
        args.workload != Workload::PaperQuick,
        args.trace,
        args.seconds.as_secs_f64(),
        out.samples,
        out.walls,
        out.setups,
        fp.to_json(),
        counts.join(", ")
    );
    std::fs::write(dir.join(format!("result-{stem}.json")), doc)?;
    if let Some(spans) = &out.spans_json {
        std::fs::write(dir.join(format!("spans-{stem}.json")), spans)?;
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let fp = Fingerprint::take();
    let nproc = fp.nproc;
    let out = if args.trace {
        traced::run(&args, nproc)
    } else {
        timed(&args, nproc)
    };
    for m in &out.metrics {
        if !m.value.is_finite() {
            eprintln!("perfbench: metric {} is not finite", m.name);
            std::process::exit(1);
        }
    }

    println!(
        "perfbench {} seed={} ({}) trace={} samples={}",
        args.workload.name(),
        args.seed,
        if args.workload == Workload::PaperQuick {
            "ignored: pinned to the catalog seeds of the golden"
        } else {
            "workload seed"
        },
        u8::from(args.trace),
        out.samples
    );
    println!("host {}", fp.to_json());
    for c in &out.counts {
        println!("sim-counts {c}");
    }
    for m in &out.metrics {
        println!("metric {:<40} {:>20.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "checks attempted={} failed={} error_rate={}",
        out.checks.attempted,
        out.checks.failed,
        out.checks.error_rate()
    );
    let line = result_json(&out);
    if let Err(e) = write_artifacts(&args, &fp, &out, &line) {
        eprintln!("perfbench: writing results: {e}");
        std::process::exit(1);
    }
    println!("{line}");
}
