//! Host facts recorded with every result, and small statistics helpers.

use ccnuma_obs::fnv1a64;
use std::path::{Path, PathBuf};

/// The repository root: the benchmark package sits one level below it.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives inside the repository")
        .to_path_buf()
}

/// Worker threads the host offers (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where a number was taken: two results are only comparable when
/// their fingerprints name the same kind of host and toolchain.
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: &'static str,
    /// `git rev-parse HEAD`, or "none" outside a git checkout.
    pub commit: String,
    /// FNV-1a over the repository's sources, which identifies the code
    /// even where no git metadata exists.
    pub source_hash: String,
}

impl Fingerprint {
    pub fn take() -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            nproc: nproc(),
            cpu_model,
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            commit: git_commit().unwrap_or_else(|| "none".to_string()),
            source_hash: format!("{:016x}", source_hash(&repo_root())),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"commit\": {}, \"source_hash\": {}}}",
            self.nproc,
            json_str(&self.cpu_model),
            json_str(self.rustc),
            json_str(&self.commit),
            json_str(&self.source_hash)
        )
    }
}

fn git_commit() -> Option<String> {
    let root = repo_root();
    if !root.join(".git").exists() {
        return None;
    }
    let out = std::process::Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Hashes every `.rs`, `.toml` and `.lock` file under `crates/`,
/// `vendor/` and the benchmark's `src/`, plus the root manifests, in
/// sorted path order.
fn source_hash(root: &Path) -> u64 {
    let mut files = Vec::new();
    for dir in ["crates", "vendor", "perfbench/src"] {
        collect_sources(&root.join(dir), &mut files);
    }
    for f in ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"] {
        files.push(root.join(f));
    }
    files.sort();
    let mut acc = Vec::new();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            let rel = f.strip_prefix(root).unwrap_or(&f);
            acc.extend_from_slice(rel.to_string_lossy().as_bytes());
            acc.extend_from_slice(&fnv1a64(&bytes).to_le_bytes());
        }
    }
    fnv1a64(&acc)
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if matches!(
            p.extension().and_then(|x| x.to_str()),
            Some("rs" | "toml" | "lock")
        ) {
            out.push(p);
        }
    }
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of `xs` (mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::new();
    ccnuma_obs::json::push_json_str(&mut out, s);
    out
}
