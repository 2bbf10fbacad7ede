//! Measurement helpers: quantiles, process counters read from `/proc`,
//! and the host facts printed with every result.

use std::path::Path;
use std::time::Instant;

/// Linear-interpolated quantile of `sorted` (ascending), `q ∈ [0, 1]`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").unwrap_or(0.0) / 1024.0
}

fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// User plus system CPU time of this process, in seconds, from
/// `/proc/self/stat` (clock-tick resolution, 100 Hz on Linux).
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => 0.0,
    }
}

/// Facts about the machine and build that a result depends on. Results
/// from hosts whose facts differ must not be compared.
#[derive(Debug, Clone)]
pub struct HostFacts {
    /// Online processors listed in `/proc/cpuinfo`.
    pub nproc: usize,
    /// `std::thread::available_parallelism` (cgroup- and affinity-aware).
    pub available_parallelism: usize,
    /// `rustc -V` of the toolchain on the path.
    pub rustc: String,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// The checked-out commit, or `unknown` outside a git checkout.
    pub commit: String,
}

impl HostFacts {
    /// Collect the facts; `root` is the directory holding the benchmark
    /// package (its parent is the repository root).
    pub fn collect(root: &Path) -> Self {
        let nproc = std::fs::read_to_string("/proc/cpuinfo")
            .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
            .unwrap_or(0);
        let available_parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let rustc_bin = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
        let rustc = std::process::Command::new(rustc_bin)
            .arg("-V")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        let commit = root
            .parent()
            .and_then(|repo| git_head(&repo.join(".git")))
            .unwrap_or_else(|| "unknown".to_string());
        HostFacts {
            nproc,
            available_parallelism,
            rustc,
            profile,
            commit,
        }
    }

    /// One-line JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"available_parallelism\":{},\"rustc\":{},\"profile\":{},\"commit\":{}}}",
            self.nproc,
            self.available_parallelism,
            json_str(&self.rustc),
            json_str(self.profile),
            json_str(&self.commit)
        )
    }
}

/// Resolve `HEAD` by reading the git directory's files (no git process,
/// nothing read outside the checkout).
fn git_head(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git_dir.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values become `null`.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}
