//! Pinned configuration, run metadata, statistics and the result line.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

use xqjg_store::{
    AdmissionConfig, ExecConfig, BATCH_CAPACITY, DEFAULT_MORSEL_SIZE, DEFAULT_SPILL_RETRIES,
};

/// Remove every `XQJG_*` variable from this process's environment before
/// anything reads one, so a CI matrix leg cannot change the measured
/// program.  Returns the names removed.
pub fn scrub_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("XQJG_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

/// Every execution knob, set through the builders.
pub fn exec_config(threads: usize, mem_budget: Option<usize>, spill_dir: &Path) -> ExecConfig {
    ExecConfig::default()
        .with_threads(threads)
        .with_batch_capacity(BATCH_CAPACITY)
        .with_morsel_size(DEFAULT_MORSEL_SIZE)
        .with_vectorize(true)
        .with_adaptive(true)
        .with_typed_kernels(true)
        .with_mem_budget(mem_budget)
        .with_spill_dir(spill_dir)
        .with_spill_retries(DEFAULT_SPILL_RETRIES)
        .with_query_timeout(None)
        .with_build_cache(true)
        .with_plan_cache(true)
        .with_postings_cache(true)
}

/// Every admission knob, set through the builders.
pub fn admission_config(global_budget: usize, max_sessions: usize) -> AdmissionConfig {
    AdmissionConfig::default()
        .with_global_budget(Some(global_budget))
        .with_max_sessions(max_sessions)
        .with_queue_depth(64)
        .with_queue_timeout(Duration::from_secs(60))
}

/// Number of processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` without running git; the
/// benchmark may run from an export that has no `.git`.
pub fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (no .git in the working directory)".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// Scratch directory for spill files, inside the working directory and
/// unique to this process.
pub fn spill_dir() -> PathBuf {
    PathBuf::from(format!("xqbench/out/spill-{}", std::process::id()))
}

#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    let mut ru = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` matches the C `struct rusage` layout on 64-bit
    // Linux (two `timeval`s, then fourteen `long`s), `ru` is a valid,
    // exclusively borrowed instance of it, and RUSAGE_SELF (0) is a valid
    // `who`; getrusage writes only inside the struct.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    ru.maxrss as f64 / 1024.0
}

/// Nearest-rank quantile of sorted values.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// FNV-1a over a byte string (result and text digests).
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Metric constructor.
pub fn metric(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples,
    }
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (non-finite values cannot occur in a metric;
/// they would mean a division by zero upstream).
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    format!("{v}")
}

/// The result line printed last: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
