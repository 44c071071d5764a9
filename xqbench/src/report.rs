//! Turning latencies, counters and spans into the reported metrics.

use std::collections::BTreeMap;

use xqjg_core::QueryError;
use xqjg_store::ExecError;

use crate::oracle::Tally;
use crate::pipeline::{Counters, SetupTimes};
use crate::trace::Tracer;
use crate::util::{median, metric, quantile, Metric};

/// Should a run set up once more?  `setup_s` is the median of a run's
/// set-ups: at least three, and more while they add up to under two
/// seconds (short set-ups are noisy), up to twenty-five.
pub fn another_setup(done: &[SetupTimes]) -> bool {
    let spent: f64 = done.iter().map(SetupTimes::total).sum();
    done.len() < 3 || (spent < 2.0 && done.len() < 25)
}

/// The layer a failed query is charged to, keyed by `QueryError::stage()`.
pub fn failure_layer(e: &QueryError) -> &'static str {
    match e {
        QueryError::Exec(ExecError::Cancelled | ExecError::Timeout { .. }) => "engine",
        QueryError::Exec(_) => "store",
        QueryError::Stage { stage, .. } => match *stage {
            "parse" | "normalize" | "interpret" => "xquery",
            "compile" => "compiler",
            "isolate" => "core",
            _ => "engine",
        },
    }
}

/// The layers `<layer>.failures` is reported for.
pub const LAYERS: [&str; 8] = [
    "xquery", "compiler", "core", "engine", "store", "xml", "data", "serve",
];

/// What the timed phase observed, with tracing off.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Per-query latency from text to serialized result, in ms.
    pub latencies_ms: Vec<f64>,
    /// Wall time of the timed phase, in seconds.
    pub wall_s: f64,
    /// Queries attempted and typed errors (including admission).
    pub attempted: u64,
    pub errors: u64,
    /// Set-up times of each repetition.
    pub setups: Vec<SetupTimes>,
    /// Peak RSS before the oracle ran, in MiB.
    pub peak_rss_mb: f64,
}

/// The `end_to_end` metrics, in `BENCHMARK.json` order.  Latencies cover
/// every attempt, failed ones too; throughput counts completed queries.
pub fn end_to_end_metrics(e: &EndToEnd) -> Vec<Metric> {
    let mut lat = e.latencies_ms.clone();
    lat.sort_by(f64::total_cmp);
    let n = lat.len();
    let completed = e.attempted - e.errors;
    let setup: Vec<f64> = e.setups.iter().map(SetupTimes::total).collect();
    vec![
        metric("latency_p50_ms", quantile(&lat, 0.50), "ms", n),
        metric("latency_p95_ms", quantile(&lat, 0.95), "ms", n),
        metric(
            "throughput_qps",
            completed as f64 / e.wall_s,
            "1/s",
            completed as usize,
        ),
        metric("setup_s", median(&setup), "s", setup.len()),
        metric("peak_rss_mb", e.peak_rss_mb, "MiB", 1),
    ]
}

/// Rates that are zero on a healthy run, printed beside the metrics.
pub fn rate_metrics(e: &EndToEnd, t: &Tally) -> Vec<Metric> {
    let n = e.attempted.max(1) as f64;
    let samples = e.attempted as usize;
    vec![
        metric("error_rate", e.errors as f64 / n, "ratio", samples),
        metric(
            "wrong_result_rate",
            (t.wrong + t.sequence_order) as f64 / n,
            "ratio",
            samples,
        ),
    ]
}

/// Everything the traced phase observed.
#[derive(Default)]
pub struct Traced {
    /// Spans of every traced query.
    pub tracer: Option<Tracer>,
    /// Summed counters of the traced queries that succeeded.
    pub counters: Counters,
    /// Failures per layer.
    pub failures: BTreeMap<&'static str, u64>,
    /// Paired end-to-end time of the traced and the untraced runs of the
    /// same texts, in ns.
    pub traced_ns: u64,
    pub untraced_ns: u64,
    /// Admission counters over the phase (serving workload only).
    pub admitted: u64,
    pub queued: u64,
    /// Admission grants seen by the clients, and how many were smaller
    /// than the session asked for (serving workload only).
    pub grants: u64,
    pub reduced_grants: u64,
    /// Client round trip minus server-side `Engine::execute` work, per
    /// request, in ns (serving workload only).
    pub roundtrip_overhead_ns: Vec<u64>,
}

/// The `per_layer` metrics, in `BENCHMARK.json` order.
pub fn per_layer_metrics(
    t: &Traced,
    setups: &[SetupTimes],
    tally: &Tally,
    attempted: u64,
) -> Vec<Metric> {
    let tracer = t.tracer.as_ref().expect("traced phase ran");
    let per_query = tracer.per_query();
    let n = per_query.len();
    let nf = n.max(1) as f64;
    let mean_us = |name: &str| -> f64 {
        per_query
            .values()
            .map(|(_, spans)| spans.get(name).copied().unwrap_or(0))
            .sum::<u64>() as f64
            / nf
            / 1e3
    };
    let unattributed_us = per_query
        .values()
        .map(|(_, spans)| {
            let root = spans.get("query").copied().unwrap_or(0) as i64;
            let children: i64 = spans
                .iter()
                .filter(|(k, _)| **k != "query")
                .map(|(_, v)| *v as i64)
                .sum();
            root - children
        })
        .sum::<i64>() as f64
        / nf
        / 1e3;
    let c = &t.counters;
    let per = |x: usize| x as f64 / nf;
    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let setup_median =
        |f: fn(&SetupTimes) -> f64| -> f64 { median(&setups.iter().map(f).collect::<Vec<_>>()) };
    let reps = setups.len();
    let overhead_ns = &t.roundtrip_overhead_ns;
    let mut m = vec![
        metric("xquery.parse_us", mean_us("parse"), "us", n),
        metric("xquery.normalize_us", mean_us("normalize"), "us", n),
        metric("compiler.compile_us", mean_us("compile"), "us", n),
        metric("compiler.stacked_ops", per(c.stacked_ops), "count", n),
        metric("core.decompose_us", mean_us("decompose_sequences"), "us", n),
        metric("core.simplify_us", mean_us("simplify"), "us", n),
        metric(
            "core.rewrite_applications",
            per(c.rewrite_applications),
            "count",
            n,
        ),
        metric("core.simplified_ops", per(c.simplified_ops), "count", n),
        metric("core.isolate_us", mean_us("isolate"), "us", n),
        metric("core.join_aliases", per(c.join_aliases), "count", n),
        // The comma-sequence order defect: `decompose_sequences` splits the
        // branches, and the relational result concatenates them.
        metric(
            "core.sequence_order_rate",
            ratio(tally.sequence_order as usize, attempted as usize),
            "ratio",
            attempted as usize,
        ),
        metric(
            "core.result_map_us",
            mean_us("result_items_from_sql"),
            "us",
            n,
        ),
        metric(
            "engine.optimize_us",
            mean_us("optimize_cached") + mean_us("execute_prepared_shared_other"),
            "us",
            n,
        ),
        metric(
            "engine.plan_cache_hit_ratio",
            ratio(c.plan_hits, c.plan_lookups),
            "ratio",
            c.plan_lookups,
        ),
        metric("engine.execute_us", mean_us("run"), "us", n),
        metric("engine.explain_us", mean_us("explain"), "us", n),
        metric(
            "engine.rows_examined_per_result",
            ratio(c.rows_examined, c.results),
            "ratio",
            n,
        ),
        metric("engine.probes", per(c.probes), "count", n),
        metric("engine.kernel_rows", per(c.kernel_rows), "count", n),
        metric(
            "store.postings_hit_ratio",
            ratio(c.postings_hits, c.postings_lookups),
            "ratio",
            c.postings_lookups,
        ),
        metric(
            "store.build_cache_hit_ratio",
            ratio(c.build_hits, c.builds),
            "ratio",
            c.builds,
        ),
        metric("store.spill_bytes", per(c.spill_bytes), "bytes", n),
        metric("store.spill_retries", per(c.spill_retries), "count", n),
        metric("store.admission_wait_us", mean_us("admit"), "us", n),
        metric(
            "store.admission_queued_ratio",
            ratio(t.queued as usize, t.admitted as usize),
            "ratio",
            t.admitted as usize,
        ),
        metric(
            "store.reduced_grant_ratio",
            ratio(t.reduced_grants as usize, t.grants as usize),
            "ratio",
            t.grants as usize,
        ),
        metric(
            "store.index_build_s",
            setup_median(|s| s.index_build_s),
            "s",
            reps,
        ),
        metric("xml.serialize_us", mean_us("serialize_nodes"), "us", n),
        metric("xml.serialized_nodes", per(c.serialized_nodes), "count", n),
        metric(
            "xml.node_count_us",
            mean_us("serialized_node_count"),
            "us",
            n,
        ),
        metric("xml.encode_s", setup_median(|s| s.encode_s), "s", reps),
        metric("data.generate_s", setup_median(|s| s.generate_s), "s", reps),
        metric(
            "serve.roundtrip_overhead_us",
            if overhead_ns.is_empty() {
                0.0
            } else {
                overhead_ns.iter().sum::<u64>() as f64 / overhead_ns.len() as f64 / 1e3
            },
            "us",
            overhead_ns.len(),
        ),
        metric("serve.start_s", setup_median(|s| s.server_s), "s", reps),
    ];
    for layer in LAYERS {
        let f = t.failures.get(layer).copied().unwrap_or(0);
        m.push(metric(&format!("{layer}.failures"), f as f64, "count", n));
    }
    let overhead_pct = if t.untraced_ns == 0 {
        0.0
    } else {
        (t.traced_ns as f64 / t.untraced_ns as f64 - 1.0) * 100.0
    };
    m.push(metric("trace.overhead_pct", overhead_pct, "%", n));
    m.push(metric("trace.unattributed_us", unattributed_us, "us", n));
    m
}

/// Per template tag, the median of each span name over its queries, in µs
/// (the per-phase table the ROADMAP compares Table IX shapes with).
pub fn phase_medians(tracer: &Tracer) -> BTreeMap<&'static str, BTreeMap<&'static str, f64>> {
    let mut by_tag: BTreeMap<&'static str, BTreeMap<&'static str, Vec<f64>>> = BTreeMap::new();
    for (tag, spans) in tracer.per_query().values() {
        let entry = by_tag.entry(tag).or_default();
        for (name, ns) in spans {
            entry.entry(name).or_default().push(*ns as f64 / 1e3);
        }
    }
    by_tag
        .into_iter()
        .map(|(tag, names)| {
            (
                tag,
                names
                    .into_iter()
                    .map(|(name, v)| (name, median(&v)))
                    .collect(),
            )
        })
        .collect()
}

/// Share of the summed per-query latency spent in each layer, in percent.
/// Keys are `<layer>.<call>`, e.g. `core.simplify`, `engine.run`.
pub fn layer_shares(tracer: &Tracer) -> BTreeMap<String, f64> {
    let mut total = 0u64;
    let mut by_call: BTreeMap<String, u64> = BTreeMap::new();
    for s in tracer.spans() {
        if s.parent.is_none() {
            total += s.dur_ns;
        } else {
            let key = format!("{}.{}", crate::trace::layer_of(s.name), s.name);
            *by_call.entry(key).or_default() += s.dur_ns;
        }
    }
    by_call
        .into_iter()
        .map(|(k, v)| (k, v as f64 * 100.0 / total.max(1) as f64))
        .collect()
}

/// Everything a workload run produced.
pub struct Outcome {
    /// End-to-end observations (latencies only when tracing is off).
    pub e2e: EndToEnd,
    /// Oracle verdicts.
    pub tally: Tally,
    /// Texts that disagreed with the oracle.
    pub problems: Vec<String>,
    /// The traced phase.
    pub traced: Traced,
    /// Texts whose traced and untraced answers differ.
    pub mismatched_traces: Vec<String>,
    /// The pinned configuration the run executed under.
    pub config: String,
}
