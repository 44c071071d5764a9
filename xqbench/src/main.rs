//! `xqbench` — the end-to-end benchmark of the XQuery processor: XQuery
//! text in, serialized items out.
//!
//! ```text
//! cargo run --release --manifest-path xqbench/Cargo.toml -- \
//!     --workload adhoc-small|repeat-large|serve-tight --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path xqbench/Cargo.toml -- --write-digests
//! ```
//!
//! Run it from the repository root.  With `--trace 0` it measures the
//! end-to-end metrics; with `--trace 1` it replays every query call by
//! call with spans and reports the per-layer metrics.  Either way every
//! result is checked against the interpreter oracle, the last line of
//! standard output is one JSON object, and `xqbench/out/` receives the
//! run's metadata (pinned configuration, `nproc`, revision), per-tag phase
//! medians and, when traced, the spans.  See `xqbench/WORKLOADS.md`.

mod gen;
mod oracle;
mod pipeline;
mod report;
mod serve;
mod single;
mod trace;
mod util;

use std::fmt::Write as _;
use std::process::ExitCode;

use crate::report::{
    end_to_end_metrics, layer_shares, per_layer_metrics, phase_medians, rate_metrics,
};
use crate::util::{json_num, json_str, result_line, Metric};

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Replay with spans and report per-layer metrics.
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["adhoc-small", "repeat-large", "serve-tight"];

fn parse_args() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--write-digests" => return Ok(None),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// Recompute `xqbench/digests.txt` with the interpreter.
fn write_digests() -> ExitCode {
    let cfg = util::exec_config(1, None, &util::spill_dir());
    let (p, _) = pipeline::load(gen::Dataset::Xmark, serve::SCALE, &cfg);
    let mut out = String::new();
    for price in gen::SERVE_Q2_PRICES {
        let text = gen::q2_variant(price);
        let items = pipeline::oracle(&p, &text).expect("the interpreter runs Q2");
        let line = oracle::digest_line(&text, &items);
        eprintln!("{line}");
        out.push_str(&line);
        out.push('\n');
    }
    std::fs::write("xqbench/digests.txt", out).expect("write xqbench/digests.txt");
    ExitCode::SUCCESS
}

fn metrics_json(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit),
                m.samples
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let scrubbed = util::scrub_env();
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return write_digests(),
        Err(msg) => {
            eprintln!("xqbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let spill = util::spill_dir();
    if let Err(e) = std::fs::create_dir_all(&spill) {
        eprintln!("xqbench: cannot create {}: {e}", spill.display());
        return ExitCode::FAILURE;
    }
    let outcome = match args.workload.as_str() {
        "adhoc-small" => single::run(&single::ADHOC_SMALL, &args),
        "repeat-large" => single::run(&single::REPEAT_LARGE, &args),
        _ => serve::run(&args),
    };
    let _ = std::fs::remove_dir_all(&spill);

    let e2e = &outcome.e2e;
    let t = &outcome.tally;
    let failed = e2e.errors + t.wrong;
    // A typed error fails the run like a wrong answer does: on a healthy
    // run every query of every workload succeeds.
    let correct = e2e.errors == 0
        && t.wrong == 0
        && outcome.mismatched_traces.is_empty()
        && e2e.attempted > 0;
    let metrics = if args.trace {
        per_layer_metrics(&outcome.traced, &e2e.setups, t, e2e.attempted)
    } else {
        end_to_end_metrics(e2e)
    };
    let rates = rate_metrics(e2e, t);

    let revision = util::git_revision();
    let config = &outcome.config;
    println!(
        "# xqbench workload={} seed={} seconds={} trace={} nproc={} revision={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        util::nproc(),
        revision
    );
    println!("# config {config}");
    if !scrubbed.is_empty() {
        println!("# ignored environment: {}", scrubbed.join(" "));
    }
    for m in metrics.iter().chain(&rates) {
        println!(
            "# {:<34} {:>14.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "# oracle: {} distinct texts ({} via stored digest); executions matched={} sequence-order={} wrong={}; errors={}",
        t.texts, t.digest_checked, t.matched, t.sequence_order, t.wrong, e2e.errors
    );
    for p in &outcome.problems {
        println!("# oracle mismatch: {p}");
    }
    for text in &outcome.mismatched_traces {
        println!("# traced and untraced answers differ: {text}");
    }

    let mut file = String::new();
    let _ = write!(
        file,
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"revision\": {}, \"config\": {}, \"ignored_env\": [{}], ",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        util::nproc(),
        json_str(&revision),
        json_str(config),
        scrubbed.iter().map(|s| json_str(s)).collect::<Vec<_>>().join(", ")
    );
    let _ = write!(
        file,
        "\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}, \"rates\": {}",
        e2e.attempted,
        metrics_json(&metrics),
        metrics_json(&rates)
    );
    if !e2e.latencies_ms.is_empty() {
        let mut lat = e2e.latencies_ms.clone();
        lat.sort_by(f64::total_cmp);
        let qs: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0]
            .iter()
            .map(|&q| format!("\"{q}\": {}", json_num(util::quantile(&lat, q))))
            .collect();
        let _ = write!(file, ", \"latency_quantiles_ms\": {{{}}}", qs.join(", "));
    }
    if let Some(tracer) = outcome.traced.tracer.as_ref() {
        let shares = layer_shares(tracer);
        let printed: Vec<String> = shares
            .iter()
            .filter(|(_, v)| **v >= 0.05)
            .map(|(k, v)| format!("{k}={v:.1}%"))
            .collect();
        println!("# share of traced latency: {}", printed.join(" "));
        let shares: Vec<String> = shares
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
            .collect();
        let medians: Vec<String> = phase_medians(tracer)
            .into_iter()
            .map(|(tag, phases)| {
                let inner: Vec<String> = phases
                    .into_iter()
                    .map(|(k, v)| format!("{}: {}", json_str(k), json_num(v)))
                    .collect();
                format!("{}: {{{}}}", json_str(tag), inner.join(", "))
            })
            .collect();
        let _ = write!(
            file,
            ", \"layer_share_pct\": {{{}}}, \"phase_median_us\": {{{}}}",
            shares.join(", "),
            medians.join(", ")
        );
        let spans_path = format!("xqbench/out/spans-{}-seed{}.tsv", args.workload, args.seed);
        if let Err(e) = std::fs::write(&spans_path, tracer.dump()) {
            eprintln!("xqbench: cannot write {spans_path}: {e}");
        }
    }
    file.push_str("}\n");
    let result_path = format!(
        "xqbench/out/result-{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    );
    if let Err(e) = std::fs::write(&result_path, file) {
        eprintln!("xqbench: cannot write {result_path}: {e}");
    }
    println!("{}", result_line(correct, e2e.attempted, failed, &metrics));
    ExitCode::SUCCESS
}
