//! The two single-client workloads, `adhoc-small` and `repeat-large`: one
//! closed-loop client calling the `Processor` API directly.

use std::time::Instant;

use xqjg_core::Processor;

use crate::gen::{repeat_pool, table_ix, AdhocStream, Dataset, GenQuery, ADHOC_FAMILIES};
use crate::oracle::Checker;
use crate::pipeline::{load, oracle, run_traced, run_untraced, Counters, SetupTimes};
use crate::report::{another_setup, failure_layer, EndToEnd, Outcome, Traced};
use crate::trace::{traced_first, Tracer};
use crate::util::{exec_config, peak_rss_mb, spill_dir};
use crate::Args;

/// Shape of one single-client workload.
pub struct Spec {
    /// Scale factor of both documents.
    pub scale: f64,
    /// Degree of parallelism of every execution.
    pub threads: usize,
    /// Whether every text is new (cold, compile-bound) or a fixed pool is
    /// cycled (warm, execution-bound).
    pub adhoc: bool,
}

/// `adhoc-small`: distinct texts at scale 0.1, DOP 1.
pub const ADHOC_SMALL: Spec = Spec {
    scale: 0.1,
    threads: 1,
    adhoc: true,
};

/// `repeat-large`: a fixed pool at scale 5, DOP 2.
pub const REPEAT_LARGE: Spec = Spec {
    scale: 5.0,
    threads: 2,
    adhoc: false,
};

/// The two processors of a workload.
pub struct Docs {
    xmark: Processor,
    dblp: Processor,
}

impl Docs {
    fn get(&mut self, ds: Dataset) -> &mut Processor {
        match ds {
            Dataset::Xmark => &mut self.xmark,
            Dataset::Dblp => &mut self.dblp,
        }
    }
}

fn set_up(spec: &Spec) -> (Docs, SetupTimes) {
    let cfg = exec_config(spec.threads, None, &spill_dir());
    let (xmark, mut t) = load(Dataset::Xmark, spec.scale, &cfg);
    let (dblp, td) = load(Dataset::Dblp, spec.scale, &cfg);
    t.add(&td);
    (Docs { xmark, dblp }, t)
}

/// The query source of a run.
enum Source {
    Adhoc(AdhocStream),
    Pool { pool: Vec<GenQuery>, next: usize },
}

impl Source {
    fn next(&mut self) -> GenQuery {
        match self {
            Source::Adhoc(s) => s.next().expect("the ad-hoc stream is endless"),
            Source::Pool { pool, next } => {
                let q = pool[*next % pool.len()].clone();
                *next += 1;
                q
            }
        }
    }

    /// Has the source just finished a round (ad hoc) or a cycle (pool)?
    /// Timed phases end only there, so every run has the same shape mix.
    fn at_boundary(&self) -> bool {
        match self {
            Source::Adhoc(s) => s.at_round_boundary(),
            Source::Pool { pool, next } => next % pool.len() == 0,
        }
    }
}

/// Warm-up queries and the measured source for `seed`.  The ad-hoc warm-up
/// is one round of other texts from the same families, so the measured
/// texts stay plan-cache misses; the pool warm-up is two full cycles.
fn sources(spec: &Spec, seed: u64) -> (Vec<GenQuery>, Source) {
    if spec.adhoc {
        let warm: Vec<GenQuery> = AdhocStream::new(seed ^ 0xa5a5_a5a5)
            .take(ADHOC_FAMILIES.len())
            .collect();
        let mut stream = AdhocStream::new(seed);
        stream.exclude(warm.iter().map(|q| q.text.clone()));
        // The measured stream opens with the six Table IX texts verbatim.
        let mut lead = table_ix();
        lead.retain(|q| !warm.iter().any(|w| w.text == q.text));
        stream.lead_with(lead);
        (warm, Source::Adhoc(stream))
    } else {
        // The seed picks where the cycle starts; the cyclic order itself is
        // fixed, because it decides what each query finds in the caches.
        let mut pool = repeat_pool();
        let start = (seed % pool.len() as u64) as usize;
        pool.rotate_left(start);
        let warm = pool.iter().chain(&pool).cloned().collect();
        (warm, Source::Pool { pool, next: 0 })
    }
}

/// Run a single-client workload.
pub fn run(spec: &Spec, args: &Args) -> Outcome {
    let mut e2e = EndToEnd::default();
    let mut docs = None;
    while another_setup(&e2e.setups) {
        drop(docs.take());
        let (d, t) = set_up(spec);
        e2e.setups.push(t);
        docs = Some(d);
    }
    let mut docs = docs.expect("at least one set-up");
    let (warm, mut source) = sources(spec, args.seed);
    for q in &warm {
        let _ = run_untraced(docs.get(q.dataset), &q.text);
    }
    let mut checker = Checker::default();
    let mut traced = Traced::default();
    let mut mismatched_traces = Vec::new();
    if args.trace {
        // Paired runs: each text traced and untraced, in alternating order.
        // Ad-hoc texts must stay cold on both sides, so the untraced twin
        // gets documents (and caches) of its own.
        let mut twin = spec.adhoc.then(|| set_up(spec).0);
        let epoch = Instant::now();
        let mut tracer = Tracer::new(epoch);
        let start = Instant::now();
        let mut qid = 0u64;
        let mut pairs = std::collections::HashMap::new();
        while start.elapsed().as_secs_f64() < args.seconds || !source.at_boundary() {
            let q = source.next();
            qid += 1;
            let mut untraced_run = |docs: &mut Docs| {
                let target = twin.as_mut().unwrap_or(docs).get(q.dataset);
                let t = Instant::now();
                let out = run_untraced(target, &q.text);
                (out, t.elapsed().as_nanos() as u64)
            };
            let occurrence = pairs.entry(q.text.clone()).or_insert(0u64);
            let first = traced_first(&q.text, *occurrence);
            *occurrence += 1;
            let pre = (!first).then(|| untraced_run(&mut docs));
            let t = Instant::now();
            let mut counters = Counters::default();
            let out = run_traced(
                docs.get(q.dataset),
                &q.text,
                qid,
                q.tag,
                &mut tracer,
                &mut counters,
            );
            let dur = t.elapsed().as_nanos() as u64;
            tracer.record(qid, None, "query", q.tag, t, dur);
            let (plain, plain_ns) = match pre {
                Some(p) => p,
                None => untraced_run(&mut docs),
            };
            traced.traced_ns += dur;
            traced.untraced_ns += plain_ns;
            e2e.attempted += 1;
            match (&out, &plain) {
                (Ok(a), Ok(b)) => {
                    traced.counters.add(&counters);
                    if a != b {
                        mismatched_traces.push(q.text.clone());
                    }
                    checker.record(&q, &a.items);
                }
                (Err(e), _) | (_, Err(e)) => {
                    e2e.errors += 1;
                    *traced.failures.entry(failure_layer(e)).or_default() += 1;
                }
            }
        }
        e2e.wall_s = start.elapsed().as_secs_f64();
        traced.tracer = Some(tracer);
        drop(twin);
    } else {
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < args.seconds || !source.at_boundary() {
            let q = source.next();
            let t = Instant::now();
            let out = run_untraced(docs.get(q.dataset), &q.text);
            e2e.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            e2e.attempted += 1;
            match out {
                Ok(a) => checker.record(&q, &a.items),
                Err(_) => e2e.errors += 1,
            }
        }
        e2e.wall_s = start.elapsed().as_secs_f64();
    }
    e2e.peak_rss_mb = peak_rss_mb();
    let (tally, problems) =
        checker.check(|_| false, |q| oracle(docs.get_ref(q.dataset), &q.text).ok());
    Outcome {
        e2e,
        tally,
        problems,
        traced,
        mismatched_traces,
        config: format!("{:?}", docs.xmark.exec_config()),
    }
}

impl Docs {
    fn get_ref(&self, ds: Dataset) -> &Processor {
        match ds {
            Dataset::Xmark => &self.xmark,
            Dataset::Dblp => &self.dblp,
        }
    }
}
