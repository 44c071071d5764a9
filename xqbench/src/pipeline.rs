//! Document set-up and the two ways the benchmark runs one query: through
//! the `Processor` API (untraced, the measured path) and as a replay of the
//! same public calls, each inside a span (traced).

use std::time::Instant;

use xqjg_compiler::compile;
use xqjg_core::{
    decompose_sequences, isolate_sfw, isolated_plan, result_items_from_sql, simplify, Mode,
    PreparedBranch, Processor, QueryError,
};
use xqjg_data::{generate_dblp, generate_xmark, DblpConfig, XmarkConfig};
use xqjg_engine::{explain_with_caches, optimize_cached, ExecCaches, ExecStats, QueryRequest};
use xqjg_store::{CancelToken, ExecConfig};
use xqjg_xml::{serialize_nodes, serialized_node_count, DocTable, Pre};
use xqjg_xquery::{normalize, parse};

use crate::gen::Dataset;
use crate::trace::Tracer;

/// Wall time of each set-up step, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Document generation (`xqjg-data`).
    pub generate_s: f64,
    /// Shredding into the `doc` encoding and loading it (`xqjg-xml`).
    pub encode_s: f64,
    /// Relational catalog and B-tree index build (`xqjg-store`).
    pub index_build_s: f64,
    /// Server start (`xqjg-serve`), where there is one.
    pub server_s: f64,
}

impl SetupTimes {
    /// Everything together.
    pub fn total(&self) -> f64 {
        self.generate_s + self.encode_s + self.index_build_s + self.server_s
    }

    /// Add another document's times.
    pub fn add(&mut self, o: &SetupTimes) {
        self.generate_s += o.generate_s;
        self.encode_s += o.encode_s;
        self.index_build_s += o.index_build_s;
        self.server_s += o.server_s;
    }
}

/// URI a data set is loaded under.
pub fn uri(ds: Dataset) -> &'static str {
    match ds {
        Dataset::Xmark => "auction.xml",
        Dataset::Dblp => "dblp.xml",
    }
}

/// Generate, encode and index one document at `scale` (generator seeds
/// stay at their defaults, so stored oracle digests stay valid), with
/// `cfg` pinned on the processor.
pub fn load(ds: Dataset, scale: f64, cfg: &ExecConfig) -> (Processor, SetupTimes) {
    let t = Instant::now();
    let tree = match ds {
        Dataset::Xmark => generate_xmark(&XmarkConfig::with_scale(scale)),
        Dataset::Dblp => generate_dblp(&DblpConfig::with_scale(scale)),
    };
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let table = DocTable::from_document(uri(ds), &tree);
    drop(tree);
    let mut p = Processor::new();
    p.load_encoded(uri(ds), table);
    let encode_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    p.database();
    p.create_default_indexes();
    let index_build_s = t.elapsed().as_secs_f64();
    p.set_exec_config(Some(cfg.clone()));
    (
        p,
        SetupTimes {
            generate_s,
            encode_s,
            index_build_s,
            server_s: 0.0,
        },
    )
}

/// A query's result: items in order and their XML serialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// Result nodes in sequence order.
    pub items: Vec<Pre>,
    /// The serialized result.
    pub xml: String,
}

/// The measured path: `prepare`, `execute_prepared` in join-graph mode
/// under the processor's pinned configuration, `serialize`.
pub fn run_untraced(p: &mut Processor, text: &str) -> Result<Answer, QueryError> {
    let prepared = p.prepare(text)?;
    let out = p.execute_prepared(&prepared, Mode::JoinGraph)?;
    let xml = p.serialize(&out.items);
    Ok(Answer {
        items: out.items,
        xml,
    })
}

/// Deterministic work counters of one traced query.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Operators of the stacked plans (all branches).
    pub stacked_ops: usize,
    /// Rewrite-rule applications of `simplify`.
    pub rewrite_applications: usize,
    /// Operators left after `simplify`.
    pub simplified_ops: usize,
    /// FROM items of the isolated SQL blocks.
    pub join_aliases: usize,
    /// Plan-cache lookups and hits.
    pub plan_lookups: usize,
    pub plan_hits: usize,
    /// Rows produced by index and table scans.
    pub rows_examined: usize,
    /// Index and hash probes.
    pub probes: usize,
    /// Rows pushed through the typed kernels.
    pub kernel_rows: usize,
    /// Bytes spilled and spill writes retried.
    pub spill_bytes: usize,
    pub spill_retries: usize,
    /// Posting-list lookups and hits.
    pub postings_lookups: usize,
    pub postings_hits: usize,
    /// Hash-join builds and build-cache hits.
    pub builds: usize,
    pub build_hits: usize,
    /// Result items and serialized nodes.
    pub results: usize,
    pub serialized_nodes: usize,
}

impl Counters {
    /// Fold in one execution's operator counters.
    pub fn add_exec(&mut self, stats: &ExecStats) {
        self.rows_examined += stats.index_rows + stats.scan_rows;
        self.probes += stats.probes;
        for op in &stats.operators {
            self.kernel_rows += op.kernel_rows;
            self.spill_bytes += op.spill_bytes;
            self.spill_retries += op.retries;
            if op.name.starts_with("HSJOIN") {
                self.builds += 1;
            }
        }
    }

    /// Sum another query's counters into this one.
    pub fn add(&mut self, o: &Counters) {
        self.stacked_ops += o.stacked_ops;
        self.rewrite_applications += o.rewrite_applications;
        self.simplified_ops += o.simplified_ops;
        self.join_aliases += o.join_aliases;
        self.plan_lookups += o.plan_lookups;
        self.plan_hits += o.plan_hits;
        self.rows_examined += o.rows_examined;
        self.probes += o.probes;
        self.kernel_rows += o.kernel_rows;
        self.spill_bytes += o.spill_bytes;
        self.spill_retries += o.spill_retries;
        self.postings_lookups += o.postings_lookups;
        self.postings_hits += o.postings_hits;
        self.builds += o.builds;
        self.build_hits += o.build_hits;
        self.results += o.results;
        self.serialized_nodes += o.serialized_nodes;
    }
}

fn stage(stage: &'static str, e: impl std::fmt::Display) -> QueryError {
    QueryError::Stage {
        stage,
        message: e.to_string(),
    }
}

/// The prepare half of the replay: the calls `Processor::prepare` makes,
/// in its order, each in a span.
pub fn prepare_traced(
    default_doc: Option<&str>,
    text: &str,
    qid: u64,
    tag: &'static str,
    tr: &mut Tracer,
    c: &mut Counters,
) -> Result<xqjg_core::Prepared, QueryError> {
    let ast = tr
        .time(qid, "parse", tag, || parse(text))
        .map_err(|e| stage("parse", e))?;
    let core = tr
        .time(qid, "normalize", tag, || normalize(&ast, default_doc))
        .map_err(|e| stage("normalize", e))?;
    let branch_cores = tr.time(qid, "decompose_sequences", tag, || {
        decompose_sequences(&core)
    });
    let mut branches = Vec::with_capacity(branch_cores.len());
    for bc in branch_cores {
        let stacked = tr
            .time(qid, "compile", tag, || compile(&bc))
            .map_err(|e| stage("compile", e))?
            .plan;
        let (simplified, rewrite_report) = tr.time(qid, "simplify", tag, || {
            let mut simplified = stacked.clone();
            let report = simplify(&mut simplified);
            (simplified, report)
        });
        let (isolated, iso_plan) = tr
            .time(qid, "isolate", tag, || {
                isolate_sfw(&simplified).map(|iso| {
                    let plan = isolated_plan(&iso);
                    (iso, plan)
                })
            })
            .map_err(|e| stage("isolate", e))?;
        c.stacked_ops += stacked.size();
        c.rewrite_applications += rewrite_report.applications;
        c.simplified_ops += rewrite_report.ops_after;
        c.join_aliases += isolated.query.from.len();
        branches.push(PreparedBranch {
            core: bc,
            stacked,
            simplified,
            rewrite_report,
            isolated,
            isolated_plan: iso_plan,
        });
    }
    Ok(xqjg_core::Prepared { core, branches })
}

/// The whole replay: [`prepare_traced`], then the calls
/// `Processor::execute_prepared_shared` makes in join-graph mode, then
/// serialization.  Returns the same [`Answer`] as [`run_untraced`] and adds
/// the query's work counters to `c`.
pub fn run_traced(
    p: &mut Processor,
    text: &str,
    qid: u64,
    tag: &'static str,
    tr: &mut Tracer,
    c: &mut Counters,
) -> Result<Answer, QueryError> {
    let default_doc = p.default_document().map(str::to_string);
    let prepared = prepare_traced(default_doc.as_deref(), text, qid, tag, tr, c)?;
    let cfg = p.exec_config();
    let caches = p.caches().clone();
    let cancel = CancelToken::new();
    let fingerprint = cfg.cache_fingerprint();
    let db = p.database();
    let mut plans = Vec::with_capacity(prepared.branches.len());
    for b in &prepared.branches {
        let (plan, hit) = tr
            .time(qid, "optimize_cached", tag, || {
                optimize_cached(&b.isolated.query, db, caches.plans(), &fingerprint)
            })
            .map_err(|e| stage("optimize", e))?;
        c.plan_lookups += 1;
        c.plan_hits += hit as usize;
        plans.push((plan, hit));
    }
    let exec_caches = ExecCaches {
        builds: Some(caches.builds()),
        postings: Some(caches.postings()),
    };
    let mut items = Vec::new();
    let mut actuals = Vec::with_capacity(plans.len());
    for (b, (plan, hit)) in prepared.branches.iter().zip(&plans) {
        let out = tr
            .time(qid, "run", tag, || {
                QueryRequest::new(plan, db)
                    .config(&cfg)
                    .caches(exec_caches)
                    .cancel(&cancel)
                    .run()
            })
            .map_err(QueryError::Exec)?;
        c.add_exec(&out.stats);
        c.postings_hits += out.cache_actuals.postings_hits;
        c.postings_lookups += out.cache_actuals.postings_lookups;
        c.build_hits += out.cache_actuals.build_hits;
        let mut a = out.cache_actuals;
        a.plan_cache = Some(*hit);
        items.extend(tr.time(qid, "result_items_from_sql", tag, || {
            result_items_from_sql(&out.rows, &b.isolated)
        }));
        actuals.push((out.stats, a));
    }
    // `execute_prepared_shared` renders EXPLAIN for every execution; the
    // replay does the same work so both paths cost the same.
    let explains: Vec<String> = tr.time(qid, "explain", tag, || {
        plans
            .iter()
            .zip(&actuals)
            .map(|((plan, _), (s, a))| explain_with_caches(plan, s, a))
            .collect()
    });
    drop(explains);
    let doc = p.doc();
    c.serialized_nodes += tr.time(qid, "serialized_node_count", tag, || {
        serialized_node_count(doc, &items)
    });
    let xml = tr.time(qid, "serialize_nodes", tag, || serialize_nodes(doc, &items));
    c.results += items.len();
    Ok(Answer { items, xml })
}

/// Run the interpreter oracle for `text`.
pub fn oracle(p: &Processor, text: &str) -> Result<Vec<Pre>, QueryError> {
    let prepared = p.prepare(text)?;
    let out = p.execute_prepared_shared(
        &prepared,
        Mode::Interpreter,
        &p.exec_config(),
        &CancelToken::new(),
    )?;
    Ok(out.items)
}
