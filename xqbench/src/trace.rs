//! In-memory spans recorded around the calls the benchmark makes into each
//! crate.  Nothing here reaches inside the program: a span brackets one
//! public function call, and the spans of one query share its id.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Query id (unique within a run).
    pub qid: u64,
    /// Span id within the query; the root span of a query has id 0.
    pub id: u32,
    /// Parent span id (`None` for the root).
    pub parent: Option<u32>,
    /// Name of the bracketed call.
    pub name: &'static str,
    /// Template tag of the query.
    pub tag: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Span buffer of one thread (merged at the end of the run).
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

/// The layer each span name belongs to.
pub fn layer_of(name: &str) -> &'static str {
    match name {
        "parse" | "normalize" => "xquery",
        "compile" => "compiler",
        "decompose_sequences" | "simplify" | "isolate" | "result_items_from_sql" => "core",
        "optimize_cached" | "run" | "explain" | "execute_prepared_shared_other" => "engine",
        "admit" => "store",
        "serialize_nodes" | "serialized_node_count" => "xml",
        "render" => "serve",
        _ => "query",
    }
}

impl Tracer {
    /// An empty buffer whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span that ran from `start` for `dur_ns`.
    pub fn record(
        &mut self,
        qid: u64,
        parent: Option<u32>,
        name: &'static str,
        tag: &'static str,
        start: Instant,
        dur_ns: u64,
    ) -> u32 {
        let id = match parent {
            None => 0,
            Some(_) => self.spans.iter().rev().take_while(|s| s.qid == qid).count() as u32 + 1,
        };
        let start_ns = self.ns(start);
        self.spans.push(Span {
            qid,
            id,
            parent,
            name,
            tag,
            start_ns,
            dur_ns,
        });
        id
    }

    /// Run `f` inside a child span of the query's root.
    pub fn time<T>(
        &mut self,
        qid: u64,
        name: &'static str,
        tag: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed().as_nanos() as u64;
        self.record(qid, Some(0), name, tag, start, dur);
        out
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another thread's spans.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Tab-separated dump, one span a line.
    pub fn dump(&self) -> String {
        let mut out = String::from("qid\tspan\tparent\ttag\tlayer\tname\tstart_ns\tdur_ns\n");
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.qid,
                s.id,
                parent,
                s.tag,
                layer_of(s.name),
                s.name,
                s.start_ns,
                s.dur_ns
            );
        }
        out
    }

    /// Give spans recorded without a tag (server side) the tag of their
    /// query's root span (client side).
    pub fn retag_from_roots(&mut self) {
        let tags: std::collections::HashMap<u64, &'static str> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.qid, s.tag))
            .collect();
        for s in &mut self.spans {
            if s.tag.is_empty() {
                s.tag = tags.get(&s.qid).copied().unwrap_or("");
            }
        }
    }

    /// Per-query totals of each span name (root spans under `"query"`).
    pub fn per_query(&self) -> BTreeMap<u64, (&'static str, BTreeMap<&'static str, u64>)> {
        let mut out: BTreeMap<u64, (&'static str, BTreeMap<&'static str, u64>)> = BTreeMap::new();
        for s in &self.spans {
            let entry = out.entry(s.qid).or_insert_with(|| (s.tag, BTreeMap::new()));
            let key = if s.parent.is_none() { "query" } else { s.name };
            *entry.1.entry(key).or_insert(0) += s.dur_ns;
        }
        out
    }
}

/// Which side of a traced/untraced pair runs first, for the `occurrence`-th
/// pair of `text`.  The first of a pair can warm caches for the second, so
/// a text that recurs alternates sides, starting on a side its hash picks.
pub fn traced_first(text: &str, occurrence: u64) -> bool {
    (crate::util::fnv1a(text.bytes()) + occurrence).is_multiple_of(2)
}
