//! `serve-tight`: one `xqjg-serve` server in this process, two closed-loop
//! line-protocol connections, and a global memory budget small enough
//! that admission queues queries, hands out reduced grants, and the SORT
//! and HSJOIN breakers spill.
//!
//! The traced run sends the same traffic to a second listener instead,
//! whose connection handler replays what the server does for a `QUERY`
//! line — `Processor::prepare`'s calls, `AdmissionController::admit`,
//! `Processor::execute_prepared_shared`, `Response::render_line` — through
//! the same public functions, each inside a span, over the same `Engine`.
//! Afterwards a sample of the texts goes to both listeners, and the two
//! answers must be byte-equal.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use xqjg_core::QueryError;
use xqjg_serve::protocol::dispatch;
use xqjg_serve::{Engine, QueryResult, Response, ServeError, Server};
use xqjg_xml::Pre;

use crate::gen::{serve_recurring, Dataset, GenQuery, ServeStream};
use crate::oracle::Checker;
use crate::pipeline::{load, oracle, prepare_traced, Counters, SetupTimes};
use crate::report::{another_setup, failure_layer, EndToEnd, Outcome, Traced};
use crate::trace::{traced_first, Tracer};
use crate::util::{admission_config, exec_config, peak_rss_mb, spill_dir};
use crate::Args;

/// Scale of the served XMark instance.
pub const SCALE: f64 = 0.5;
/// Global admission budget shared by all sessions, in bytes.
pub const GLOBAL_BUDGET: usize = 16 << 10;
/// Admission slots; the fair-share floor is `GLOBAL_BUDGET / MAX_SESSIONS`.
pub const MAX_SESSIONS: usize = 3;
/// Per-query memory demand of each connection's session.  The first asks
/// for more than the free budget while the second runs (reduced grant);
/// the second cannot start while the first holds its share (queued).
pub const SESSION_BUDGETS: [usize; 2] = [GLOBAL_BUDGET * 7 / 10, GLOBAL_BUDGET * 4 / 10];
/// Distinct texts the traced run re-sends to both listeners to check that
/// their answers are byte-equal and to measure the tracing overhead.
pub const CALIBRATION_TEXTS: usize = 48;
/// Connection-worker threads of the server.
pub const WORKERS: usize = 2;

fn set_up() -> (Server, SetupTimes) {
    let cfg = exec_config(1, Some(SESSION_BUDGETS[1]), &spill_dir());
    let (p, mut t) = load(Dataset::Xmark, SCALE, &cfg);
    let start = Instant::now();
    let engine = Engine::new(p, cfg, admission_config(GLOBAL_BUDGET, MAX_SESSIONS));
    let server = Server::start(engine, "127.0.0.1:0", WORKERS).expect("bind a local port");
    t.server_s = start.elapsed().as_secs_f64();
    (server, t)
}

/// Q2 texts take the interpreter seconds at this scale; their oracle is
/// the stored digest.
pub fn slow_oracle(q: &GenQuery) -> bool {
    q.tag == "Q2"
}

/// A line-protocol client connection.
struct Conn {
    w: TcpStream,
    r: BufReader<TcpStream>,
    session: Option<u64>,
}

/// One decoded response.
enum Reply {
    /// Result items, the raw `ITEMS` line, and the admission grant.
    Items(Vec<Pre>, String, Option<usize>),
    Error(String),
    Ok,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let w = TcpStream::connect(addr).expect("connect to the local server");
        w.set_nodelay(true).expect("set TCP_NODELAY");
        let r = BufReader::new(w.try_clone().expect("clone the socket"));
        Conn {
            w,
            r,
            session: None,
        }
    }

    fn line(&mut self) -> String {
        let mut s = String::new();
        let n = self.r.read_line(&mut s).expect("read from the server");
        assert!(n > 0, "server closed the connection");
        s
    }

    fn request(&mut self, line: &str) -> Reply {
        self.w
            .write_all(format!("{line}\n").as_bytes())
            .expect("write to the server");
        let mut first = self.line();
        if let Some(rest) = first.strip_prefix("HELLO ") {
            self.session = rest
                .trim()
                .rsplit("session=")
                .next()
                .and_then(|s| s.parse().ok());
            first = self.line();
        }
        if first.starts_with("RESULT ") {
            let granted = first
                .split_whitespace()
                .find_map(|kv| kv.strip_prefix("granted="))
                .and_then(|g| g.parse().ok());
            let items_line = self.line();
            let end = self.line();
            assert_eq!(end.trim(), "END", "malformed RESULT framing");
            let items = items_line
                .trim()
                .strip_prefix("ITEMS")
                .expect("ITEMS line")
                .split_whitespace()
                .map(|p| Pre(p.parse().expect("numeric item")))
                .collect();
            Reply::Items(items, items_line, granted)
        } else if first.starts_with("ERR ") {
            Reply::Error(first.trim().to_string())
        } else {
            Reply::Ok
        }
    }
}

/// Per-connection record of the timed phase.
#[derive(Default)]
struct ClientLog {
    results: Vec<(GenQuery, Result<Vec<Pre>, String>)>,
    latencies_ms: Vec<f64>,
    tracer: Option<Tracer>,
    /// Admission grants seen, and how many were below the session's demand.
    grants: u64,
    reduced: u64,
}

/// One closed-loop connection: send the next text as soon as the previous
/// answer is in.  Against the replay listener, the client also records
/// each request's root span (its round trip).
fn client(addr: SocketAddr, conn_no: usize, args: &Args, epoch: Instant) -> ClientLog {
    let mut log = ClientLog::default();
    let mut conn = Conn::open(addr);
    conn.request(&format!("SET mem_budget {}", SESSION_BUDGETS[conn_no]));
    let sid = conn.session.expect("HELLO banner seen");
    let mut tracer = Tracer::new(epoch);
    let mut stream = ServeStream::new(args.seed, conn_no as u64);
    let start = Instant::now();
    let mut seq = 0u64;
    while start.elapsed().as_secs_f64() < args.seconds || !stream.at_round_boundary() {
        let q = stream.next().expect("the serve stream is endless");
        let t = Instant::now();
        let reply = conn.request(&format!("QUERY {}", q.text));
        let dur = t.elapsed();
        log.latencies_ms.push(dur.as_secs_f64() * 1e3);
        tracer.record(
            (sid << 40) | seq,
            None,
            "query",
            q.tag,
            t,
            dur.as_nanos() as u64,
        );
        seq += 1;
        if let Reply::Items(_, _, Some(g)) = &reply {
            log.grants += 1;
            log.reduced += (*g < SESSION_BUDGETS[conn_no]) as u64;
        }
        log.results.push((q, reply_result(reply)));
    }
    conn.request("QUIT");
    log.tracer = Some(tracer);
    log
}

/// After a traced phase: send every distinct text to the server and to the
/// replay listener, one after the other (which first, the text's hash
/// decides: the first can warm the plan cache for the second), and require
/// byte-equal `ITEMS` lines.  Returns the summed round trips (untraced,
/// traced) and the texts whose answers differ.
fn calibrate(real: SocketAddr, replay: SocketAddr, texts: &[String]) -> (u64, u64, Vec<String>) {
    let mut a = Conn::open(real);
    let mut b = Conn::open(replay);
    let set = format!("SET mem_budget {}", SESSION_BUDGETS[1]);
    a.request(&set);
    b.request(&set);
    let (mut plain_ns, mut traced_ns, mut differ) = (0, 0, Vec::new());
    for text in texts {
        let line = format!("QUERY {text}");
        let timed = |c: &mut Conn| {
            let t = Instant::now();
            let r = c.request(&line);
            (r, t.elapsed().as_nanos() as u64)
        };
        let (p, t) = if traced_first(text, 0) {
            let t = timed(&mut b);
            (timed(&mut a), t)
        } else {
            let p = timed(&mut a);
            (p, timed(&mut b))
        };
        plain_ns += p.1;
        traced_ns += t.1;
        let same = match (&p.0, &t.0) {
            (Reply::Items(_, x, _), Reply::Items(_, y, _)) => x == y,
            (Reply::Error(x), Reply::Error(y)) => x == y,
            _ => false,
        };
        if !same {
            differ.push(text.clone());
        }
    }
    a.request("QUIT");
    b.request("QUIT");
    (plain_ns, traced_ns, differ)
}

fn reply_result(r: Reply) -> Result<Vec<Pre>, String> {
    match r {
        Reply::Items(items, _, _) => Ok(items),
        Reply::Error(e) => Err(e),
        Reply::Ok => Err("unexpected OK".to_string()),
    }
}

/// Parse the `-- caches:` line of EXPLAIN blocks into counters.
fn cache_counters(explains: &[String], c: &mut Counters) {
    for block in explains {
        let Some(line) = block.lines().find_map(|l| l.strip_prefix("-- caches: ")) else {
            continue;
        };
        for part in line.split_whitespace() {
            match part.split_once('=') {
                Some(("plan_cache", v)) => {
                    c.plan_lookups += 1;
                    c.plan_hits += (v == "hit") as usize;
                }
                Some(("cache_hits", v)) => c.build_hits += v.parse().unwrap_or(0),
                Some(("postings", v)) => {
                    if let Some((h, l)) = v.split_once('/') {
                        c.postings_hits += h.parse().unwrap_or(0);
                        c.postings_lookups += l.parse().unwrap_or(0);
                    }
                }
                _ => {}
            }
        }
    }
}

/// What the replay handler of one connection observed.
#[derive(Default)]
struct HandlerLog {
    tracer: Option<Tracer>,
    counters: Counters,
    failures: Vec<&'static str>,
}

/// Serve one replay connection: `QUERY` lines are replayed with spans,
/// every other command goes through the server's own dispatcher.
fn replay_connection(engine: &Engine, stream: TcpStream, epoch: Instant) -> HandlerLog {
    let mut log = HandlerLog::default();
    let mut tracer = Tracer::new(epoch);
    let mut w = stream.try_clone().expect("clone the socket");
    let r = BufReader::new(stream);
    let mut session = engine.open_session();
    let mut banner = Some(format!("HELLO xqjg-serve/1 session={}\n", session.id()));
    let mut seq = 0u64;
    for line in r.lines() {
        let Ok(line) = line else { break };
        let cmd = line.trim();
        let (response, quit) = match cmd.strip_prefix("QUERY ") {
            Some(text) => {
                let qid = (session.id() << 40) | seq;
                seq += 1;
                let out = replay_query(engine, &session, text.trim(), qid, &mut tracer, &mut log);
                let response = match out {
                    Ok(r) => Response::Result(r),
                    Err(e) => {
                        log.failures.push(failure_layer(&e));
                        Response::Error(ServeError::from(e))
                    }
                };
                let rendered = tracer.time(qid, "render", "", || response.render_line());
                (rendered, false)
            }
            None => {
                let (r, quit) = dispatch(engine, &mut session, cmd);
                (r.render_line(), quit)
            }
        };
        let mut out = banner.take().unwrap_or_default();
        out.push_str(&response);
        if w.write_all(out.as_bytes()).is_err() || quit {
            break;
        }
    }
    engine.close_session(session.id());
    log.tracer = Some(tracer);
    log
}

/// `Engine::run` for one query, call by call.
fn replay_query(
    engine: &Engine,
    session: &xqjg_serve::Session,
    text: &str,
    qid: u64,
    tr: &mut Tracer,
    log: &mut HandlerLog,
) -> Result<QueryResult, QueryError> {
    session.cancel_token().clear();
    let p = engine.processor();
    let prepared = prepare_traced(p.default_document(), text, qid, "", tr, &mut log.counters)?;
    let permit = tr
        .time(qid, "admit", "", || {
            engine
                .admission()
                .admit(session.config().mem_budget, Some(session.cancel_token()))
        })
        .map_err(QueryError::Exec)?;
    let granted = permit.granted();
    let cfg = session.config().clone().with_mem_budget(granted);
    let start = Instant::now();
    let out = p.execute_prepared_shared(&prepared, session.mode(), &cfg, session.cancel_token());
    let total = start.elapsed();
    drop(permit);
    let out = out?;
    // `Outcome::elapsed` is the execution proper; the rest of the call is
    // plan-cache lookup or optimization, EXPLAIN rendering and node
    // counting.
    let run = out.elapsed.min(total);
    tr.record(qid, Some(0), "run", "", start, run.as_nanos() as u64);
    tr.record(
        qid,
        Some(0),
        "execute_prepared_shared_other",
        "",
        start + run,
        (total - run).as_nanos() as u64,
    );
    if let Some(stats) = &out.exec_stats {
        log.counters.add_exec(stats);
    }
    cache_counters(&out.explain, &mut log.counters);
    log.counters.results += out.items.len();
    log.counters.serialized_nodes += out.serialized_nodes;
    Ok(QueryResult {
        items: out.items,
        serialized_nodes: out.serialized_nodes,
        elapsed_us: out.elapsed.as_micros(),
        granted,
    })
}

/// Most concurrent warm-up passes before the timed phase starts anyway.
const WARM_PASSES: usize = 4;

/// Run every recurring text on one connection per session budget, both
/// at once, as the timed phase does; return the admission grants seen.
fn warm_pass(addr: SocketAddr, texts: &[String]) -> BTreeSet<usize> {
    std::thread::scope(|s| {
        let conns: Vec<_> = SESSION_BUDGETS
            .iter()
            .enumerate()
            .map(|(i, budget)| {
                s.spawn(move || {
                    let mut c = Conn::open(addr);
                    c.request(&format!("SET mem_budget {budget}"));
                    let mut grants = BTreeSet::new();
                    // The connections walk the list in opposite directions,
                    // so each text meets different company.
                    for k in 0..texts.len() {
                        let text = &texts[if i == 0 { k } else { texts.len() - 1 - k }];
                        if let Reply::Items(_, _, Some(g)) = c.request(&format!("QUERY {text}")) {
                            grants.insert(g);
                        }
                    }
                    c.request("QUIT");
                    grants
                })
            })
            .collect();
        conns
            .into_iter()
            .flat_map(|h| h.join().expect("warm-up connection panicked"))
            .collect()
    })
}

/// Plan every recurring text under every grant size admission hands out.
/// The plan-cache key includes the memory budget, so without this, which
/// recurring texts pay a cold optimization in the timed phase would depend
/// on how the two connections happen to overlap.  The grant sizes are
/// the ones the server reports: concurrent passes reveal them, and a lone
/// connection asking for a grant size is granted exactly that.  Warming
/// stops when a concurrent pass shows no new grant size.
fn warm_up(addr: SocketAddr) {
    let texts = serve_recurring();
    let mut warmed = BTreeSet::new();
    for _ in 0..WARM_PASSES {
        let fresh: Vec<usize> = warm_pass(addr, &texts)
            .difference(&warmed)
            .copied()
            .collect();
        if fresh.is_empty() {
            break;
        }
        let mut c = Conn::open(addr);
        for &grant in &fresh {
            c.request(&format!("SET mem_budget {grant}"));
            for text in &texts {
                c.request(&format!("QUERY {text}"));
            }
        }
        c.request("QUIT");
        warmed.extend(fresh);
    }
}

/// Run `serve-tight`.
pub fn run(args: &Args) -> Outcome {
    let mut e2e = EndToEnd::default();
    let mut server = None;
    while another_setup(&e2e.setups) {
        if let Some(s) = server.take() {
            Server::shutdown(s);
        }
        let (s, t) = set_up();
        e2e.setups.push(t);
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let engine: Arc<Engine> = Arc::clone(server.engine());
    let addr = server.local_addr();
    warm_up(addr);
    let before = engine.admission().stats();
    let epoch = Instant::now();
    // Traced runs send the timed traffic to the replay listener instead;
    // its third connection is the calibration pass, whose spans are dropped.
    let replay = args
        .trace
        .then(|| TcpListener::bind("127.0.0.1:0").expect("bind a local port"));
    let replay_addr = replay
        .as_ref()
        .map(|l| l.local_addr().expect("local address"));
    let target = replay_addr.unwrap_or(addr);
    let start = Instant::now();
    let mut wall_s = 0.0;
    let mut after = before.clone();
    let mut calibration = (0, 0, Vec::new());
    let mut checker = Checker::default();
    let (logs, handler_logs) = std::thread::scope(|s| {
        let handlers = replay.as_ref().map(|listener| {
            let engine = &engine;
            s.spawn(move || {
                std::thread::scope(|hs| {
                    let handles: Vec<_> = (0..3)
                        .map(|_| {
                            let (stream, _) = listener.accept().expect("accept a client");
                            hs.spawn(move || replay_connection(engine, stream, epoch))
                        })
                        .collect();
                    let mut logs: Vec<HandlerLog> = handles
                        .into_iter()
                        .map(|h| h.join().expect("replay handler panicked"))
                        .collect();
                    logs.truncate(2);
                    logs
                })
            })
        });
        let clients: Vec<_> = (0..2)
            .map(|i| s.spawn(move || client(target, i, args, epoch)))
            .collect();
        let logs: Vec<ClientLog> = clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        wall_s = start.elapsed().as_secs_f64();
        after = engine.admission().stats();
        for log in &logs {
            for (q, r) in &log.results {
                if let Ok(items) = r {
                    checker.record(q, items);
                }
            }
        }
        if let Some(replay_addr) = replay_addr {
            let texts = checker.texts();
            let step = texts.len().div_ceil(CALIBRATION_TEXTS).max(1);
            let sample: Vec<String> = texts.into_iter().step_by(step).collect();
            calibration = calibrate(addr, replay_addr, &sample);
        }
        let handler_logs = handlers
            .map(|h| h.join().expect("replay acceptor panicked"))
            .unwrap_or_default();
        (logs, handler_logs)
    });
    e2e.wall_s = wall_s;
    e2e.peak_rss_mb = peak_rss_mb();

    let mut traced = Traced {
        admitted: after.admitted - before.admitted,
        queued: after.queued - before.queued,
        untraced_ns: calibration.0,
        traced_ns: calibration.1,
        ..Traced::default()
    };
    let mismatched_traces = calibration.2;
    let mut tracer = Tracer::new(epoch);
    for log in logs {
        e2e.latencies_ms.extend(&log.latencies_ms);
        e2e.attempted += log.results.len() as u64;
        e2e.errors += log.results.iter().filter(|(_, r)| r.is_err()).count() as u64;
        traced.grants += log.grants;
        traced.reduced_grants += log.reduced;
        tracer.absorb(log.tracer.expect("client tracer"));
    }
    for h in handler_logs {
        traced.counters.add(&h.counters);
        for layer in h.failures {
            *traced.failures.entry(layer).or_default() += 1;
        }
        tracer.absorb(h.tracer.expect("handler tracer"));
    }
    if args.trace {
        tracer.retag_from_roots();
        for (_, spans) in tracer.per_query().values() {
            let root = spans.get("query").copied().unwrap_or(0);
            let server: u64 = spans
                .iter()
                .filter(|(k, _)| **k != "query" && **k != "render")
                .map(|(_, v)| *v)
                .sum();
            traced
                .roundtrip_overhead_ns
                .push(root.saturating_sub(server));
        }
        traced.tracer = Some(tracer);
    }
    let (tally, problems) =
        checker.check(slow_oracle, |q| oracle(engine.processor(), &q.text).ok());
    let config = format!(
        "{:?}; {:?}; session budgets {SESSION_BUDGETS:?}; workers {WORKERS}",
        engine.defaults(),
        engine.admission().config()
    );
    drop(engine);
    Server::shutdown(server);
    Outcome {
        e2e,
        tally,
        problems,
        traced,
        mismatched_traces,
        config,
    }
}
