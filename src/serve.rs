//! # `wfdatalog::serve` — the HTTP serving tier
//!
//! The application layer of `wfdl serve`, built on the transport substrate
//! in [`wfdl_serve`]: load a knowledge base, solve once, and serve
//! prepared-query traffic from a shared [`Arc<SolvedModel>`] while fact
//! ingestion hot-swaps the model underneath.
//!
//! ## Endpoints
//!
//! | Route           | Meaning |
//! |-----------------|---------|
//! | `GET /healthz`  | liveness + the currently published model epoch |
//! | `POST /query`   | one query per body line → prepared evaluation against **one** pinned snapshot; malformed queries answer 400 with their real source positions. `POST /query?mode=sliced` solves goal-directedly instead (below) |
//! | `POST /ingest`  | TSV/CSV fact batch (the `--facts` format) → typed insert + incremental re-solve on the writer thread → atomic hot-swap |
//! | `GET /lint`     | the static-analysis report for the served program (`wfdatalog::analysis` JSON), recomputed with the model on every ingest — EDB changes flip the data-dependent lints |
//! | `GET /stats`    | solve/modular/chase statistics, model shape, epoch, request counters |
//!
//! ## Threading model
//!
//! Worker threads (the [`wfdl_serve`] pool) are pure readers: a request
//! pins exactly one `(epoch, Arc<SolvedModel>)` pair out of the
//! [`EpochSlot`] — one mutex acquisition for an `Arc` clone — and never
//! touches the [`KnowledgeBase`] again. All mutation is serialized on one
//! dedicated **writer thread** owning the `KnowledgeBase`: `/ingest`
//! requests queue typed fact batches to it (bounded channel =
//! backpressure), the writer inserts, re-solves (incrementally — the
//! façade resumes the chase and reuses component verdicts), publishes the
//! new model with its bumped [`SolvedModel::epoch`], and only then
//! acknowledges the request. Readers never block on the writer; a solve
//! in progress steals no lock the readers need.
//!
//! Per-re-solve deadlines reuse the solve-budget machinery
//! ([`SolveBudget`]): a deadline-tripped re-solve still publishes — as a
//! sound under-approximation whose outcome the `/ingest` response and
//! `/stats` report — and the next ingest resumes the chase from where it
//! stopped.
//!
//! ## `mode=sliced`
//!
//! `POST /query?mode=sliced` answers each body line from a goal-directed
//! solve over the query-relevant program slice
//! ([`KnowledgeBase::solve_for`]) instead of the published full model —
//! bit-identical answers, a fraction of the work for narrow queries
//! against a large program. Sliced solves need the `KnowledgeBase`, so
//! they run on the **writer thread**, serialized behind any queued
//! ingests (per-query results are cached there; a repeated sliced query
//! with unchanged data is answered from that cache). The response shape
//! is identical to the plain `/query` response, with the answering solve's
//! slice stats appended per result. Plain `/query` traffic is unaffected —
//! it never touches the writer.
//!
//! ## `/stats` schema
//!
//! See `crates/serve/src/README.md` for the field-by-field schema of the
//! `/stats` JSON document (`epoch`, `uptime_ms`, `requests`, `model`,
//! `solve`, `modular`, `chase`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wfdl_serve::{
    push_json_str, App, EpochSlot, Method, Request, Response, Server, ServerConfig, Stopper,
};

use crate::{Error, KnowledgeBase, SolveBudget, SolvedModel};

/// Configuration for [`start`]. `Default` binds an ephemeral localhost
/// port with 4 workers and no re-solve deadline.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Bind address (`127.0.0.1:0` = ephemeral port).
    pub addr: String,
    /// HTTP worker threads, clamped to `1..=256`
    /// ([`wfdl_serve::resolve_workers`]).
    pub workers: usize,
    /// Wall-clock budget for each ingest-triggered re-solve (and the
    /// initial solve). `None` = unlimited.
    pub resolve_deadline: Option<Duration>,
    /// Per-request body limit in bytes (queries and fact batches).
    pub max_body_bytes: usize,
    /// Socket read timeout (bounds idle keep-alive connections and the
    /// graceful-drain tail).
    pub read_timeout: Duration,
    /// Bound of the ingest queue between HTTP workers and the writer
    /// thread.
    pub ingest_queue: usize,
    /// Program name used as the `"file"` anchor in the `/lint` report
    /// (purely cosmetic; `wfdl serve` passes the program path).
    pub program_name: String,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            resolve_deadline: None,
            max_body_bytes: 64 * 1024 * 1024,
            read_timeout: Duration::from_secs(5),
            ingest_queue: 16,
            program_name: "<program>".to_owned(),
        }
    }
}

/// Per-endpoint request counters, surfaced by `/stats`.
#[derive(Debug, Default)]
struct Counters {
    healthz: AtomicU64,
    query: AtomicU64,
    query_errors: AtomicU64,
    ingest: AtomicU64,
    ingest_errors: AtomicU64,
    lint: AtomicU64,
    stats: AtomicU64,
    other: AtomicU64,
}

/// One unit of work for the writer thread, which owns the
/// [`KnowledgeBase`]: a fact ingestion, or a goal-directed query batch
/// (`POST /query?mode=sliced` — sliced solves need `&mut KnowledgeBase`,
/// so they serialize with ingests instead of racing them).
enum WriterJob {
    /// Raw fact-batch body; acknowledged once the new model is published.
    Ingest {
        body: Vec<u8>,
        reply: SyncSender<Response>,
    },
    /// Query sources for a goal-directed (sliced) evaluation.
    SlicedQuery {
        queries: Vec<String>,
        reply: SyncSender<Response>,
    },
}

/// The wfdl application: routes requests against the published model.
struct WfdlApp {
    slot: EpochSlot<SolvedModel>,
    /// Pre-rendered `/lint` JSON, republished by the writer thread next to
    /// every model swap (the EDB participates in the data-dependent lints,
    /// so an ingest can change the report). Readers only clone an `Arc`.
    lint: EpochSlot<String>,
    /// Writer entry (ingests + sliced queries): `None` once shutdown began
    /// (both answer 503).
    writer: Mutex<Option<SyncSender<WriterJob>>>,
    writer_join: Mutex<Option<JoinHandle<()>>>,
    counters: Counters,
    started: Instant,
}

impl App for WfdlApp {
    fn handle(&self, req: &Request) -> Response {
        // Ignore any query string; routes are exact paths.
        let path = req.path.split('?').next().unwrap_or("");
        match (req.method, path) {
            (Method::Get, "/healthz") => {
                self.counters.healthz.fetch_add(1, Ordering::Relaxed);
                let (epoch, _) = self.slot.load();
                Response::json(200, format!("{{\"status\":\"ok\",\"epoch\":{epoch}}}"))
            }
            (Method::Post, "/query") => {
                self.counters.query.fetch_add(1, Ordering::Relaxed);
                let resp = match req.path.split('?').nth(1) {
                    None | Some("") | Some("mode=full") => self.query(&req.body),
                    Some("mode=sliced") => self.sliced_query(&req.body),
                    Some(other) => Response::json(
                        400,
                        error_body(
                            &format!("unknown query option `{other}` (try `mode=sliced`)"),
                            None,
                        ),
                    ),
                };
                if resp.status != 200 {
                    self.counters.query_errors.fetch_add(1, Ordering::Relaxed);
                }
                resp
            }
            (Method::Post, "/ingest") => {
                self.counters.ingest.fetch_add(1, Ordering::Relaxed);
                let resp = self.ingest(&req.body);
                if resp.status != 200 {
                    self.counters.ingest_errors.fetch_add(1, Ordering::Relaxed);
                }
                resp
            }
            (Method::Get, "/lint") => {
                self.counters.lint.fetch_add(1, Ordering::Relaxed);
                let (_epoch, report) = self.lint.load();
                Response::json(200, report.as_ref().clone())
            }
            (Method::Get, "/stats") => {
                self.counters.stats.fetch_add(1, Ordering::Relaxed);
                Response::json(200, self.stats_body())
            }
            (_, "/healthz" | "/query" | "/ingest" | "/lint" | "/stats") => {
                self.counters.other.fetch_add(1, Ordering::Relaxed);
                Response::text(405, "method not allowed for this route\n")
            }
            _ => {
                self.counters.other.fetch_add(1, Ordering::Relaxed);
                Response::text(
                    404,
                    "no such route (have: /healthz /query /ingest /lint /stats)\n",
                )
            }
        }
    }

    /// Runs after the pool drained: close the ingest channel and join the
    /// writer, so every acknowledged ingest is fully published.
    fn on_shutdown(&self) {
        drop(self.writer.lock().map(|mut w| w.take()));
        let join = self.writer_join.lock().map(|mut j| j.take());
        if let Ok(Some(join)) = join {
            let _ = join.join();
        }
    }
}

/// Splits a `/query` body into trimmed, non-comment query lines, or the
/// 400 response when the body is unusable.
fn parse_query_lines(body: &[u8]) -> Result<Vec<&str>, Response> {
    let Ok(text) = std::str::from_utf8(body) else {
        return Err(Response::json(
            400,
            error_body("request body is not UTF-8", None),
        ));
    };
    let queries: Vec<&str> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#') && !l.starts_with('%'))
        .collect();
    if queries.is_empty() {
        return Err(Response::json(
            400,
            error_body("no queries in request body (one query per line)", None),
        ));
    }
    Ok(queries)
}

impl WfdlApp {
    /// `POST /query`: evaluate every body line against one pinned model.
    fn query(&self, body: &[u8]) -> Response {
        let queries = match parse_query_lines(body) {
            Ok(q) => q,
            Err(resp) => return resp,
        };
        // Pin exactly one snapshot for the whole request: every query in
        // the batch answers against the same epoch, however many swaps
        // land mid-request.
        let (_epoch, model) = self.slot.load();
        match query_response_body(&model, &queries) {
            Ok(body) => Response::json(200, body),
            Err(body) => Response::json(400, body),
        }
    }

    /// `POST /query?mode=sliced`: goal-directed solve per query on the
    /// writer thread (serialized behind queued ingests — a sliced answer
    /// always reflects every ingest acknowledged before it).
    fn sliced_query(&self, body: &[u8]) -> Response {
        let queries = match parse_query_lines(body) {
            Ok(q) => q,
            Err(resp) => return resp,
        };
        let queries: Vec<String> = queries.into_iter().map(str::to_owned).collect();
        self.dispatch_to_writer(|reply| WriterJob::SlicedQuery { queries, reply })
    }

    /// `POST /ingest`: hand the batch to the writer thread and relay its
    /// acknowledgement.
    fn ingest(&self, body: &[u8]) -> Response {
        let body = body.to_vec();
        self.dispatch_to_writer(|reply| WriterJob::Ingest { body, reply })
    }

    /// Queues one job on the writer thread and relays its reply; answers
    /// 503 once shutdown closed the queue.
    fn dispatch_to_writer(&self, job: impl FnOnce(SyncSender<Response>) -> WriterJob) -> Response {
        let sender = match self.writer.lock() {
            Ok(guard) => guard.clone(),
            Err(_) => None,
        };
        let Some(sender) = sender else {
            return Response::json(503, error_body("server is shutting down", None));
        };
        let (reply_tx, reply_rx) = std::sync::mpsc::sync_channel(1);
        if sender.send(job(reply_tx)).is_err() {
            return Response::json(503, error_body("server is shutting down", None));
        }
        match reply_rx.recv() {
            Ok(response) => response,
            Err(_) => Response::json(500, error_body("writer thread died mid-request", None)),
        }
    }

    /// `GET /stats`: one JSON view over solve, modular, chase and request
    /// statistics for the currently published model.
    fn stats_body(&self) -> String {
        let (epoch, model) = self.slot.load();
        let (t, f, u) = model.model().counts();
        let ss = model.solve_stats();
        let cs = model.model().segment.stats();
        let mut out = String::with_capacity(1024);
        out.push_str(&format!(
            "{{\"epoch\":{epoch},\"uptime_ms\":{},\"requests\":{{\"healthz\":{},\"query\":{},\
             \"query_errors\":{},\"ingest\":{},\"ingest_errors\":{},\"lint\":{},\"stats\":{},\
             \"other\":{}}}",
            self.started.elapsed().as_millis(),
            self.counters.healthz.load(Ordering::Relaxed),
            self.counters.query.load(Ordering::Relaxed),
            self.counters.query_errors.load(Ordering::Relaxed),
            self.counters.ingest.load(Ordering::Relaxed),
            self.counters.ingest_errors.load(Ordering::Relaxed),
            self.counters.lint.load(Ordering::Relaxed),
            self.counters.stats.load(Ordering::Relaxed),
            self.counters.other.load(Ordering::Relaxed),
        ));
        out.push_str(&format!(
            ",\"model\":{{\"atoms\":{},\"rules\":{},\"true\":{t},\"false\":{f},\"unknown\":{u},\
             \"exact\":{},\"outcome\":",
            model.model().segment.atoms().len(),
            model.model().ground.num_rules(),
            model.exact(),
        ));
        push_json_str(&mut out, &model.outcome().to_string());
        out.push_str(&format!(
            "}},\"solve\":{{\"incremental\":{},\"components_reused\":{},\"sliced\":{}}}",
            ss.incremental, ss.components_reused, ss.sliced,
        ));
        if let Some(ms) = model.model().component_stats() {
            // `components_reused` deliberately matches the `solve` object's
            // key (and the CLI's `% solve:` line): one name for the
            // memo-reuse counter everywhere.
            out.push_str(&format!(
                ",\"modular\":{{\"components\":{},\"definite\":{},\"recursive\":{},\
                 \"largest\":{},\"components_reused\":{}}}",
                ms.components,
                ms.definite_components,
                ms.recursive_components,
                ms.largest_component,
                ms.components_reused,
            ));
        }
        out.push_str(&format!(
            ",\"chase\":{{\"rounds\":{},\"frontier_atoms\":{},\"match_ns\":{},\
             \"merge_ns\":{}}}}}",
            cs.rounds, cs.frontier_atoms, cs.match_ns, cs.merge_ns,
        ));
        out
    }
}

/// Renders the `POST /query` response body for a pinned model: the exact
/// bytes the server sends for these query sources at that model's epoch.
///
/// Public so integration tests (and clients embedding the tier) can
/// compute the expected response through the **direct** [`SolvedModel`]
/// API and compare bit-for-bit against what came over HTTP.
///
/// `Ok` is the 200 body; `Err` is the 400 body for the first malformed
/// query, carrying its 1-based index, source text, message and — for
/// syntax errors — the real line/column within the query string.
pub fn query_response_body(model: &SolvedModel, queries: &[&str]) -> Result<String, String> {
    // Prepare everything first: a batch with any malformed query answers
    // 400 as a whole, so clients never see partial evaluation.
    let mut prepared = Vec::with_capacity(queries.len());
    for (i, src) in queries.iter().enumerate() {
        match model.prepare(src) {
            Ok(q) => prepared.push(q),
            Err(e) => return Err(prepare_error_body(i, src, &e)),
        }
    }
    let mut out = String::with_capacity(64 + 48 * queries.len());
    out.push_str(&format!("{{\"epoch\":{},\"results\":[", model.epoch()));
    for (i, (src, q)) in queries.iter().zip(&prepared).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        push_query_result(&mut out, model, src, q);
        out.push('}');
    }
    out.push_str("]}");
    Ok(out)
}

/// Goal-directed twin of [`query_response_body`]: answers each query from
/// its own sliced solve ([`KnowledgeBase::solve_for`]) instead of a
/// published full model. Same response shape, plus a per-result
/// `"slice"` object with the answering solve's slice stats. Runs on the
/// serving tier's writer thread (it needs `&mut KnowledgeBase`); public
/// for the same bit-for-bit test contract as [`query_response_body`].
///
/// `Ok` is the 200 body; `Err` is the 400 body for the first query that
/// fails to parse or solve, in [`query_response_body`]'s error shape.
pub fn sliced_query_response_body(
    kb: &mut KnowledgeBase,
    queries: &[&str],
) -> Result<String, String> {
    // Solve + prepare everything first: a batch with any malformed query
    // answers 400 as a whole, exactly like the full-model path.
    let mut solved = Vec::with_capacity(queries.len());
    for (i, src) in queries.iter().enumerate() {
        let model = kb
            .solve_for(src)
            .map_err(|e| prepare_error_body(i, src, &e))?;
        let q = model
            .prepare_sliced(src)
            .map_err(|e| prepare_error_body(i, src, &e))?;
        solved.push((model, q));
    }
    let epoch = solved.first().map_or(0, |(m, _)| m.epoch());
    let mut out = String::with_capacity(64 + 64 * queries.len());
    out.push_str(&format!("{{\"epoch\":{epoch},\"results\":["));
    for (i, (src, (model, q))) in queries.iter().zip(&solved).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        push_query_result(&mut out, model, src, q);
        let s = model.solve_stats();
        out.push_str(&format!(
            ",\"slice\":{{\"slice_components\":{},\"total_components\":{},\
             \"components_reused\":{}}}",
            s.slice_components, s.total_components, s.components_reused
        ));
        out.push('}');
    }
    out.push_str("]}");
    Ok(out)
}

/// The 400 error body for a query that failed to prepare (or, sliced, to
/// solve): 1-based index, source text, message and — for syntax errors —
/// the real line/column within the query string.
fn prepare_error_body(index: usize, src: &str, e: &Error) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"error\":{{\"query\":{},\"source\":",
        index + 1
    ));
    push_json_str(&mut out, src);
    out.push_str(",\"message\":");
    push_json_str(&mut out, &e.to_string());
    if let Error::Syntax(se) = e {
        out.push_str(&format!(",\"line\":{},\"col\":{}", se.pos.line, se.pos.col));
    }
    out.push_str("}}");
    out
}

/// Renders one query's result fields (`"query":…`, `"truth"`/`"answers"`,
/// optional `"warnings"`) into `out`, **without** the enclosing braces —
/// the caller owns the object so it can append mode-specific fields.
fn push_query_result(out: &mut String, model: &SolvedModel, src: &str, q: &crate::PreparedQuery) {
    out.push_str("\"query\":");
    push_json_str(out, src);
    if q.is_boolean() {
        out.push_str(",\"truth\":");
        push_json_str(out, &model.ask3_prepared(q).to_string());
    } else {
        out.push_str(",\"answers\":[");
        let answers = model.answers_prepared(q);
        for (j, tuple) in answers.tuples().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('[');
            for (k, &term) in tuple.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                push_json_str(out, &model.universe().display_term(term).to_string());
            }
            out.push(']');
        }
        out.push(']');
    }
    // A short-circuited verdict (unknown predicate/constant) is easy to
    // misread as "solved and empty": name the unresolved symbols. The
    // field is present only when non-empty, so fully-resolved queries
    // keep their exact historical shape.
    let missing = q.unresolved_symbols(model.universe());
    if !missing.is_empty() {
        out.push_str(",\"warnings\":[");
        for (j, m) in missing.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_json_str(out, &format!("unknown {m}"));
        }
        out.push(']');
    }
}

/// A `{"error":{...}}` body with an optional source line number.
fn error_body(message: &str, line: Option<u32>) -> String {
    let mut out = String::from("{\"error\":{\"message\":");
    push_json_str(&mut out, message);
    if let Some(line) = line {
        out.push_str(&format!(",\"line\":{line}"));
    }
    out.push_str("}}");
    out
}

/// The writer thread: owns the [`KnowledgeBase`], serializes every
/// mutation (and every sliced query, which needs `&mut` access), and is
/// the only code that publishes into the slot.
fn writer_loop(
    mut kb: KnowledgeBase,
    rx: Receiver<WriterJob>,
    slot: Arc<WfdlApp>,
    resolve_deadline: Option<Duration>,
    program_name: String,
) {
    while let Ok(job) = rx.recv() {
        match job {
            WriterJob::Ingest { body, reply } => {
                let response = apply_ingest(&mut kb, &slot, &body, resolve_deadline, &program_name);
                // A dropped reply just means the requesting worker gave up;
                // the ingest itself is already committed and published.
                let _ = reply.send(response);
            }
            WriterJob::SlicedQuery { queries, reply } => {
                // Each sliced solve gets the same fresh deadline window an
                // ingest-triggered re-solve would.
                if let Some(d) = resolve_deadline {
                    kb.set_solve_budget(SolveBudget::unlimited().with_deadline_in(d));
                }
                let refs: Vec<&str> = queries.iter().map(String::as_str).collect();
                let response = match sliced_query_response_body(&mut kb, &refs) {
                    Ok(body) => Response::json(200, body),
                    Err(body) => Response::json(400, body),
                };
                let _ = reply.send(response);
            }
        }
    }
}

/// One ingest: parse → typed insert → (incremental) re-solve → publish.
fn apply_ingest(
    kb: &mut KnowledgeBase,
    app: &WfdlApp,
    body: &[u8],
    resolve_deadline: Option<Duration>,
    program_name: &str,
) -> Response {
    let batch = match crate::fact_batch_from_reader(kb.universe_mut(), body) {
        Ok(batch) => batch,
        Err(e) => {
            let line = match &e {
                Error::Syntax(se) => Some(se.pos.line),
                _ => None,
            };
            return Response::json(400, error_body(&e.to_string(), line));
        }
    };
    let added = match kb.insert(batch) {
        Ok(n) => n,
        Err(e) => return Response::json(400, error_body(&e.to_string(), None)),
    };
    // The deadline is an absolute instant: arm it freshly for each
    // re-solve so every ingest gets the full window.
    if let Some(d) = resolve_deadline {
        kb.set_solve_budget(SolveBudget::unlimited().with_deadline_in(d));
    }
    match kb.try_solve() {
        Ok(model) => {
            // Publish the model first, then the matching lint report: a
            // reader racing the swap sees a coherent model either way, and
            // `/lint` carries the epoch it was computed at.
            app.slot.publish(model.epoch(), Arc::clone(&model));
            let lint = kb.analyze().to_json(program_name);
            app.lint.publish(model.epoch(), Arc::new(lint));
            let ss = model.solve_stats();
            let mut out = String::new();
            out.push_str(&format!(
                "{{\"added\":{added},\"epoch\":{},\"incremental\":{},\
                 \"components_reused\":{},\"outcome\":",
                model.epoch(),
                ss.incremental,
                ss.components_reused,
            ));
            push_json_str(&mut out, &model.outcome().to_string());
            out.push('}');
            Response::json(200, out)
        }
        // EnginePanic: the knowledge base is documented to stay coherent
        // (next solve recomputes from scratch), so keep serving the last
        // published model and report the failure.
        Err(e) => Response::json(500, error_body(&e.to_string(), None)),
    }
}

/// A running serving tier. Obtain via [`start`]; stop via
/// [`RunningServer::shutdown`] (or a [`Stopper`] from another thread).
pub struct RunningServer {
    server: Server,
    app: Arc<WfdlApp>,
}

impl RunningServer {
    /// The bound socket address (resolves `:0` to the actual port).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.addr()
    }

    /// A cloneable shutdown trigger for signal handlers / other threads.
    pub fn stopper(&self) -> Stopper {
        self.server.stopper()
    }

    /// Pins the currently published `(epoch, model)` pair — the same
    /// operation a request performs.
    pub fn pin_model(&self) -> (u64, Arc<SolvedModel>) {
        self.app.slot.load()
    }

    /// Graceful shutdown: stop accepting, drain in-flight requests, join
    /// the worker pool, then close the ingest queue and join the writer.
    /// Every acknowledged ingest is published before this returns.
    pub fn shutdown(self) {
        self.server.stopper().stop();
        self.server.shutdown();
    }
}

/// Solves the knowledge base once and starts serving it.
///
/// The initial solve honours `options.resolve_deadline` like every
/// ingest-triggered re-solve: a tripped solve serves a sound
/// under-approximation and later ingests resume it.
///
/// # Errors
///
/// [`Error::EnginePanic`] if the initial solve panicked, [`Error::Io`] if
/// the listener could not bind or a service thread could not spawn.
pub fn start(mut kb: KnowledgeBase, options: ServeOptions) -> Result<RunningServer, Error> {
    if let Some(d) = options.resolve_deadline {
        kb.set_solve_budget(SolveBudget::unlimited().with_deadline_in(d));
    }
    let model = kb.try_solve()?;
    let lint = kb.analyze().to_json(&options.program_name);
    let app = Arc::new(WfdlApp {
        lint: EpochSlot::new(model.epoch(), Arc::new(lint)),
        slot: EpochSlot::new(model.epoch(), model),
        writer: Mutex::new(None),
        writer_join: Mutex::new(None),
        counters: Counters::default(),
        started: Instant::now(),
    });
    let (tx, rx) = std::sync::mpsc::sync_channel(options.ingest_queue.max(1));
    // These two mutexes were created a few lines up and have never left
    // this thread: poisoning is impossible, but recover instead of unwrap.
    *app.writer.lock().unwrap_or_else(PoisonError::into_inner) = Some(tx);
    let writer_join = {
        let app = Arc::clone(&app);
        let deadline = options.resolve_deadline;
        let name = options.program_name.clone();
        std::thread::Builder::new()
            .name("wfdl-serve-writer".to_owned())
            .spawn(move || writer_loop(kb, rx, app, deadline, name))?
    };
    *app.writer_join
        .lock()
        .unwrap_or_else(PoisonError::into_inner) = Some(writer_join);
    let server = Server::start(
        ServerConfig {
            addr: options.addr.clone(),
            workers: options.workers,
            accept_backlog: 64,
            max_body_bytes: options.max_body_bytes,
            read_timeout: options.read_timeout,
        },
        Arc::clone(&app) as Arc<dyn App>,
    )?;
    Ok(RunningServer { server, app })
}
