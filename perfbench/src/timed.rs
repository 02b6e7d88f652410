//! The timed (untraced) run: cold compile-to-answer loads, then the
//! serving tier under an open-loop read stream and an ingest stream.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wfdatalog::serve::{start, RunningServer, ServeOptions};
use wfdatalog::{AnswerSet, KnowledgeBase, SolvedModel};

use crate::gen::{self, Inputs, Rng};
use crate::http::{first_truth, Conn};
use crate::oracle::{self, Oracle};
use crate::stats::{self, OpenLoopSample};
use crate::{Spec, Tally};

/// One cold load: compile the rules, bulk-load the facts, solve with the
/// library defaults and answer the source queries.
pub fn cold_load(
    inputs: &Inputs,
) -> Result<(KnowledgeBase, Arc<SolvedModel>, Vec<AnswerSet>), wfdatalog::Error> {
    let mut kb = KnowledgeBase::from_source(&inputs.rules)?;
    kb.insert_tsv(&inputs.facts_tsv)?;
    let model = kb.try_solve()?;
    let answers = model.answer_all(model.source_queries());
    Ok((kb, model, answers))
}

/// Checks one cold load against the oracle digest (counts, verdicts and
/// answers; the oracle process compared the rendered models).
pub fn check_load(model: &SolvedModel, answers: &[AnswerSet], oracle: &Oracle) -> bool {
    oracle
        .digest
        .matches(&oracle::digest(model, answers, false))
}

/// Cold-load results.
pub struct ColdResult {
    pub samples_ms: Vec<f64>,
    pub setup_s: Vec<f64>,
    /// The last loaded knowledge base, handed to the serving phase.
    pub kb: Option<KnowledgeBase>,
    pub last_model: Option<Arc<SolvedModel>>,
}

/// Three untimed warm-up loads (their median is `setup_s`), then cold
/// loads until `budget` is spent. Every load is checked against the
/// oracle.
pub fn cold_phase(
    inputs: &Inputs,
    oracle: &Oracle,
    budget: Duration,
    tally: &mut Tally,
) -> ColdResult {
    let mut res = ColdResult {
        samples_ms: Vec::new(),
        setup_s: Vec::new(),
        kb: None,
        last_model: None,
    };
    let began = Instant::now();
    let mut warmups = 0;
    loop {
        let warm = warmups < 3;
        if !warm && began.elapsed() >= budget {
            break;
        }
        // Free the previous load before timing the next one.
        res.kb = None;
        res.last_model = None;
        let t0 = Instant::now();
        let outcome = cold_load(inputs);
        let secs = t0.elapsed().as_secs_f64();
        tally.attempted += 1;
        match outcome {
            Ok((kb, model, answers)) => {
                if !check_load(&model, &answers, oracle) {
                    tally.fail("cold load verdicts differ from the reference engine");
                }
                res.kb = Some(kb);
                res.last_model = Some(model);
            }
            Err(e) => tally.fail(&format!("cold load: {e}")),
        }
        if warm {
            res.setup_s.push(secs);
            warmups += 1;
        } else {
            res.samples_ms.push(secs * 1e3);
        }
    }
    res
}

/// Open-loop `/query` rate of the serving phase, per second.
pub const BASE_READ_RATE: f64 = 2000.0;

/// `/ingest` requests (each followed by one sliced query) per second. An
/// ingest plus its sliced query costs ≈110 ms on both programs, so the
/// server's writer thread is busy about a fifth of the time: the median
/// read is a quiet one, and the read tail shows how long a re-solve holds
/// readers up.
pub const INGEST_RATE: f64 = 2.0;

/// Windows a read phase under churn is cut into for its latency
/// percentiles (see [`stats::windowed_quantile`]).
pub const QUERY_WINDOWS: usize = 8;

/// `/query` p90 limit of the rate ladder (and the lateness-growth limit).
pub const SLO_SECS: f64 = 0.001;

pub struct ServeResult {
    pub query_p99: f64,
    pub max_lateness: f64,
    pub ingest_ms: Vec<f64>,
    pub sliced_ms: Vec<f64>,
    pub non200: [u64; 3],
    pub reads: usize,
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Starts the serving tier on `kb` and waits for the first `/healthz` 200.
pub fn start_server(
    kb: KnowledgeBase,
    workers: usize,
) -> Result<(RunningServer, SocketAddr), String> {
    let server = start(
        kb,
        ServeOptions {
            workers,
            ..ServeOptions::default()
        },
    )
    .map_err(|e| format!("serve start: {e}"))?;
    let addr = server.addr();
    let mut conn = Conn::open(addr).map_err(|e| format!("connect: {e}"))?;
    match conn.request("GET", "/healthz", "") {
        Ok((200, _)) => Ok((server, addr)),
        Ok((s, b)) => Err(format!("/healthz answered {s}: {b}")),
        Err(e) => Err(format!("/healthz: {e}")),
    }
}

/// Waits until `at`. Sleeps until shortly before (a sleep overshoots by
/// tens of microseconds) and spins only the last stretch: a generator that
/// spins for whole periods would keep a core busy that the server needs
/// on a small host.
fn wait_until(at: Instant) {
    loop {
        let now = Instant::now();
        if now >= at {
            return;
        }
        let left = at - now;
        if left > Duration::from_micros(120) {
            std::thread::sleep(left - Duration::from_micros(80));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Runs one open-loop read phase at `rate` for `secs` on `conn`.
#[allow(clippy::too_many_arguments)]
pub fn read_phase(
    conn: &mut Conn,
    rate: f64,
    secs: f64,
    keys: &[String],
    oracle: &Oracle,
    rng: &mut Rng,
    tally: &mut Tally,
    non200: &mut u64,
) -> Vec<OpenLoopSample> {
    let n = (rate * secs).round().max(1.0) as u64;
    let origin = Instant::now();
    let mut samples = Vec::with_capacity(n as usize);
    for i in 0..n {
        let due = origin + Duration::from_secs_f64(stats::scheduled_at(i, rate));
        wait_until(due);
        let key = &keys[rng.below(keys.len())];
        let sent = Instant::now();
        let reply = conn.request("POST", "/query", &format!("{key}\n"));
        let done = Instant::now();
        tally.attempted += 1;
        match reply {
            Ok((200, body)) => {
                if first_truth(&body) != oracle.truth.get(key).map(String::as_str) {
                    tally.fail(&format!("/query {key} answered {body}"));
                }
            }
            Ok((status, body)) => {
                *non200 += 1;
                tally.fail(&format!("/query {key} answered {status}: {body}"));
            }
            Err(e) => tally.fail(&format!("/query {key}: {e}")),
        }
        samples.push(OpenLoopSample {
            scheduled: (due - origin).as_secs_f64(),
            sent: (sent - origin).as_secs_f64(),
            done: (done - origin).as_secs_f64(),
        });
    }
    samples
}

/// The ingest stream: at [`INGEST_RATE`], one 4-fact
/// `/ingest` followed by one sliced `/query`. Runs until `stop`.
pub fn ingest_stream(
    addr: SocketAddr,
    spec: &Spec,
    seed: u64,
    oracle: &Oracle,
    stop: &AtomicBool,
) -> (Vec<f64>, Vec<f64>, [u64; 2], Tally) {
    let mut tally = Tally::default();
    let (mut ingest_ms, mut sliced_ms, mut non200) = (Vec::new(), Vec::new(), [0u64; 2]);
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            tally.attempted += 1;
            tally.fail(&format!("ingest connect: {e}"));
            return (ingest_ms, sliced_ms, non200, tally);
        }
    };
    let mut rng = Rng::new(seed ^ 0x1_4E57);
    let sliced = gen::sliced_keys(spec.shape);
    let origin = Instant::now();
    let mut k = 0usize;
    while !stop.load(Ordering::Relaxed) {
        let due = origin + Duration::from_secs_f64(stats::scheduled_at(k as u64, INGEST_RATE));
        while Instant::now() < due && !stop.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(1).min(due - Instant::now()));
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let body = gen::ingest_body(spec.shape, k, &mut rng);
        k += 1;
        let t0 = Instant::now();
        let reply = conn.request("POST", "/ingest", &body);
        tally.attempted += 1;
        match reply {
            Ok((200, b)) if b.contains("\"added\":4") => {
                ingest_ms.push(t0.elapsed().as_secs_f64() * 1e3)
            }
            Ok((200, b)) => tally.fail(&format!("/ingest added the wrong count: {b}")),
            Ok((s, b)) => {
                non200[0] += 1;
                tally.fail(&format!("/ingest answered {s}: {b}"));
            }
            Err(e) => tally.fail(&format!("/ingest: {e}")),
        }
        let key = &sliced[rng.below(sliced.len())];
        let t0 = Instant::now();
        let reply = conn.request("POST", "/query?mode=sliced", &format!("{key}\n"));
        tally.attempted += 1;
        match reply {
            Ok((200, b)) => {
                sliced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                if first_truth(&b) != oracle.truth.get(key).map(String::as_str) {
                    tally.fail(&format!("sliced {key} answered {b}"));
                }
            }
            Ok((s, b)) => {
                non200[1] += 1;
                tally.fail(&format!("sliced {key} answered {s}: {b}"));
            }
            Err(e) => tally.fail(&format!("sliced {key}: {e}")),
        }
    }
    (ingest_ms, sliced_ms, non200, tally)
}

/// Rates of the `serve.qps_at_slo` ladder: 2000 req/s times powers of √2, up to
/// ≈45k (past what one connection sustains on a 2-core host).
const LADDER: [f64; 10] = [
    2000.0, 2828.4, 4000.0, 5656.9, 8000.0, 11313.7, 16000.0, 22627.4, 32000.0, 45254.8,
];
/// Ascending passes over the ladder. Each rate keeps its best pass: host
/// stalls only ever add latency, so the best of three is the pass the
/// host disturbed least, and one bad moment cannot decide a rate.
const LADDER_PASSES: usize = 3;
/// Length of one probe.
const PROBE_SECS: f64 = 0.25;

/// Seconds the ladder takes at most.
pub const LADDER_SECS: f64 = LADDER.len() as f64 * LADDER_PASSES as f64 * PROBE_SECS;

/// Finds `serve.qps_at_slo` on the quiet server: probes every ladder rate in
/// [`LADDER_PASSES`] ascending passes (a pass stops at the first probe
/// more than ten times over the limit), takes each rate's best score
/// (p90 latency or lateness growth, whichever is worse), and interpolates
/// where the score crosses the limit ([`stats::slo_crossing`]).
pub fn rate_ladder(
    conn: &mut Conn,
    keys: &[String],
    oracle: &Oracle,
    rng: &mut Rng,
    tally: &mut Tally,
    non200: &mut u64,
) -> f64 {
    let mut scores: Vec<Vec<f64>> = vec![Vec::new(); LADDER.len()];
    for _ in 0..LADDER_PASSES {
        for (i, &rate) in LADDER.iter().enumerate() {
            let samples = read_phase(conn, rate, PROBE_SECS, keys, oracle, rng, tally, non200);
            let s = stats::summarize_open_loop(&samples);
            let score = s.p90.max(s.lateness_growth);
            scores[i].push(score);
            if score > 10.0 * SLO_SECS {
                for rest in &mut scores[i + 1..] {
                    rest.push(f64::INFINITY);
                }
                break;
            }
        }
    }
    let best: Vec<f64> = scores
        .iter()
        .map(|v| v.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    stats::slo_crossing(&LADDER, &best, SLO_SECS)
}

/// The serving phase: reads at the base rate with the ingest stream
/// running on a second connection.
pub fn serve_phase(
    server: RunningServer,
    addr: SocketAddr,
    spec: &Spec,
    base_secs: f64,
    seed: u64,
    oracle: &Oracle,
    tally: &mut Tally,
) -> Option<ServeResult> {
    let keys = gen::read_keys(spec.shape);
    let mut rng = Rng::new(seed ^ 0x4EAD);
    let mut read_non200 = 0u64;
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            tally.attempted += 1;
            tally.fail(&format!("reader connect: {e}"));
            server.shutdown();
            return None;
        }
    };
    let stop = AtomicBool::new(false);
    let (base, writer) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| ingest_stream(addr, spec, seed, oracle, &stop));
        let base = read_phase(
            &mut conn,
            BASE_READ_RATE,
            base_secs,
            &keys,
            oracle,
            &mut rng,
            tally,
            &mut read_non200,
        );
        stop.store(true, Ordering::Relaxed);
        (base, writer.join())
    });
    drop(conn);
    server.shutdown();
    let Ok((ingest_ms, sliced_ms, wnon200, wtally)) = writer else {
        tally.attempted += 1;
        tally.fail("ingest thread panicked");
        return None;
    };
    tally.merge(wtally);
    if ingest_ms.is_empty() || sliced_ms.is_empty() {
        tally.fail("the ingest stream completed no ingest");
        return None;
    }
    Some(ServeResult {
        query_p99: stats::windowed_quantile(&base, QUERY_WINDOWS, 0.99),
        max_lateness: stats::summarize_open_loop(&base).max_lateness,
        ingest_ms,
        sliced_ms,
        non200: [read_non200, wnon200[0], wnon200[1]],
        reads: base.len(),
    })
}
