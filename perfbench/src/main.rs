//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <example4_chain|winmove_game>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times the production path and prints the end-to-end
//! metrics; `--trace 1` replays the same operations layer by layer and
//! prints the per-layer metrics. The last line of standard output is the
//! result object; `README.md` documents every metric.

mod gen;
mod http;
mod oracle;
mod stats;
mod timed;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use gen::Shape;

/// One workload: a name and the shape of its program.
pub struct Spec {
    pub name: &'static str,
    pub shape: Shape,
}

const SPECS: [Spec; 2] = [
    Spec {
        name: "example4_chain",
        shape: gen::EXAMPLE4_CHAIN,
    },
    Spec {
        name: "winmove_game",
        shape: gen::WINMOVE_GAME,
    },
];

/// Share of a run spent on cold loads; the rest serves. At 55 s this gives
/// well over 100 loads on both workloads, so `cold_ms_p90` has at least
/// ten samples beyond it.
const COLD_SHARE: f64 = 0.4;

/// Attempted and failed operations of a run, with the first few failure
/// messages for the log.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, msg: &str) {
        self.failed += 1;
        if self.messages.len() < 5 {
            self.messages.push(msg.chars().take(300).collect());
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 5 {
                self.messages.push(m);
            }
        }
    }
}

/// Metrics of one run, in print order.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Run stamp: host parallelism, thread counts used, seed, commit,
    /// sample counts and workload shape.
    pub stamp: Vec<(&'static str, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn stamp(&mut self, key: &'static str, value: impl ToString) {
        self.stamp.push((key, value.to_string()));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    oracle: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 55,
        trace: false,
        oracle: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--oracle" => {
                args.workload = value()?;
                args.oracle = true;
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes an integer")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPUs the host reports online (`nproc` ignores affinity limits that
/// `available_parallelism` honours; both are stamped).
fn host_cpus() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

/// The checked-out commit, read from `.git` when the checkout has one.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_owned(),
        None => "unknown".into(),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = SPECS.iter().find(|s| s.name == args.workload) else {
        eprintln!(
            "perfbench: unknown workload `{}` (have: example4_chain, winmove_game)",
            args.workload
        );
        return ExitCode::from(2);
    };
    let inputs = gen::inputs(spec.shape, args.seed);
    if args.oracle {
        let mut keys = gen::read_keys(spec.shape);
        keys.extend(gen::sliced_keys(spec.shape));
        keys.sort();
        keys.dedup();
        return match oracle::print_oracle(&inputs, &keys) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench oracle: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let oracle = match oracle::compute(spec.name, args.seed) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let mut tally = Tally::default();
    tally.attempted += 1;
    if !oracle.production_agrees {
        tally.fail("the default engine's rendered model differs from the reference engine's");
    }
    let mut report = Report::default();
    report.stamp("workload", spec.name);
    report.stamp("seed", args.seed);
    report.stamp("seconds", args.seconds);
    report.stamp("trace", u8::from(args.trace));
    report.stamp("commit", commit());
    report.stamp(
        "available_parallelism",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    report.stamp("nproc", host_cpus());
    report.stamp("facts", inputs.num_facts);
    if args.trace {
        trace::run(
            spec,
            &inputs,
            &oracle,
            args.seed,
            budget,
            &mut tally,
            &mut report,
        );
    } else {
        run_timed(
            spec,
            &inputs,
            &oracle,
            args.seed,
            budget,
            &mut tally,
            &mut report,
        );
    }
    for m in &tally.messages {
        eprintln!("perfbench: FAILED: {m}");
    }
    let correct = tally.failed == 0;
    for (k, v) in &report.stamp {
        eprintln!("# {k} = {v}");
    }
    for (name, value, unit) in &report.metrics {
        eprintln!("{name:>24} {value:>14.4} {unit}");
    }
    eprintln!(
        "{:>24} {:>14.6} ratio ({} of {} operations failed)",
        "error_rate",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    let stamp: Vec<String> = report
        .stamp
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    println!("{{\"stamp\":{{{}}}}}", stamp.join(","));
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                if value.is_finite() { *value } else { 0.0 },
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The untraced run: cold loads, then serving.
fn run_timed(
    spec: &Spec,
    inputs: &gen::Inputs,
    oracle: &oracle::Oracle,
    seed: u64,
    budget: Duration,
    tally: &mut Tally,
    report: &mut Report,
) {
    let cold_budget = budget.mul_f64(COLD_SHARE);
    let cold = timed::cold_phase(inputs, oracle, cold_budget, tally);
    if let Some(m) = &cold.last_model {
        stamp_shape(report, m);
    }
    drop(cold.last_model);
    if !cold.setup_s.is_empty() {
        report.metric("setup_s", stats::median(&cold.setup_s), "s");
    }
    if !cold.samples_ms.is_empty() {
        let s = stats::sorted(&cold.samples_ms);
        report.metric("cold_ms_p50", stats::quantile(&s, 0.5), "ms");
        report.metric("cold_ms_p90", stats::quantile(&s, 0.9), "ms");
    }
    report.stamp("cold_loads", cold.samples_ms.len());
    report.stamp("cold_tail_supported", tail(cold.samples_ms.len()));
    report.stamp("setup_samples", cold.setup_s.len());
    // Serve the last cold-loaded knowledge base for the rest of the run.
    let Some(kb) = cold.kb else {
        return;
    };
    let workers = timed::nproc();
    let (server, addr) = match timed::start_server(kb, workers) {
        Ok(sa) => sa,
        Err(e) => {
            tally.fail(&e);
            return;
        }
    };
    let serve_secs = budget.as_secs_f64() - cold_budget.as_secs_f64();
    if let Some(r) = timed::serve_phase(server, addr, spec, serve_secs, seed, oracle, tally) {
        report.metric("query_p99_us", r.query_p99 * 1e6, "us");
        let ing = stats::sorted(&r.ingest_ms);
        report.metric("ingest_ms_p50", stats::quantile(&ing, 0.5), "ms");
        report.metric("ingest_ms_p90", stats::quantile(&ing, 0.9), "ms");
        let sl = stats::sorted(&r.sliced_ms);
        report.metric("sliced_ms_p50", stats::quantile(&sl, 0.5), "ms");
        report.metric("sliced_ms_p90", stats::quantile(&sl, 0.9), "ms");
        report.stamp("serve_workers", workers);
        report.stamp("base_read_rate", timed::BASE_READ_RATE);
        report.stamp("base_reads", r.reads);
        report.stamp("ingest_rate", timed::INGEST_RATE);
        report.stamp("ingests", r.ingest_ms.len());
        report.stamp("ingest_tail_supported", tail(r.ingest_ms.len()));
        report.stamp("sliced_queries", r.sliced_ms.len());
        report.stamp(
            "base_max_lateness_ms",
            format!("{:.3}", r.max_lateness * 1e3),
        );
        report.stamp(
            "non200_query_ingest_sliced",
            format!("{}/{}/{}", r.non200[0], r.non200[1], r.non200[2]),
        );
    }
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

/// The highest percentile `n` samples support (at least ten samples
/// beyond it), as the stamp reports it next to each `_p90`.
fn tail(n: usize) -> String {
    stats::highest_supported_tail(n).map_or_else(|| "none".into(), |q| format!("p{}", q * 100.0))
}

/// Stamps the shape counters and thread counts of a solved model, so a
/// seed that changes a workload's character shows in the log.
pub fn stamp_shape(report: &mut Report, model: &wfdatalog::SolvedModel) {
    let m = model.model();
    report.stamp("atoms", m.segment.atoms().len());
    report.stamp("ground_rules", m.ground.num_rules());
    let ss = model.solve_stats();
    report.stamp("solve_threads", ss.threads);
    report.stamp(
        "chase_effective_threads",
        m.segment.stats().effective_threads,
    );
    if let Some(ms) = m.component_stats() {
        report.stamp("components", ms.components);
        report.stamp("recursive_components", ms.recursive_components);
        report.stamp("largest_component", ms.largest_component);
    }
}
