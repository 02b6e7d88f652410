//! Correctness: verdict digests of solved models and the reference
//! oracle, computed once per run before any timing, in a child process
//! so its memory never shows in the workload's peak RSS.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use wfdatalog::{EngineKind, KnowledgeBase, SolvedModel, Truth};

use crate::gen::Inputs;
use crate::stats::{fnv1a, Digest};

/// Digest of a solved model (see [`Digest`]); `render` adds the
/// `render_true()` hash.
pub fn digest(model: &SolvedModel, answers: &[wfdatalog::AnswerSet], render: bool) -> Digest {
    let u = model.universe();
    let mut counts: BTreeMap<&str, (usize, usize, usize)> = BTreeMap::new();
    let mut verdicts = Vec::with_capacity(model.model().segment.atoms().len());
    for sa in model.model().segment.atoms() {
        let e = counts
            .entry(u.pred_name(u.atoms.pred(sa.atom)))
            .or_default();
        let v = model.value(sa.atom);
        match v {
            Truth::True => e.0 += 1,
            Truth::False => e.1 += 1,
            Truth::Unknown => e.2 += 1,
        }
        verdicts.push(v as u8);
    }
    let answers = answers
        .iter()
        .map(|set| answer_digest(model, set))
        .collect();
    Digest {
        counts: counts
            .into_iter()
            .map(|(p, (t, f, un))| (p.to_owned(), t, f, un))
            .collect(),
        verdict_hash: fnv1a(&verdicts),
        render_hash: render.then(|| fnv1a(model.render_true().as_bytes())),
        answers,
    }
}

/// `(count, hash)` of one answer set, order-independent.
pub fn answer_digest(model: &SolvedModel, set: &wfdatalog::AnswerSet) -> (usize, u64) {
    let u = model.universe();
    let mut rows: Vec<String> = set
        .tuples()
        .iter()
        .map(|t| {
            t.iter()
                .map(|&x| u.display_term(x).to_string())
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    rows.sort();
    (rows.len(), fnv1a(rows.join("\n").as_bytes()))
}

/// What every timed operation is checked against.
#[derive(Clone, Debug)]
pub struct Oracle {
    pub digest: Digest,
    /// Whether the production engine's full digest, `render_true()` hash
    /// included, matched the reference engine's in the oracle process.
    pub production_agrees: bool,
    /// Expected truth (`true`/`false`/`unknown`) of every read and sliced
    /// key, as the serving tier renders it.
    pub truth: BTreeMap<String, String>,
}

/// Solves `inputs` with `engine` (`None`: the library default) and
/// returns the model with its full digest.
fn solve_with(
    inputs: &Inputs,
    engine: Option<EngineKind>,
) -> Result<(std::sync::Arc<SolvedModel>, Digest), String> {
    let mut kb = KnowledgeBase::from_source(&inputs.rules).map_err(|e| e.to_string())?;
    if let Some(engine) = engine {
        kb = kb.with_engine(engine);
    }
    kb.insert_tsv(&inputs.facts_tsv)
        .map_err(|e| e.to_string())?;
    let model = kb.try_solve().map_err(|e| e.to_string())?;
    let answers = model.answer_all(model.source_queries());
    let d = digest(&model, &answers, true);
    Ok((model, d))
}

/// Solves `inputs` with the alternating-fixpoint reference engine and
/// prints the oracle in line form; also solves with the default engine
/// and reports whether the two full digests agree. Runs in the child
/// process, so rendering the model never counts toward the workload's
/// memory.
pub fn print_oracle(inputs: &Inputs, keys: &[String]) -> Result<(), String> {
    let (model, reference) = solve_with(inputs, Some(EngineKind::Alternating))?;
    let (_, production) = solve_with(inputs, None)?;
    let mut out = reference.to_lines();
    out.push_str(&format!("production_agrees {}\n", production == reference));
    for key in keys {
        let t = model.ask3(key).map_err(|e| e.to_string())?;
        out.push_str(&format!("truth {key}\t{t}\n"));
    }
    print!("{out}");
    Ok(())
}

/// Runs the oracle child (this executable with `--oracle`) and parses its
/// output.
pub fn compute(workload: &str, seed: u64) -> Result<Oracle, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--oracle", workload, "--seed", &seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("oracle process: {e}"))?;
    if !out.status.success() {
        return Err(format!("oracle process failed: {}", out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| e.to_string())?;
    let digest = Digest::from_lines(&text)?;
    let production_agrees = text.lines().any(|l| l == "production_agrees true");
    let truth = text
        .lines()
        .filter_map(|l| l.strip_prefix("truth "))
        .filter_map(|l| l.split_once('\t'))
        .map(|(k, v)| (k.to_owned(), v.to_owned()))
        .collect();
    Ok(Oracle {
        digest,
        production_agrees,
        truth,
    })
}
