//! `lint_corpus`: repeated `analyzer::lint_files` over a frozen corpus.
//!
//! The corpus is every `.rs` file `seccloud-lint` would walk at one fixed
//! commit, bundled into one text file (see `make_corpus.py`). Keeping it
//! frozen stops later code growth from moving the number, and keeping it
//! out of `.rs` files stops the lint from walking it.

use std::path::Path;
use std::time::Instant;

use analyzer::{lint_files, Allowance, Finding};
use seccloud_hash::Sha256;

use crate::stats::median_of;
use crate::trace::{Breakdown, Clock, Tracer};
use crate::Outcome;

/// The commit the corpus was taken from.
pub const CORPUS_REV: &str = "b9e87482b01ee8da94df4cce083c97880e764482";
const CORPUS_FILE: &str = "corpus/lint-corpus.txt";
const MAGIC: &str = "seccloud-lint-corpus v1";

pub struct LintWorld {
    files: Vec<(String, String)>,
    findings: Vec<Finding>,
    allowances: Vec<Allowance>,
    traced: bool,
}

/// Parses the bundle and checks its digest: a header (magic, `rev`,
/// `files`, `sha256`) then, per file, `--- <path> <byte length>`, the
/// bytes, and a newline. The digest covers every path, length and body.
pub fn load_lint_corpus(bench_dir: &Path) -> Result<Vec<(String, String)>, String> {
    let path = bench_dir.join(CORPUS_FILE);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut rest = text.as_str();
    let mut header = |key: &str| -> Result<String, String> {
        let (line, tail) = rest.split_once('\n').ok_or("truncated corpus header")?;
        rest = tail;
        if key.is_empty() {
            return (line == MAGIC)
                .then(String::new)
                .ok_or(format!("bad magic {line:?}"));
        }
        line.strip_prefix(key)
            .map(str::to_string)
            .ok_or(format!("expected {key:?}, got {line:?}"))
    };
    header("")?;
    let rev = header("rev ")?;
    let count: usize = header("files ")?.parse().map_err(|_| "bad file count")?;
    let digest = header("sha256 ")?;
    if rev != CORPUS_REV {
        return Err(format!("corpus is from {rev}, expected {CORPUS_REV}"));
    }
    let mut hasher = Sha256::new();
    let mut files = Vec::with_capacity(count);
    for _ in 0..count {
        let (line, tail) = rest.split_once('\n').ok_or("truncated file header")?;
        let (name, len) = line
            .strip_prefix("--- ")
            .and_then(|l| l.rsplit_once(' '))
            .ok_or(format!("bad file header {line:?}"))?;
        let len: usize = len.parse().map_err(|_| "bad file length")?;
        let body = tail.get(..len).ok_or("truncated file body")?;
        rest = tail
            .get(len..)
            .and_then(|t| t.strip_prefix('\n'))
            .ok_or("missing separator")?;
        hasher.update(name.as_bytes());
        hasher.update(&[0]);
        hasher.update(&(len as u64).to_be_bytes());
        hasher.update(body.as_bytes());
        files.push((name.to_string(), body.to_string()));
    }
    let hex: String = hasher
        .finalize()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    if hex != digest || !rest.is_empty() {
        return Err("corpus digest mismatch".into());
    }
    Ok(files)
}

/// Loads the corpus and lints it once; that first report is the reference
/// every timed repetition must reproduce.
pub fn setup_lint_world(bench_dir: &Path, traced: bool) -> LintWorld {
    let files = load_lint_corpus(bench_dir).unwrap_or_else(|e| panic!("lint corpus: {e}"));
    let reference = lint_files(&files, false);
    LintWorld {
        files,
        findings: reference.findings,
        allowances: reference.allowances,
        traced,
    }
}

/// Lexer passes over the corpus in a traced run; `analyzer.lex_ms` is
/// their median.
const LEX_PASSES: usize = 5;

pub fn measure_lint(world: LintWorld, seconds: f64) -> Outcome {
    let mut tracer = Tracer::new(Clock::new(), 1, world.traced);
    let mut latencies_ms = Vec::new();
    let mut failed = 0;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let job = tracer.reserve_id();
        let job_start = tracer.now_ns();
        let t0 = Instant::now();
        let report = lint_files(&world.files, false);
        let elapsed = t0.elapsed().as_secs_f64();
        tracer.record(job, 0, "job.lint", job_start);
        latencies_ms.push(elapsed * 1e3);
        if report.findings != world.findings || report.allowances != world.allowances {
            eprintln!(
                "lint repetition {} differs from the reference report",
                latencies_ms.len()
            );
            failed += 1;
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let spans = tracer.into_spans();
    let mut layer = vec![
        ("analyzer.findings", world.findings.len() as f64),
        ("analyzer.allowances", world.allowances.len() as f64),
    ];
    if world.traced {
        // The lexer alone, after the measured loop: the share of a lint
        // pass spent tokenizing.
        let lex_ms: Vec<f64> = (0..LEX_PASSES)
            .map(|_| {
                let t0 = Instant::now();
                for (_, src) in &world.files {
                    std::hint::black_box(analyzer::lexer::lex(src));
                }
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        layer.push(("analyzer.lex_ms", median_of(&lex_ms)));
        layer.extend(crate::breakdown_metrics(&Breakdown::from_spans(&spans)));
    }
    Outcome {
        latencies_ms,
        failed,
        wall_s,
        delivered: 1.0,
        layer,
        spans,
        ..Outcome::default()
    }
}
