//! `seccloud-lint`: in-house static analysis for the SecCloud workspace.
//!
//! SecCloud's audit pipeline is only as trustworthy as its implementation:
//! a panicking decoder is a remote denial-of-service, a `Debug`-printed
//! master secret breaks the designated-verifier property, and a
//! short-circuiting digest comparison is a timing oracle on the very tags
//! the auditor relies on. This crate machine-checks those invariants with
//! a dependency-free token-level analysis (no `syn`, matching the
//! workspace's zero-dependency rule) and a `seccloud-lint` binary that
//! `ci.sh` runs as a hard gate.
//!
//! See [`rules`] for the rule set and the annotation grammar, and
//! `DESIGN.md` §9 for the paper property each rule protects.
//!
//! # Examples
//!
//! ```
//! use analyzer::{lint_files, RULE_PANIC};
//! let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }".to_string();
//! let report = lint_files(&[("crates/core/src/f.rs".into(), src)], false);
//! assert_eq!(report.findings.len(), 1);
//! assert_eq!(report.findings[0].rule, RULE_PANIC);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
mod astrules;
mod atomics;
mod blocking;
pub mod callgraph;
pub mod lexer;
mod locks;
pub mod rules;
pub mod sarif;
mod secretflow;

pub use rules::{
    lint_files, Allowance, Finding, Report, ALL_RULES, RULE_ANNOTATION, RULE_ARITH, RULE_ATOMICS,
    RULE_BLOCKING, RULE_CT, RULE_CTFLOW, RULE_DEADLINE, RULE_DISPATCH, RULE_INDEX, RULE_LOCKS,
    RULE_PANIC, RULE_PANIC_PATH, RULE_SECRET, RULE_TAINT, RULE_UNSAFE, RULE_VARTIME,
};
pub use sarif::render_sarif;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: [&str; 4] = ["target", ".git", "fixtures", "node_modules"];

/// Collects every `.rs` file under `root` (skipping `target/`, `.git/` and
/// test `fixtures/`), returning `(workspace-relative path, source)` pairs
/// sorted by path for deterministic reports.
///
/// # Errors
///
/// Propagates I/O errors from the directory walk.
pub fn collect_files(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut paths = Vec::new();
    walk(root, root, &mut paths)?;
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for rel in paths {
        let src = fs::read_to_string(root.join(&rel))?;
        out.push((rel.replace('\\', "/"), src));
    }
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().into_owned());
            }
        }
    }
    Ok(())
}

/// Lints a whole workspace rooted at `root` with path-scoped rules.
///
/// # Errors
///
/// Propagates I/O errors from the file walk.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let files = collect_files(root)?;
    Ok(lint_files(&files, false))
}

/// Lints one file with **all** rules enabled (fixture / spot-check mode).
///
/// # Errors
///
/// Propagates the read error if `path` is unreadable.
pub fn lint_single_file(path: &Path) -> io::Result<Report> {
    let src = fs::read_to_string(path)?;
    let rel: PathBuf = path.to_path_buf();
    Ok(lint_files(
        &[(rel.to_string_lossy().into_owned(), src)],
        true,
    ))
}

/// Renders the findings as machine-readable JSON: a sorted array of
/// `{"rule", "file", "line", "message"}` objects that future PRs can diff.
#[must_use]
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("[\n");
    for (i, f) in report.findings.iter().enumerate() {
        let sep = if i + 1 == report.findings.len() {
            ""
        } else {
            ","
        };
        out.push_str(&format!(
            "  {{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}{sep}\n",
            json_escape(f.rule),
            json_escape(&f.file),
            f.line,
            json_escape(&f.message),
        ));
    }
    out.push_str("]\n");
    out
}

/// Renders the full `--baseline` document: the findings array (same shape
/// as [`render_json`]) plus every allowance with its reason. CI diffs this
/// against the committed baseline in `crates/baselines/`, so a new
/// allowance (or a dropped one) fails the gate until committed
/// deliberately.
#[must_use]
pub fn render_baseline_json(report: &Report) -> String {
    let mut out = String::from("{\n\"findings\": ");
    out.push_str(render_json(report).trim_end());
    out.push_str(",\n\"allowances\": [\n");
    for (i, a) in report.allowances.iter().enumerate() {
        let sep = if i + 1 == report.allowances.len() {
            ""
        } else {
            ","
        };
        out.push_str(&format!(
            "  {{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"reason\":\"{}\"}}{sep}\n",
            json_escape(&a.rule),
            json_escape(&a.file),
            a.line,
            json_escape(&a.reason),
        ));
    }
    out.push_str("]\n}\n");
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_output_is_well_formed_and_escaped() {
        let report = Report {
            findings: vec![Finding {
                rule: RULE_PANIC,
                file: "a \"b\"\\c.rs".to_string(),
                line: 3,
                message: "line1\nline2".to_string(),
            }],
            allowances: Vec::new(),
            files: 1,
        };
        let json = render_json(&report);
        assert!(json.contains(r#""rule":"panic""#));
        assert!(json.contains(r#"a \"b\"\\c.rs"#));
        assert!(json.contains(r"line1\nline2"));
        assert!(json.trim_end().ends_with(']'));
    }

    #[test]
    fn empty_report_renders_empty_array() {
        assert_eq!(render_json(&Report::default()).trim(), "[\n]".trim());
    }
}
