//! `psdp-analyze` — the workspace determinism & robustness audit
//! (`psdp-audit`).
//!
//! A dependency-free static-analysis pass over the workspace's Rust
//! sources, enforcing the source-level invariants behind the project's
//! reproducibility contracts (DESIGN.md §11): no hash-order iteration in
//! deterministic modules (`D1`), no scheduling-dependent float reductions
//! (`D2`), no ambient clocks/randomness/env in solver paths (`D3`), no
//! panics or unchecked indexing on serving request paths (`R1`), a
//! `SAFETY:`-justified inventory of every `unsafe` block (`H1`), and no
//! exported items that nothing uses (`U1`, a warning).
//!
//! The pipeline per file: [`lexer::lex`] → [`scope::test_mask`] →
//! [`suppress::parse_suppressions`] → [`rules::check_file`]. Once every
//! file is through, U1 runs across the whole tree ([`usage::Index`]); then,
//! per file, inline suppressions → `audit.toml` allowlist ([`config`]) →
//! [`report::Report`]. Three meta-rules keep the escape hatches honest:
//! `S1` (malformed suppression, error), `S2` (suppression that matched
//! nothing, warning), `S3` (allowlist entry that matched nothing,
//! warning). Warnings are fatal under `--deny-warnings`, which is how CI
//! runs.
//!
//! Everything here is hand-rolled (lexer, TOML subset, JSON writer): the
//! build environment is offline, and the audit must never be the thing
//! that drags nondeterministic or unvetted dependencies into the tree.

pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scope;
pub mod suppress;
pub mod usage;

use std::path::{Path, PathBuf};

use report::{Finding, Report, Severity};
use rules::FileInput;

/// Directories never walked (fixtures are audit *inputs*, shims are
/// test-only stand-ins for external crates, target/.git are artifacts).
const SKIP_DIRS: &[&str] = &["target", ".git", "tests/fixtures", "crates/shims"];

/// Audit options.
#[derive(Debug, Default)]
pub struct Options {
    /// Explicit `audit.toml` path; `None` means `<root>/audit.toml` if it
    /// exists, else an empty config.
    pub config_path: Option<PathBuf>,
}

/// Run the audit over the workspace at `root`.
///
/// # Errors
/// A human-readable message when the root is unreadable or the config is
/// malformed. Unreadable individual source files are reported the same
/// way — an audit that silently skips files is worse than one that fails.
pub fn run_audit(root: &Path, opts: &Options) -> Result<Report, String> {
    let mut cfg = load_config(root, opts)?;
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort();

    let mut report = Report::default();
    let mut tree = Tree::default();
    for rel in &files {
        let abs = root.join(rel);
        let src = std::fs::read_to_string(&abs)
            .map_err(|e| format!("{}: cannot read: {e}", rel.display()))?;
        tree.add(&rel_str(rel), &src, &mut report);
    }
    tree.finish(&mut cfg, &mut report);
    report.files_scanned = files.len();

    for e in cfg.allows.iter().filter(|e| !e.used) {
        report.findings.push(Finding {
            rule: "S3",
            severity: Severity::Warning,
            file: config_name(root, opts),
            line: e.line,
            message: format!(
                "allowlist entry (rule `{}`, path `{}`) matched no finding — remove it so the \
                 exemption cannot outlive its cause",
                e.rule, e.path,
            ),
        });
    }
    report.sort();
    Ok(report)
}

/// Audit a single in-memory source file with the per-file rules,
/// appending to `report`. Public so the fixture corpus tests can drive
/// exact sources through the full per-file pipeline (suppressions and
/// config included). U1 needs a tree to look for callers in; see
/// [`audit_sources`].
pub fn audit_source(rel_path: &str, src: &str, cfg: &mut config::Config, report: &mut Report) {
    FileAudit::new(rel_path, src, None, report).settle(Vec::new(), cfg, report);
}

/// Audit in-memory sources as one tree, exactly as [`run_audit`] audits
/// the walked workspace: the per-file rules on each file, then U1 across
/// all of them. Appends to `report`.
pub fn audit_sources(files: &[(&str, &str)], cfg: &mut config::Config, report: &mut Report) {
    let mut tree = Tree::default();
    for (rel_path, src) in files {
        tree.add(rel_path, src, report);
    }
    tree.finish(cfg, report);
}

/// The files of one audit, held until the tree-wide U1 pass has run.
#[derive(Default)]
struct Tree {
    files: Vec<FileAudit>,
    usage: usage::Index,
}

impl Tree {
    fn add(&mut self, rel_path: &str, src: &str, report: &mut Report) {
        self.files.push(FileAudit::new(rel_path, src, Some(&mut self.usage), report));
    }

    fn finish(self, cfg: &mut config::Config, report: &mut Report) {
        for file in self.files {
            let unused = file.usage.map(|u| self.usage.unused(u)).into_iter().flatten();
            let u1 = unused
                .map(|c| Finding {
                    rule: "U1",
                    severity: Severity::Warning,
                    file: file.path.clone(),
                    line: c.line,
                    message: format!(
                        "`pub {} {}` is used nowhere else in the workspace (re-exports and this \
                         file's tests do not count) — delete it, narrow its visibility, or keep \
                         it with an inline `allow(U1, reason = …)` that says who it is for",
                        c.kind, c.name,
                    ),
                })
                .collect();
            file.settle(u1, cfg, report);
        }
    }
}

/// One file after the per-file rules: its raw findings and suppressions,
/// waiting for any tree-wide findings before suppressions are applied.
struct FileAudit {
    path: String,
    findings: Vec<Finding>,
    supps: Vec<suppress::Suppression>,
    /// Position in the tree's [`usage::Index`], when indexed.
    usage: Option<usize>,
}

impl FileAudit {
    /// Lex `src`, run the per-file rules, and add the file to `index` when
    /// given. Malformed suppressions (S1) and the `unsafe` inventory go
    /// straight to `report`.
    fn new(
        rel_path: &str,
        src: &str,
        index: Option<&mut usage::Index>,
        report: &mut Report,
    ) -> Self {
        let lexed = lexer::lex(src);
        let mask = scope::test_mask(&lexed.tokens);
        let (supps, bad) = suppress::parse_suppressions(&lexed.comments);

        for b in bad {
            report.findings.push(Finding {
                rule: "S1",
                severity: Severity::Error,
                file: rel_path.to_string(),
                line: b.line,
                message: format!("malformed suppression: {}", b.message),
            });
        }

        let is_test_file = is_test_path(rel_path);
        let input = FileInput {
            path: rel_path,
            tokens: &lexed.tokens,
            test_mask: &mask,
            comments: &lexed.comments,
            is_test_file,
        };
        let (findings, unsafe_sites) = rules::check_file(&input);
        report.unsafe_sites.extend(unsafe_sites);
        let usage = index.map(|ix| ix.add(&lexed.tokens, &mask, is_test_file));
        FileAudit { path: rel_path.to_string(), findings, supps, usage }
    }

    /// Apply inline suppressions, then the allowlist, to this file's
    /// findings plus `extra`; report what survives and every suppression
    /// that matched nothing (S2).
    fn settle(mut self, extra: Vec<Finding>, cfg: &mut config::Config, report: &mut Report) {
        for f in self.findings.into_iter().chain(extra) {
            if suppress::covered(&mut self.supps, f.rule, f.line) {
                report.suppressions_used += 1;
            } else if !cfg.allows_finding(f.rule, &self.path) {
                report.findings.push(f);
            }
        }

        for s in self.supps.iter().filter(|s| !s.used) {
            report.findings.push(Finding {
                rule: "S2",
                severity: Severity::Warning,
                file: self.path.clone(),
                line: s.line,
                message: format!(
                    "suppression for `{}` matched no finding — remove it so it cannot mask a \
                     future violation",
                    s.rules.join(", "),
                ),
            });
        }
    }
}

fn load_config(root: &Path, opts: &Options) -> Result<config::Config, String> {
    let path = match &opts.config_path {
        Some(p) => p.clone(),
        None => {
            let default = root.join("audit.toml");
            if !default.exists() {
                return Ok(config::Config::default());
            }
            default
        }
    };
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: cannot read config: {e}", path.display()))?;
    config::parse_config(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn config_name(root: &Path, opts: &Options) -> String {
    match &opts.config_path {
        Some(p) => p.display().to_string(),
        None => root.join("audit.toml").display().to_string(),
    }
}

/// Collect workspace-relative paths of every `.rs` file under `dir`,
/// skipping [`SKIP_DIRS`]. Sorted by the caller for a deterministic walk —
/// the audit holds itself to its own rules.
fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("{}: cannot read dir: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: read_dir entry: {e}", dir.display()))?;
        let path = entry.path();
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        if path.is_dir() {
            if SKIP_DIRS.iter().any(|s| rel_str(&rel) == *s) {
                continue;
            }
            walk(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(rel);
        }
    }
    Ok(())
}

/// Workspace-relative path with forward slashes (stable across platforms
/// for rule scoping and report output).
fn rel_str(p: &Path) -> String {
    p.to_string_lossy().replace('\\', "/")
}

/// Path-based test classification: integration tests, benches, examples
/// and the `perfbench/` benchmark harness are exempt from the
/// determinism/robustness rules (H1 still applies everywhere), and their
/// `pub` items are not U1 candidates — though their uses count.
fn is_test_path(rel: &str) -> bool {
    rel.starts_with("tests/")
        || rel.starts_with("benches/")
        || rel.starts_with("examples/")
        || rel.starts_with("perfbench/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audit_one(path: &str, src: &str) -> Report {
        let mut cfg = config::Config::default();
        let mut report = Report::default();
        audit_source(path, src, &mut cfg, &mut report);
        report.sort();
        report
    }

    #[test]
    fn suppressed_finding_is_counted_not_reported() {
        let src = "// psdp-audit: allow(D1, reason = \"keys are sorted before iteration\")\n\
                   use std::collections::HashMap;\n";
        let r = audit_one("crates/core/src/solver.rs", src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.suppressions_used, 1);
    }

    #[test]
    fn unused_suppression_is_a_warning() {
        let src = "// psdp-audit: allow(D1, reason = \"nothing here\")\nfn f() {}\n";
        let r = audit_one("crates/core/src/solver.rs", src);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, "S2");
        assert_eq!(r.findings[0].severity, Severity::Warning);
        assert!(!r.is_clean(true));
        assert!(r.is_clean(false));
    }

    #[test]
    fn malformed_suppression_is_an_error() {
        let src = "// psdp-audit: allow(D1)\nuse std::collections::HashMap;\n";
        let r = audit_one("crates/core/src/solver.rs", src);
        // S1 for the malformed comment, and the D1 still fires (a broken
        // suppression must not suppress).
        let rules: Vec<&str> = r.findings.iter().map(|f| f.rule).collect();
        assert_eq!(rules, ["S1", "D1"]);
    }

    #[test]
    fn config_allowlist_exempts_and_tracks_use() {
        let mut cfg = config::parse_config(
            "[[allow]]\nrule = \"D3\"\npath = \"crates/core/src/solver.rs\"\nreason = \"telemetry\"\n",
        )
        .unwrap();
        let mut report = Report::default();
        audit_source(
            "crates/core/src/solver.rs",
            "let t = Instant::now();\n",
            &mut cfg,
            &mut report,
        );
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert!(cfg.allows[0].used);
    }

    #[test]
    fn test_paths_are_classified() {
        assert!(is_test_path("tests/determinism.rs"));
        assert!(is_test_path("crates/core/tests/props.rs"));
        assert!(is_test_path("crates/bench/benches/psi.rs"));
        assert!(is_test_path("examples/solve.rs"));
        assert!(is_test_path("perfbench/src/main.rs"));
        assert!(!is_test_path("crates/core/src/solver.rs"));
        // A module merely *named* tests under src/ is still live code.
        assert!(!is_test_path("crates/core/src/tests_util.rs"));
    }
}
