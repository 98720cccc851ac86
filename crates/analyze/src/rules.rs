//! The rule set: source-level invariants behind the workspace's
//! determinism and serving-soundness contracts (DESIGN.md §11).
//!
//! | rule | contract it protects |
//! |------|----------------------|
//! | `D1` | no `HashMap`/`HashSet` in deterministic modules — hash iteration order would break bitwise reproducibility (E11–E13) |
//! | `D2` | no raw parallel float reductions — scheduling-dependent summation order breaks thread-count invariance (E12); use the fixed-chunk helpers |
//! | `D3` | no wall clock / ambient randomness / env reads in solver paths — results must be a pure function of (instance, options, seed) |
//! | `R1` | no panics or unchecked indexing on serving request paths — malformed input must surface as typed errors, not process aborts |
//! | `H1` | every `unsafe` block carries a `// SAFETY:` justification (full inventory reported) |
//!
//! These rules see one file at a time. `U1` (exported items nothing uses)
//! needs the whole tree and lives in [`crate::usage`].
//!
//! All matchers work on the lexed token stream ([`crate::lexer`]), so
//! occurrences inside strings, comments, or raw strings never fire, and
//! test-scoped code (path- or `#[cfg(test)]`-based) is exempt from the
//! determinism/robustness rules.

use crate::lexer::{Comment, Tok, TokKind};
use crate::report::{Finding, Severity, UnsafeSite};

/// Crates whose non-test code must stay deterministic (D1/D2/D3).
const DET_CRATES: &[&str] = &["core", "expdot", "linalg", "sparse", "parallel", "serve"];

/// Request-path files (R1): everything between raw client bytes and a
/// rendered response.
const REQUEST_PATHS: &[&str] = &[
    "crates/serve/src/",
    "crates/core/src/io.rs",
    "crates/core/src/bin_io.rs",
    "crates/cli/src/serve.rs",
    "crates/cli/src/jsonfmt.rs",
];

/// Rayon entry points that start a parallel chain (D2).
const PAR_STARTS: &[&str] =
    &["par_iter", "par_iter_mut", "into_par_iter", "par_chunks", "par_chunks_mut", "par_bridge"];

/// Order-sensitive reductions that must not terminate a parallel chain.
const PAR_REDUCERS: &[&str] = &["sum", "product", "reduce", "fold"];

/// Panicking macros banned on request paths.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// `std::env` readers banned in solver paths.
const ENV_READERS: &[&str] = &["var", "var_os", "vars", "vars_os"];

/// How the rules see one file.
pub struct FileInput<'a> {
    /// Workspace-relative path, forward slashes.
    pub path: &'a str,
    /// Token stream.
    pub tokens: &'a [Tok],
    /// Per-token test mask ([`crate::scope::test_mask`]).
    pub test_mask: &'a [bool],
    /// Comments (for H1's `SAFETY:` lookup).
    pub comments: &'a [Comment],
    /// Whole file is test/bench/example code (path-based).
    pub is_test_file: bool,
}

/// The crate a `crates/<name>/src/…` path belongs to, if any.
fn crate_of(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    let (name, tail) = rest.split_once('/')?;
    tail.starts_with("src/").then_some(name)
}

fn in_det_crate(path: &str) -> bool {
    crate_of(path).is_some_and(|c| DET_CRATES.contains(&c))
}

fn on_request_path(path: &str) -> bool {
    REQUEST_PATHS.iter().any(|p| path == *p || (p.ends_with('/') && path.starts_with(p)))
}

/// Run every rule over one file. Returns raw findings (suppressions are
/// applied by the caller) plus the file's `unsafe` inventory.
pub fn check_file(f: &FileInput<'_>) -> (Vec<Finding>, Vec<UnsafeSite>) {
    let mut findings = Vec::new();
    let mut inventory = Vec::new();

    let live = |i: usize| !f.is_test_file && !f.test_mask[i];

    if in_det_crate(f.path) {
        check_d1(f, &live, &mut findings);
        check_d2(f, &live, &mut findings);
        check_d3(f, &live, &mut findings);
    }
    if on_request_path(f.path) {
        check_r1(f, &live, &mut findings);
    }
    check_h1(f, &mut findings, &mut inventory);

    // One finding per (rule, line): `HashMap::<K, V>::new()` is one
    // problem, not three.
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
    (findings, inventory)
}

fn finding(f: &FileInput<'_>, rule: &'static str, line: usize, message: String) -> Finding {
    Finding { rule, severity: Severity::Error, file: f.path.to_string(), line, message }
}

/// D1: hash containers in deterministic modules.
fn check_d1(f: &FileInput<'_>, live: &dyn Fn(usize) -> bool, out: &mut Vec<Finding>) {
    for (i, t) in f.tokens.iter().enumerate() {
        if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") && live(i) {
            out.push(finding(
                f,
                "D1",
                t.line,
                format!(
                    "`{}` in a deterministic module: hash iteration order varies per process, \
                     breaking bitwise reproducibility — use `BTree{}` or sorted-key iteration",
                    t.text,
                    t.text.trim_start_matches("Hash"),
                ),
            ));
        }
    }
}

/// D2: order-sensitive reductions terminating a parallel chain.
fn check_d2(f: &FileInput<'_>, live: &dyn Fn(usize) -> bool, out: &mut Vec<Finding>) {
    for (i, t) in f.tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || !PAR_STARTS.contains(&t.text.as_str()) || !live(i) {
            continue;
        }
        // Scan the rest of the statement at chain depth: a reducer method
        // at depth 0 consumes the parallel iterator itself; anything
        // nested inside `(`…`)` (closure bodies, arguments) does not.
        let mut depth = 0i32;
        let mut j = i + 1;
        while j < f.tokens.len() {
            let u = &f.tokens[j];
            match u.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                }
                ";" | "," if depth == 0 => break,
                _ if u.kind == TokKind::Ident
                    && depth == 0
                    && PAR_REDUCERS.contains(&u.text.as_str())
                    && j > 0
                    && f.tokens[j - 1].text == "." =>
                {
                    out.push(finding(
                        f,
                        "D2",
                        u.line,
                        format!(
                            "`.{}()` on a parallel iterator: float reduction order depends on \
                             work-stealing, breaking thread-count invariance — use the \
                             fixed-chunk deterministic helpers (psdp-parallel / psi.rs)",
                            u.text,
                        ),
                    ));
                }
                _ => {}
            }
            j += 1;
        }
    }
}

/// D3: wall clock, ambient randomness, and env reads in solver paths.
fn check_d3(f: &FileInput<'_>, live: &dyn Fn(usize) -> bool, out: &mut Vec<Finding>) {
    for (i, t) in f.tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || !live(i) {
            continue;
        }
        let msg = match t.text.as_str() {
            "SystemTime" | "Instant" => format!(
                "`{}` in a solver path: results must be a pure function of \
                 (instance, options, seed) — keep wall clocks out, or allowlist the file in \
                 audit.toml if this is telemetry that never feeds back into iteration",
                t.text
            ),
            "thread_rng" => "`thread_rng()` in a solver path: ambient randomness is not \
                             replayable — derive streams from the instance seed \
                             (psdp_parallel::rng)"
                .to_string(),
            "env" if is_env_read(f.tokens, i) => {
                "`std::env` read in a solver path: ambient configuration breaks replayability — \
                 thread options through explicitly"
                    .to_string()
            }
            _ => continue,
        };
        out.push(finding(f, "D3", t.line, msg));
    }
}

/// `env :: var…` starting at the `env` token.
fn is_env_read(tokens: &[Tok], i: usize) -> bool {
    tokens.get(i + 1).is_some_and(|t| t.text == ":")
        && tokens.get(i + 2).is_some_and(|t| t.text == ":")
        && tokens.get(i + 3).is_some_and(|t| ENV_READERS.contains(&t.text.as_str()))
}

/// R1: panics and unchecked indexing on request paths.
fn check_r1(f: &FileInput<'_>, live: &dyn Fn(usize) -> bool, out: &mut Vec<Finding>) {
    for (i, t) in f.tokens.iter().enumerate() {
        if !live(i) {
            continue;
        }
        match t.text.as_str() {
            // `.unwrap()`
            "unwrap"
                if t.kind == TokKind::Ident
                    && prev_is(f.tokens, i, ".")
                    && next_is(f.tokens, i, "(")
                    && f.tokens.get(i + 2).is_some_and(|u| u.text == ")") =>
            {
                out.push(finding(
                    f,
                    "R1",
                    t.line,
                    "`.unwrap()` on a request path: a malformed request must surface as a typed \
                     error response, never a panic"
                        .to_string(),
                ));
            }
            // `.expect("…")` — a string-literal argument distinguishes
            // Option/Result::expect from same-named parser methods.
            "expect"
                if t.kind == TokKind::Ident
                    && prev_is(f.tokens, i, ".")
                    && next_is(f.tokens, i, "(")
                    && f.tokens.get(i + 2).is_some_and(|u| u.kind == TokKind::Str) =>
            {
                out.push(finding(
                    f,
                    "R1",
                    t.line,
                    "`.expect(…)` on a request path: return a typed error instead of panicking"
                        .to_string(),
                ));
            }
            // `panic!` / `unreachable!` / `todo!` / `unimplemented!`
            m if t.kind == TokKind::Ident
                && PANIC_MACROS.contains(&m)
                && next_is(f.tokens, i, "!") =>
            {
                out.push(finding(
                    f,
                    "R1",
                    t.line,
                    format!(
                        "`{m}!` on a request path: unreachable-by-construction claims rot as \
                         code evolves — return a typed internal error instead",
                    ),
                ));
            }
            // `expr[index]` — scalar indexing panics on out-of-range
            // parsed data; range slicing (`[a..b]`) is exempt.
            "[" if is_index_expr(f.tokens, i) => {
                out.push(finding(
                    f,
                    "R1",
                    t.line,
                    "`[]` indexing on a request path: use `.get()` and surface a typed error \
                     (suppress with a reason when the bound is provably checked)"
                        .to_string(),
                ));
            }
            _ => {}
        }
    }
}

fn prev_is(tokens: &[Tok], i: usize, text: &str) -> bool {
    i > 0 && tokens[i - 1].text == text
}

fn next_is(tokens: &[Tok], i: usize, text: &str) -> bool {
    tokens.get(i + 1).is_some_and(|t| t.text == text)
}

/// Keywords that may directly precede a `[` without it being indexing
/// (slice patterns, array-typed/valued positions): `let [a, b] = …`,
/// `return [x]`, `in [..]`, …
const NON_VALUE_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "else", "return", "in", "if", "match", "while", "loop", "move", "box",
    "break", "continue", "yield", "as", "const", "static", "dyn", "impl", "fn", "where",
];

/// Is the `[` at `i` a (non-range) index expression? It must follow a
/// value (`ident`, `)`, `]`) — never `#[attr]`, array literals, types,
/// slice patterns — and its body must not be a range (`..` at bracket
/// depth 1).
fn is_index_expr(tokens: &[Tok], i: usize) -> bool {
    let follows_value = i > 0
        && ((tokens[i - 1].kind == TokKind::Ident
            && !NON_VALUE_KEYWORDS.contains(&tokens[i - 1].text.as_str()))
            || tokens[i - 1].text == ")"
            || tokens[i - 1].text == "]");
    if !follows_value {
        return false;
    }
    let mut depth = 0i32;
    let mut j = i;
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return true; // closed without seeing a range
                }
            }
            "." if depth == 1 && tokens.get(j + 1).is_some_and(|t| t.text == ".") => {
                return false; // `[a..b]` slice — not scalar indexing
            }
            _ => {}
        }
        j += 1;
    }
    true
}

/// H1: `unsafe` blocks must carry a `// SAFETY:` comment (same line or up
/// to three lines above). Every site goes into the inventory either way.
fn check_h1(f: &FileInput<'_>, out: &mut Vec<Finding>, inventory: &mut Vec<UnsafeSite>) {
    for t in f.tokens.iter() {
        if t.kind != TokKind::Ident || t.text != "unsafe" {
            continue;
        }
        let justified = f
            .comments
            .iter()
            .any(|c| c.text.contains("SAFETY:") && c.line <= t.line && c.line + 3 >= t.line);
        inventory.push(UnsafeSite { file: f.path.to_string(), line: t.line, justified });
        if !justified {
            out.push(finding(
                f,
                "H1",
                t.line,
                "`unsafe` without a `// SAFETY:` comment: state the invariant that makes this \
                 sound"
                    .to_string(),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scope::test_mask;

    fn run(path: &str, src: &str) -> Vec<(String, usize)> {
        let l = lex(src);
        let mask = test_mask(&l.tokens);
        let f = FileInput {
            path,
            tokens: &l.tokens,
            test_mask: &mask,
            comments: &l.comments,
            is_test_file: false,
        };
        check_file(&f).0.into_iter().map(|x| (x.rule.to_string(), x.line)).collect()
    }

    const CORE: &str = "crates/core/src/solver.rs";
    const SERVE: &str = "crates/serve/src/scheduler.rs";

    #[test]
    fn d1_fires_on_hash_containers_only_in_scope() {
        let src = "use std::collections::HashMap;\nfn f(m: &HashMap<u8, u8>) {}\n";
        let hits = run(CORE, src);
        assert_eq!(hits, [("D1".to_string(), 1), ("D1".to_string(), 2)]);
        // Out-of-scope crate: no findings.
        assert!(run("crates/workloads/src/graphs.rs", src).is_empty());
        // String/comment mentions: no findings.
        assert!(run(CORE, "// HashMap\nlet s = \"HashMap\";\n").is_empty());
        // Test module: no findings.
        assert!(run(CORE, "#[cfg(test)]\nmod t { use std::collections::HashMap; }\n").is_empty());
    }

    #[test]
    fn d2_fires_on_parallel_reductions_not_sequential_ones() {
        assert_eq!(run(CORE, "let s: f64 = xs.par_iter().map(f).sum();\n"), [("D2".into(), 1)]);
        assert_eq!(
            run(CORE, "let s = xs.into_par_iter().reduce(|| 0.0, g);\n"),
            [("D2".into(), 1)]
        );
        // Sequential sum: fine.
        assert!(run(CORE, "let s: f64 = xs.iter().sum();\n").is_empty());
        // Sum *inside* a closure argument is sequential per item: fine.
        assert!(run(CORE, "let v: Vec<f64> = xs.par_iter().map(|r| r.iter().sum()).collect();\n")
            .is_empty());
        // Reducer in the *next* statement is not part of the chain.
        assert!(run(
            CORE,
            "let v: Vec<f64> = xs.par_iter().map(f).collect();\nlet s: f64 = v.iter().sum();\n"
        )
        .is_empty());
    }

    #[test]
    fn d3_fires_on_clock_rng_env() {
        assert_eq!(run(CORE, "let t = Instant::now();\n"), [("D3".into(), 1)]);
        assert_eq!(run(CORE, "let t = SystemTime::now();\n"), [("D3".into(), 1)]);
        assert_eq!(run(CORE, "let mut r = rand::thread_rng();\n"), [("D3".into(), 1)]);
        assert_eq!(run(CORE, "let v = std::env::var(\"X\");\n"), [("D3".into(), 1)]);
        // `env` not followed by a reader: fine (e.g. a local named env).
        assert!(run(CORE, "let env = 3; let y = env + 1;\n").is_empty());
    }

    #[test]
    fn r1_fires_on_panics_and_indexing() {
        assert_eq!(run(SERVE, "let v = x.unwrap();\n"), [("R1".into(), 1)]);
        assert_eq!(run(SERVE, "let v = x.expect(\"must\");\n"), [("R1".into(), 1)]);
        assert_eq!(run(SERVE, "unreachable!(\"no\");\n"), [("R1".into(), 1)]);
        assert_eq!(run(SERVE, "let v = toks[2];\n"), [("R1".into(), 1)]);
        assert_eq!(run(SERVE, "let v = parts(0)[idx];\n"), [("R1".into(), 1)]);
        // Parser method named `expect` with a byte-literal arg: fine.
        assert!(run(SERVE, "self.expect(b'\"')?;\n").is_empty());
        // Range slicing: fine.
        assert!(run(SERVE, "let v = &bytes[pos..pos + 4];\n").is_empty());
        // Attributes and array literals: fine.
        assert!(run(SERVE, "#[derive(Debug)]\nstruct S { a: [f64; 3] }\n").is_empty());
        // Slice patterns: fine.
        assert!(run(SERVE, "let [a, b] = parts else { return None };\n").is_empty());
        assert!(run(SERVE, "if let [x, rest @ ..] = toks { f(x); }\n").is_empty());
        // Out of scope (solver internals may index freely): fine.
        assert!(run(CORE, "let v = toks[2];\n").is_empty());
    }

    /// The `crates/serve/src/` prefix keeps every service file — present
    /// and future — on the R1 request path; pin the files the persistent
    /// streaming service added (DESIGN.md §13) so a path refactor cannot
    /// silently drop them out of coverage.
    #[test]
    fn r1_covers_the_streaming_service_files() {
        for path in [
            "crates/serve/src/service.rs",
            "crates/serve/src/shard.rs",
            "crates/serve/src/snapshot.rs",
            "crates/serve/src/telemetry.rs",
            "crates/serve/src/transport.rs",
            "crates/cli/src/serve.rs",
        ] {
            assert_eq!(run(path, "let v = x.unwrap();\n"), [("R1".into(), 1)], "{path}");
            assert_eq!(run(path, "let v = toks[2];\n"), [("R1".into(), 1)], "{path}");
        }
        // The serve crate is also a determinism crate: hash-order
        // containers in the service are D1 findings, not just style.
        assert_eq!(
            run("crates/serve/src/service.rs", "use std::collections::HashMap;\n"),
            [("D1".into(), 1)]
        );
    }

    #[test]
    fn h1_requires_safety_comment_and_inventories() {
        let src = "// SAFETY: len checked above\nlet p = unsafe { x.get_unchecked(0) };\n";
        let l = lex(src);
        let mask = test_mask(&l.tokens);
        let f = FileInput {
            path: "crates/linalg/src/vecops.rs",
            tokens: &l.tokens,
            test_mask: &mask,
            comments: &l.comments,
            is_test_file: false,
        };
        let (findings, inv) = check_file(&f);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(inv.len(), 1);
        assert!(inv[0].justified);

        let hits = run("crates/linalg/src/vecops.rs", "let p = unsafe { *q };\n");
        assert_eq!(hits, [("H1".into(), 1)]);
    }

    #[test]
    fn test_files_are_exempt_from_det_and_request_rules() {
        let l = lex("let v = x.unwrap(); use std::collections::HashMap;\n");
        let mask = test_mask(&l.tokens);
        let f = FileInput {
            path: "crates/serve/src/cache.rs",
            tokens: &l.tokens,
            test_mask: &mask,
            comments: &l.comments,
            is_test_file: true,
        };
        assert!(check_file(&f).0.is_empty());
    }
}
