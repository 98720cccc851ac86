//! `U1`: exported items nothing uses.
//!
//! A `pub` item in shipping code whose identifier appears nowhere else in
//! the walked tree — not in another file, and not in its own file outside
//! that file's test code — is surface without a caller: it costs reading,
//! testing and keeping in step, and buys nothing. Uses anywhere else count,
//! including integration tests, benches, examples and the benchmark
//! harness, so reference implementations those exercise stay. Mentions
//! inside `pub use …;` re-exports do not count: re-exporting an item is
//! not using it.
//!
//! Unlike the per-file rules in [`crate::rules`], U1 needs the whole tree,
//! so it runs as a second pass over an [`Index`] built from every file's
//! token stream. Matching is by identifier, not by resolved path, so it
//! errs towards silence: a name defined or mentioned in two places is
//! never reported.

use std::collections::BTreeMap;

use crate::lexer::{Tok, TokKind};

/// Keywords that introduce a named item after `pub`.
const ITEM_KEYWORDS: &[&str] =
    &["fn", "struct", "enum", "trait", "type", "const", "static", "union"];

/// Qualifiers that may sit between `pub` and an item keyword
/// (`pub const fn`, `pub unsafe extern "C" fn`, `pub async fn`).
const QUALIFIERS: &[&str] = &["const", "unsafe", "async", "extern"];

/// One `pub` item defined in shipping code.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Item keyword (`fn`, `struct`, …).
    pub kind: &'static str,
    /// The item's identifier.
    pub name: String,
    /// 1-based line of the identifier.
    pub line: usize,
    /// Occurrences of `name` in the defining file (re-exports excluded).
    own_all: usize,
    /// Of those, the ones outside the file's test code (the definition
    /// itself included).
    own_live: usize,
}

/// Identifier occurrences across the tree and each file's `pub` items.
#[derive(Debug, Default)]
pub struct Index {
    /// Occurrences of each identifier in every indexed file, re-exports
    /// excluded.
    counts: BTreeMap<String, usize>,
    /// Per indexed file, in insertion order: its candidates.
    files: Vec<Vec<Candidate>>,
}

impl Index {
    /// Index one file and return its position. `test_mask` marks the
    /// file's test code; a test file (`is_test_file`) contributes uses but
    /// no candidates.
    pub fn add(&mut self, tokens: &[Tok], test_mask: &[bool], is_test_file: bool) -> usize {
        let reexport = reexport_mask(tokens);
        let mut all: BTreeMap<&str, usize> = BTreeMap::new();
        let mut live: BTreeMap<&str, usize> = BTreeMap::new();
        for (i, t) in tokens.iter().enumerate() {
            if t.kind != TokKind::Ident || reexport[i] {
                continue;
            }
            *all.entry(t.text.as_str()).or_default() += 1;
            if !test_mask[i] {
                *live.entry(t.text.as_str()).or_default() += 1;
            }
        }

        let mut candidates = Vec::new();
        if !is_test_file {
            for (i, t) in tokens.iter().enumerate() {
                if t.kind != TokKind::Ident || t.text != "pub" || test_mask[i] || reexport[i] {
                    continue;
                }
                if let Some((kind, at)) = pub_item(tokens, i) {
                    let name = tokens[at].text.as_str();
                    candidates.push(Candidate {
                        kind,
                        name: name.to_string(),
                        line: tokens[at].line,
                        own_all: all.get(name).copied().unwrap_or(0),
                        own_live: live.get(name).copied().unwrap_or(0),
                    });
                }
            }
        }

        for (name, n) in all {
            *self.counts.entry(name.to_string()).or_default() += n;
        }
        self.files.push(candidates);
        self.files.len() - 1
    }

    /// The candidates of file `file` (an [`Index::add`] return value) that
    /// nothing uses: no occurrence in any other file and none in their own
    /// file's shipping code beyond the definition.
    pub fn unused(&self, file: usize) -> impl Iterator<Item = &Candidate> {
        self.files.get(file).into_iter().flatten().filter(|c| {
            let total = self.counts.get(&c.name).copied().unwrap_or(0);
            total - c.own_all + c.own_live.saturating_sub(1) == 0
        })
    }
}

/// At a `pub` token: the item keyword and the index of the item's name,
/// when this `pub` (unrestricted — `pub(crate)` is not exported) opens a
/// named item. Modules, `use` declarations and fields return `None`.
fn pub_item(tokens: &[Tok], at: usize) -> Option<(&'static str, usize)> {
    let text = |j: usize| tokens.get(j).map(|t| t.text.as_str());
    let mut j = at + 1;
    loop {
        match text(j)? {
            // `pub const NAME` is an item; `pub const fn` a qualifier.
            "const" if !matches!(text(j + 1), Some("fn" | "unsafe" | "async" | "extern")) => break,
            q if QUALIFIERS.contains(&q) => {
                j += 1;
                // `extern "C"`: skip the ABI string.
                if tokens.get(j).is_some_and(|t| t.kind == TokKind::Str) {
                    j += 1;
                }
            }
            _ => break,
        }
    }
    let kind = ITEM_KEYWORDS.iter().copied().find(|k| text(j) == Some(k))?;
    let mut name = j + 1;
    if kind == "static" && text(name) == Some("mut") {
        name += 1;
    }
    let tok = tokens.get(name)?;
    // `union` is a contextual keyword: `pub union: u8` is a field.
    if tok.kind != TokKind::Ident || (kind == "union" && text(name + 1) == Some(":")) {
        return None;
    }
    Some((kind, name))
}

/// For each token, `true` when it lies inside a `pub use …;` (or
/// `pub(…) use …;`) re-export.
fn reexport_mask(tokens: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].kind == TokKind::Ident && tokens[i].text == "pub" {
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|t| t.text == "(") {
                while j < tokens.len() && tokens[j].text != ")" {
                    j += 1;
                }
                j += 1;
            }
            if tokens.get(j).is_some_and(|t| t.text == "use") {
                while j < tokens.len() && tokens[j].text != ";" {
                    j += 1;
                }
                let end = (j + 1).min(tokens.len());
                for m in &mut mask[i..end] {
                    *m = true;
                }
                i = end;
                continue;
            }
        }
        i += 1;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scope::test_mask;

    /// Index `files` as (source, is_test_file) and report
    /// `(file, name, line)` for every unused candidate.
    fn unused(files: &[(&str, bool)]) -> Vec<(usize, String, usize)> {
        let mut index = Index::default();
        for (src, is_test) in files {
            let l = lex(src);
            index.add(&l.tokens, &test_mask(&l.tokens), *is_test);
        }
        (0..files.len())
            .flat_map(|f| index.unused(f).map(move |c| (f, c.name.clone(), c.line)))
            .collect()
    }

    #[test]
    fn item_kinds_and_qualifiers_are_candidates() {
        let src = "pub fn a() {}\npub const fn b() {}\npub unsafe extern \"C\" fn c() {}\n\
                   pub struct D;\npub enum E {}\npub trait F {}\npub type G = u8;\n\
                   pub const H: u8 = 0;\npub static mut I: u8 = 0;\npub union J { x: u8 }\n";
        let names: Vec<String> = unused(&[(src, false)]).into_iter().map(|u| u.1).collect();
        assert_eq!(names, ["a", "b", "c", "D", "E", "F", "G", "H", "I", "J"]);
    }

    #[test]
    fn modules_uses_fields_and_restricted_items_are_not() {
        let src = "pub mod m;\npub use m::x;\npub(crate) fn y() {}\n\
                   struct S { pub f: u8, pub union: u8 }\n";
        assert!(unused(&[(src, false)]).is_empty());
    }

    #[test]
    fn uses_elsewhere_silence_and_reexports_do_not() {
        // Used from another file.
        assert!(unused(&[("pub fn f() {}\n", false), ("fn g() { f() }\n", false)]).is_empty());
        // Used from another file's test code, or from a test file.
        let test_use = "#[cfg(test)]\nmod t { fn g() { super::f() } }\n";
        assert!(unused(&[("pub fn f() {}\n", false), (test_use, false)]).is_empty());
        assert!(unused(&[("pub fn f() {}\n", false), ("fn g() { f() }\n", true)]).is_empty());
        // Re-exported from another file only: unused.
        let reexported = [("pub fn f() {}\n", false), ("pub use a::f;\n", false)];
        assert_eq!(unused(&reexported), [(0, "f".to_string(), 1)]);
    }

    #[test]
    fn test_code_defines_no_candidates() {
        assert!(unused(&[("pub fn f() {}\n", true)]).is_empty());
        assert!(unused(&[("#[cfg(test)]\nmod t { pub fn f() {} }\n", false)]).is_empty());
    }
}
