//! JSON schema snapshots for every machine-readable CLI output.
//!
//! Each `--json` producer (`solve`, `optimize`, `mixed`) and every
//! `serve` response shape (solve / optimize / mixed / error line) has a
//! golden sample under `tests/fixtures/schema/`. The comparison is
//! **structural**: both sides are parsed and flattened to sorted
//! `path: type` lines (`psdp_serve::json::schema_lines`), so numeric
//! jitter in values can never mask a missing, renamed, or retyped field —
//! and a renamed field can never hide behind a value match. `null` acts
//! as a type wildcard (optional fields like `best_dual` legitimately
//! toggle).
//!
//! Regenerate the goldens after an intentional schema change with
//! `PSDP_UPDATE_GOLDENS=1 cargo test -p psdp-bench --test json_schema`
//! and review the diff.

use psdp_cli::args::Args;
use psdp_cli::commands::dispatch;
use psdp_cli::serve::serve_on_input;
use psdp_serve::json::{parse, schema_diff, schema_lines};
use psdp_workloads::{gnp, mixed_edge_cover, random_lp_diagonal};
use std::sync::OnceLock;

fn golden_dir() -> String {
    format!("{}/../../tests/fixtures/schema", env!("CARGO_MANIFEST_DIR"))
}

fn run(v: &[&str]) -> String {
    dispatch(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>()).expect("command runs")
}

/// Compare `actual` (one JSON document) against the golden sample,
/// regenerating when `PSDP_UPDATE_GOLDENS=1`.
fn assert_schema(name: &str, actual: &str) {
    let path = format!("{}/{name}.json", golden_dir());
    if std::env::var("PSDP_UPDATE_GOLDENS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(golden_dir()).expect("schema dir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden {path}: {e}; regenerate with PSDP_UPDATE_GOLDENS=1"));
    let want = schema_lines(&parse(golden.trim()).expect("golden parses"));
    let got = schema_lines(&parse(actual.trim()).expect("output parses"));
    let diffs = schema_diff(&want, &got);
    assert!(
        diffs.is_empty(),
        "schema drift in {name}:\n  {}\n(regenerate goldens with PSDP_UPDATE_GOLDENS=1 if intentional)",
        diffs.join("\n  ")
    );
}

/// Deterministic on-disk instances shared by the tests.
struct Fixtures {
    packing: String,
    mixed: String,
}

fn fixtures() -> &'static Fixtures {
    static FIX: OnceLock<Fixtures> = OnceLock::new();
    FIX.get_or_init(|| {
        let dir = std::env::temp_dir().join("psdp-json-schema");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let packing = dir.join("schema_pack.psdp");
        let inst = psdp_core::PackingInstance::new(random_lp_diagonal(6, 4, 0.6, 3)).unwrap();
        std::fs::write(&packing, psdp_core::write_instance(&inst)).unwrap();
        let mixed = dir.join("schema_mixed.psdp");
        let m = mixed_edge_cover(&gnp(8, 0.6, 3), 0.5);
        std::fs::write(&mixed, psdp_core::write_mixed_instance(&m)).unwrap();
        Fixtures {
            packing: packing.to_string_lossy().into_owned(),
            mixed: mixed.to_string_lossy().into_owned(),
        }
    })
}

#[test]
fn solve_json_schema() {
    let out = run(&["solve", &fixtures().packing, "--eps", "0.2", "--json"]);
    assert_schema("solve", &out);
}

#[test]
fn optimize_json_schema() {
    let out = run(&["optimize", &fixtures().packing, "--eps", "0.15", "--json"]);
    assert_schema("optimize", &out);
}

#[test]
fn mixed_json_schema() {
    let out = run(&["mixed", &fixtures().mixed, "--eps", "0.2", "--json"]);
    assert_schema("mixed", &out);
}

#[test]
fn serve_response_schemas() {
    let f = fixtures();
    let input = format!(
        "{{\"id\":\"s1\",\"command\":\"solve\",\"file\":{p},\"threshold\":1.0,\"eps\":0.2}}\n\
         {{\"id\":\"o1\",\"command\":\"optimize\",\"file\":{p},\"eps\":0.15}}\n\
         {{\"id\":\"m1\",\"command\":\"mixed\",\"file\":{m},\"eps\":0.2}}\n\
         {{\"id\":\"bad\",\"command\":\"solve\",\"instance\":\"psdp 1 nope\"}}\n",
        p = psdp_cli::jsonfmt::json_str(&f.packing),
        m = psdp_cli::jsonfmt::json_str(&f.mixed),
    );
    let args = Args::parse(&["serve".to_string()]).unwrap();
    let out = serve_on_input(&args, &input).expect("serve runs");
    let lines: Vec<&str> = out.stdout.lines().collect();
    assert_eq!(lines.len(), 4, "{}", out.stdout);
    assert_schema("serve_solve", lines[0]);
    assert_schema("serve_optimize", lines[1]);
    assert_schema("serve_mixed", lines[2]);
    assert_schema("serve_error", lines[3]);
}

/// The typed `overloaded` line is rendered by `jsonfmt::overloaded_line`
/// (never hand-rolled at a shed site), so one golden pins the schema for
/// every shed path: a full shard queue, the adaptive p99 policy, and the
/// per-client in-flight cap (`shard` null — the request was never
/// routed). The golden carries the null variant, which the structural
/// diff treats as a wildcard, so both variants must match it.
#[test]
fn serve_overloaded_schema() {
    // Null-shard variant last: under PSDP_UPDATE_GOLDENS the final write
    // becomes the golden, and only a null in the *golden* wildcards the
    // routed variant's number.
    assert_schema("serve_overloaded", &psdp_cli::jsonfmt::overloaded_line("r1", Some(3)));
    assert_schema("serve_overloaded", &psdp_cli::jsonfmt::overloaded_line("r1", None));
}

/// Every serve error line is rendered by `jsonfmt::error_line`, so the
/// `serve_error` golden pins both id variants: a named request and one
/// too broken to name itself (`"id":null`, which the structural diff
/// treats as a wildcard).
#[test]
fn serve_error_line_schema() {
    // Named variant last: under PSDP_UPDATE_GOLDENS the final write
    // becomes the golden, and it must keep the string id.
    assert_schema("serve_error", &psdp_cli::jsonfmt::error_line(None, "bad json"));
    assert_schema("serve_error", &psdp_cli::jsonfmt::error_line(Some("r1"), "bad json"));
}

/// The serve schemas must be supersets of the one-shot schemas: same
/// payload fields plus `id` and `serve` (and `wall_ms` forced to null) —
/// pinned here structurally so the two paths cannot drift apart.
#[test]
fn serve_reuses_one_shot_schemas() {
    let f = fixtures();
    let one_shot = run(&["solve", &fixtures().packing, "--eps", "0.2", "--json"]);
    let input = format!(
        "{{\"id\":\"s1\",\"command\":\"solve\",\"file\":{p},\"threshold\":1.0,\"eps\":0.2}}\n",
        p = psdp_cli::jsonfmt::json_str(&f.packing),
    );
    let args = Args::parse(&["serve".to_string()]).unwrap();
    let serve_line = serve_on_input(&args, &input)
        .expect("serve runs")
        .stdout
        .lines()
        .next()
        .unwrap()
        .to_string();
    let base = schema_lines(&parse(one_shot.trim()).unwrap());
    let serve = schema_lines(&parse(serve_line.trim()).unwrap());
    for line in &base {
        // Every one-shot path must exist in the serve response (types may
        // differ only through the null wildcard, e.g. wall_ms).
        let path = line.rsplit_once(": ").unwrap().0;
        assert!(
            serve.iter().any(|l| l.rsplit_once(": ").unwrap().0 == path),
            "serve solve response lost path {path}"
        );
    }
    assert!(serve.iter().any(|l| l.starts_with("$.id:")), "serve response missing id");
    assert!(serve.iter().any(|l| l.starts_with("$.serve:")), "serve response missing serve stats");
}
