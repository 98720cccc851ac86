//! Streaming-service suite: the malformed-request corpus, backpressure
//! invariants, and snapshot robustness (DESIGN.md §13).
//!
//! Three guarantees for `psdp serve --listen`:
//!
//! 1. **Malformed lines error in place, never kill the stream.** Every
//!    admission-stage error path has a checked-in fixture under
//!    `tests/fixtures/serve_corpus/`; both serve modes must answer each
//!    bad line with a typed error response at its position and keep
//!    serving the requests after it — byte-identically to each other.
//! 2. **Backpressure is typed, not buffered.** A tiny queue may shed
//!    load, but every admitted request is answered exactly once, either
//!    with its response or with a typed `overloaded` line.
//! 3. **Snapshots are robust.** Write→load→write is a byte fixpoint for
//!    any cache the service produces, and arbitrarily corrupted snapshot
//!    bytes load as a clean error (cold start), never a panic. Saves are
//!    atomic (tmp + rename): a stale torn `<path>.tmp` never corrupts
//!    the next save, and with `--snapshot-keep` ≥ 2 a torn live file
//!    warm-loads from the rotated generation instead of starting cold.

use proptest::prelude::*;
use psdp_core::DecisionOptions;
use psdp_serve::{Service, ServiceOptions, StreamItem};
use std::sync::Arc;

fn corpus_dir() -> String {
    format!("{}/../../tests/fixtures/serve_corpus", env!("CARGO_MANIFEST_DIR"))
}

fn run_mode(extra: &[&str], input: &str, listen: bool) -> (String, String) {
    let mut argv: Vec<String> = vec!["serve".to_string()];
    if listen {
        argv.push("--listen".to_string());
    }
    argv.extend(extra.iter().map(|s| s.to_string()));
    let args = psdp_cli::args::Args::parse(&argv).expect("argv parses");
    let run = if listen {
        psdp_cli::serve::serve_listen_on_input(&args, input).expect("listen runs")
    } else {
        psdp_cli::serve::serve_on_input(&args, input).expect("serve runs")
    };
    (run.stdout, run.summary)
}

/// The corpus, concatenated in file order, with the expected
/// error-or-response flag for each line (`true` = must be an error).
fn corpus_stream() -> (String, Vec<bool>) {
    let dir = corpus_dir();
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {dir}: {e}"))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 12, "corpus suspiciously small: {} files", paths.len());
    let mut input = String::new();
    let mut expect_error = Vec::new();
    for path in &paths {
        let name = path.file_name().expect("file name").to_string_lossy().to_string();
        let text = std::fs::read_to_string(path).expect("fixture readable");
        let lines = text.lines().count();
        input.push_str(&text);
        match name.as_str() {
            // First occurrence of the duplicate id executes, the repeat
            // errors.
            "06_duplicate_id.jsonl" => expect_error.extend([false, true]),
            n if n.starts_with("11_") || n.starts_with("12_") => {
                expect_error.extend(std::iter::repeat_n(false, lines));
            }
            _ => expect_error.extend(std::iter::repeat_n(true, lines)),
        }
    }
    (input, expect_error)
}

/// Every malformed fixture gets a typed error at its stream position;
/// the good requests around them are answered normally — in both serve
/// modes, with identical bytes.
#[test]
fn malformed_corpus_errors_in_place_in_both_modes() {
    let (input, expect_error) = corpus_stream();
    let flags = ["--max-line-bytes", "1024"];
    let (one_shot, _) = run_mode(&flags, &input, false);
    let (listen, summary) = run_mode(&flags, &input, true);
    assert_eq!(one_shot, listen, "serve modes disagree on the corpus");
    let lines: Vec<&str> = listen.lines().collect();
    assert_eq!(lines.len(), expect_error.len(), "one response per input line:\n{listen}");
    for (i, (line, expect_err)) in lines.iter().zip(&expect_error).enumerate() {
        let is_err = line.contains("\"error\":");
        assert_eq!(is_err, *expect_err, "line {i}: {line}");
    }
    // Spot-check the typed reasons.
    let joined = lines.join("\n");
    assert!(joined.contains("exceeds --max-line-bytes"), "{joined}");
    assert!(joined.contains("duplicate request id"), "{joined}");
    assert!(joined.contains("\"id\":\"ok-solve\",\"command\":\"solve\""), "{joined}");
    assert!(joined.contains("\"id\":\"ok-mixed\",\"command\":\"mixed\""), "{joined}");
    assert!(summary.contains("listen:"), "{summary}");
}

/// A deliberately tiny queue never loses or reorders a request: every
/// request is answered exactly once, in submission order, either with its
/// response or with a typed `overloaded` line — never silence, never
/// unbounded buffering. (Piped stdin caps in-flight work at one queue's
/// capacity, so this stream in fact blocks at admission and is answered
/// without sheds; the shed paths are pinned by the service's unit tests.)
#[test]
fn backpressure_sheds_load_with_typed_lines() {
    let batch = psdp_workloads::mixed_request_stream(&psdp_workloads::MixedStreamSpec {
        base: psdp_workloads::RequestStreamSpec {
            pool: 2,
            requests: 40,
            dim: 8,
            n: 5,
            ..Default::default()
        },
        mixed_pool: 0,
        mixed_share: 0.0,
        ..Default::default()
    });
    let input = psdp_workloads::stream_jsonl(&batch);
    let (out, summary) = run_mode(&["--shards", "1", "--queue-cap", "1"], &input, true);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), batch.requests.len(), "every request answered once");
    for (line, r) in lines.iter().zip(&batch.requests) {
        let expected_id = format!("\"id\":\"{}\"", r.id);
        assert!(line.contains(&expected_id), "order broken: wanted {expected_id} in {line}");
        let answered = line.contains("\"command\":") || line.contains("\"overloaded\":true");
        assert!(answered, "line neither response nor typed overload: {line}");
    }
    assert!(summary.contains("listen: 40 requests"), "{summary}");
}

fn tiny_instance(seed: u64) -> Arc<psdp_core::PackingInstance> {
    let (instances, _) = psdp_workloads::request_stream(&psdp_workloads::RequestStreamSpec {
        pool: 1,
        requests: 1,
        dim: 6,
        n: 4,
        seed,
        ..Default::default()
    });
    Arc::new(instances.into_iter().next().expect("pool of one"))
}

/// A populated service cache for snapshot property tests.
fn populated_service(pool: usize, seed: u64) -> Service {
    let mut service = Service::new(ServiceOptions { shards: 2, ..Default::default() });
    let items = (0..pool).map(|k| StreamItem::Execute {
        request: psdp_serve::ServeRequest::decision(
            format!("p{k}"),
            tiny_instance(seed.wrapping_add(k as u64)),
            1.0,
            DecisionOptions::practical(0.2),
        ),
        ctx: (),
    });
    let report = service.run_stream(items.collect::<Vec<_>>().into_iter(), |_, _| {});
    assert_eq!(report.errors, 0);
    service
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Write→load→write is a byte fixpoint for caches the service builds,
    /// across pool compositions and reload shard counts.
    #[test]
    fn snapshot_write_load_write_fixpoint(pool in 1usize..4, seed in 0u64..200, shards in 1usize..6) {
        let service = populated_service(pool, seed);
        let snap = service.snapshot_string();
        let mut reloaded = Service::new(ServiceOptions { shards, ..Default::default() });
        let n = reloaded.load_snapshot(&snap).expect("own snapshot loads");
        prop_assert_eq!(n, service.cached_fingerprints());
        prop_assert_eq!(reloaded.snapshot_string(), snap);
    }

    /// Arbitrarily corrupted snapshot bytes never panic the loader: they
    /// load cleanly or error cleanly, and the service stays cold-start
    /// usable either way.
    #[test]
    fn corrupted_snapshots_never_panic(cut in 0usize..10_000, flip in 0usize..10_000, byte in 0u32..256) {
        let service = populated_service(2, 11);
        let snap = service.snapshot_string();
        let mut bytes = snap.into_bytes();
        bytes.truncate(cut % (bytes.len() + 1));
        if !bytes.is_empty() {
            let i = flip % bytes.len();
            bytes[i] = byte as u8;
        }
        let corrupted = String::from_utf8_lossy(&bytes).into_owned();
        let mut fresh = Service::new(ServiceOptions::default());
        let _ = fresh.load_snapshot(&corrupted); // Ok or Err, never panic.
        // Whatever the loader decided, the service still serves.
        let item = StreamItem::Execute {
            request: psdp_serve::ServeRequest::decision(
                "after".to_string(),
                tiny_instance(999),
                1.0,
                DecisionOptions::practical(0.2),
            ),
            ctx: (),
        };
        let mut answered = 0usize;
        let report = fresh.run_stream(std::iter::once(item), |_, _| answered += 1);
        prop_assert_eq!(report.errors, 0);
        prop_assert_eq!(answered, 1);
    }

    /// A stale `<path>.tmp` full of arbitrary bytes — what a crash
    /// mid-save leaves behind — never corrupts the next save:
    /// `save_to_path` rewrites the tmp and renames it into place, so the
    /// live file holds exactly the new snapshot and the tmp slot is
    /// consumed. A torn live file afterwards warm-loads from the rotated
    /// generation when `--snapshot-keep` ≥ 2, and degrades to a clean
    /// cold start when there is no fallback.
    #[test]
    fn torn_tmp_files_never_corrupt_saves(
        garbage in proptest::collection::vec(0u32..256, 0..64),
        keep in 1usize..4,
        seed in 0u64..100,
    ) {
        let garbage: Vec<u8> = garbage.iter().map(|&b| b as u8).collect();
        let service = populated_service(1, seed);
        let snap = service.snapshot_string();
        let path = std::env::temp_dir()
            .join(format!("psdp-torn-{}-{seed}-{keep}.snap", std::process::id()));
        let path_s = path.to_string_lossy().into_owned();
        let tmp = format!("{path_s}.tmp");
        std::fs::write(&tmp, &garbage).expect("tmp write");
        psdp_serve::snapshot::save_to_path(&path_s, &snap, keep).expect("save succeeds");
        prop_assert_eq!(std::fs::read_to_string(&path_s).expect("live readable"), snap.clone());
        prop_assert!(!std::path::Path::new(&tmp).exists(), "tmp must be consumed by the rename");
        // Save again (rotating the intact file into `.1`), then tear the
        // live file mid-write.
        psdp_serve::snapshot::save_to_path(&path_s, &snap, keep).expect("second save succeeds");
        std::fs::write(&path_s, "psdp snapshot v1\nentries 1\ngar").expect("tear");
        let keep_s = keep.to_string();
        let (_, summary) =
            run_mode(&["--snapshot", &path_s, "--snapshot-keep", &keep_s], "", true);
        for g in psdp_serve::snapshot::generation_paths(&path_s, keep) {
            let _ = std::fs::remove_file(&g);
        }
        if keep >= 2 {
            prop_assert!(
                summary.contains(&format!("warm-loaded 1 fingerprints from {path_s}.1")),
                "wanted generation fallback, got: {}", summary
            );
        } else {
            prop_assert!(summary.contains("starting cold"), "{}", summary);
        }
    }
}
