//! `perfbench`: the end-to-end benchmark for `psdp serve`, with a
//! per-layer ledger from a separate traced run. See `README.md` beside
//! this crate for the workloads, the metrics and what each layer metric
//! is predicted to move.
//!
//! ```text
//! perfbench --psdp <path to psdp> --workload solve-large|serve-hot|serve-cold
//!           --seed N --seconds S --trace 0|1
//!           --shards N --rayon-threads N --clients N --window N
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.

mod direct;
mod harness;
mod inproc;
mod ledger;
mod stats;
mod workload;

use harness::{ClientPlan, ServerConfig};
use psdp_cli::jsonfmt::{json_f64, json_str};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{ClientGen, Load, Request, Workload};

/// Server spawns per run whose set-up times make `setup_s` (the median).
const SETUP_SAMPLES: usize = 25;

struct Opts {
    psdp: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    shards: usize,
    rayon_threads: usize,
    clients: usize,
    window: usize,
}

fn parse_opts() -> Result<Opts, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = raw.iter();
    while let Some(k) = it.next() {
        let key = k.strip_prefix("--").ok_or_else(|| format!("unexpected argument `{k}`"))?;
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key, v);
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str| -> Result<u64, String> {
        let v = get(k)?;
        v.parse().map_err(|_| format!("--{k}: not a whole number: {v}"))
    };
    for k in flags.keys() {
        if ![
            "psdp",
            "workload",
            "seed",
            "seconds",
            "trace",
            "shards",
            "rayon-threads",
            "clients",
            "window",
        ]
        .contains(k)
        {
            return Err(format!("unknown flag --{k}"));
        }
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Opts {
        psdp: PathBuf::from(get("psdp")?),
        workload: Workload::parse(get("workload")?)?,
        seed: num("seed")?,
        seconds: num("seconds")?.max(1),
        trace,
        shards: num("shards")? as usize,
        rayon_threads: num("rayon-threads")? as usize,
        clients: num("clients")? as usize,
        window: num("window")? as usize,
    })
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Is this response line a verified answer? Errors, overload lines and
/// any certificate that does not verify fail.
fn certified(line: &str) -> bool {
    !line.contains("\"error\":")
        && !line.contains("\"feasible\":false")
        && !line.contains("\"verified\":false")
        && (line.contains("\"feasible\":true") || line.contains("\"verified\":true"))
}

/// For each request of one client (warm-up, then timed), the index of the
/// request whose reference line it takes: a timed request whose key the
/// warm-up sent is a memo hit, and takes the line of the first timed
/// request with that key; every other request takes its own.
fn representatives(warm: &[Request], timed: &[Request]) -> Vec<usize> {
    let warmed: BTreeSet<String> = warm.iter().map(Request::key).collect();
    let mut first: BTreeMap<String, usize> = BTreeMap::new();
    let mut rep: Vec<usize> = (0..warm.len()).collect();
    for (k, r) in timed.iter().enumerate() {
        let i = warm.len() + k;
        let key = r.key();
        rep.push(if warmed.contains(&key) { *first.entry(key).or_insert(i) } else { i });
    }
    rep
}

/// `line`, a response to request `from`, with its leading `id` field set
/// to `to` (unchanged when it does not start with `from`'s id, which then
/// fails the check).
fn with_id(line: &str, from: &str, to: &str) -> String {
    let head = format!("{{\"id\":{}", json_str(from));
    match line.strip_prefix(&head) {
        Some(rest) => format!("{{\"id\":{}{rest}", json_str(to)),
        None => line.to_string(),
    }
}

/// Engines named in a response's `stats` objects.
fn engines_of(line: &str) -> Vec<String> {
    let mut out: Vec<String> = line
        .split("\"engine\":\"")
        .skip(1)
        .filter_map(|s| s.split('"').next().map(str::to_string))
        .collect();
    out.sort();
    out.dedup();
    out
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the benchmark; `Ok(false)` when a response failed the check.
fn run() -> Result<bool, String> {
    let o = parse_opts()?;
    if !o.psdp.is_file() {
        return Err(format!("no psdp binary at {}", o.psdp.display()));
    }
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let pin = |v: usize| v.clamp(1, nproc);
    let shards = pin(o.shards);
    let load = Load::of(o.workload, pin(o.clients), pin(o.window), shards, pin(o.rayon_threads));
    let cfg = ServerConfig { shards, rayon_threads: load.rayon_threads };
    // In-process runs use the same solver pool width as the server.
    std::env::set_var("RAYON_NUM_THREADS", cfg.rayon_threads.to_string());

    // Inputs: every byte comes from (workload, seed, client, index).
    let gens: Vec<ClientGen> =
        (0..load.clients).map(|c| ClientGen::new(o.workload, o.seed, c)).collect();
    let streams: Vec<(Vec<Request>, Vec<Request>)> = gens
        .iter()
        .map(|g| (g.warmup(), (0..g.timed_count(o.seconds)).map(|k| g.timed(k)).collect()))
        .collect();
    let all: Vec<Vec<&Request>> =
        streams.iter().map(|(w, t)| w.iter().chain(t.iter()).collect()).collect();
    let wire: Vec<Vec<&[u8]>> =
        all.iter().map(|reqs| reqs.iter().map(|r| r.bytes.as_slice()).collect()).collect();

    // Untimed reference per client, before any timing. A memo hit repeats
    // its key's line up to the id, so each warmed key's timed repeats are
    // run once and share that line (serve-hot sends ~100 per key).
    let reference: Vec<Vec<String>> = std::thread::scope(|s| {
        let hs: Vec<_> = streams
            .iter()
            .zip(&all)
            .map(|((warm, timed), reqs)| {
                let cfg = &cfg;
                s.spawn(move || {
                    let rep = representatives(warm, timed);
                    let run: Vec<usize> = (0..reqs.len()).filter(|&i| rep[i] == i).collect();
                    let bytes: Vec<u8> = run.iter().flat_map(|&i| reqs[i].bytes.clone()).collect();
                    let lines = inproc::reference(cfg, &bytes)?;
                    if lines.len() != run.len() {
                        return Err(format!(
                            "reference has {} lines for {} requests",
                            lines.len(),
                            run.len()
                        ));
                    }
                    let line: BTreeMap<usize, &String> = run.into_iter().zip(&lines).collect();
                    Ok(reqs
                        .iter()
                        .zip(&rep)
                        .map(|(r, &j)| with_id(line[&j], &reqs[j].id, &r.id))
                        .collect::<Vec<String>>())
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("reference thread panicked".to_string())))
            .collect::<Result<Vec<_>, String>>()
    })?;

    let mut setup = harness::setup_seconds(&o.psdp, &cfg, SETUP_SAMPLES - 1)?;
    let plans: Vec<ClientPlan<'_>> = streams
        .iter()
        .zip(&wire)
        .map(|((w, _), bytes)| ClientPlan {
            warmup: bytes[..w.len()].to_vec(),
            timed: bytes[w.len()..].to_vec(),
        })
        .collect();
    let untraced = harness::socket_run(&o.psdp, &cfg, &plans, load.window)?;
    setup.push(untraced.setup.as_secs_f64());

    // Correctness: every response, warm-up included, against the
    // reference; every certificate verified.
    let mut attempted = 0usize;
    let mut failed = 0usize;
    let mut timed_failed = 0usize;
    let mut latencies: Vec<f64> = Vec::new();
    let mut engines: BTreeMap<String, usize> = BTreeMap::new();
    for (c, ((warm, timed), reference)) in
        untraced.warmup.iter().zip(&untraced.timed).zip(&reference).enumerate()
    {
        let got = warm.lines.iter().chain(&timed.lines);
        for (i, (line, want)) in got.zip(reference).enumerate() {
            attempted += 1;
            if line != want || !certified(line) {
                failed += 1;
                timed_failed += usize::from(i >= warm.lines.len());
                if failed <= 3 {
                    let at = line.bytes().zip(want.bytes()).take_while(|(a, b)| a == b).count();
                    let from = at.saturating_sub(120);
                    eprintln!(
                        "perfbench: client {c} response {i} failed the check at byte {at}:\n  got  {:.300}\n  want {:.300}",
                        line.get(from..).unwrap_or(line),
                        want.get(from..).unwrap_or(want)
                    );
                }
            }
            for e in engines_of(line) {
                *engines.entry(e).or_default() += 1;
            }
        }
        latencies.extend((0..timed.lines.len()).map(|i| timed.latency(i).as_secs_f64() * 1e3));
    }
    let timed_total: usize = untraced.timed.iter().map(|t| t.lines.len()).sum();
    let passed = timed_total - timed_failed;
    let wall = untraced.wall.as_secs_f64();
    let (tail_ms, tail) = stats::tail_or_max(&latencies);
    let e2e = vec![
        m("setup_s", stats::median(&setup), "s"),
        m("throughput_rps", stats::ratio(passed as f64, wall), "req/s"),
        m("latency_iqm_ms", stats::interquartile_mean(&latencies), "ms"),
        m("latency_tail_ms", tail_ms, "ms"),
        m("server_cpu_s", untraced.cpu_seconds, "s"),
        m("peak_rss_mb", untraced.peak_rss_mb, "MiB"),
    ];
    let fail_frac = stats::ratio(failed as f64, attempted as f64);

    let layers = if o.trace {
        let untraced_sum: f64 = latencies.iter().sum();
        let l = ledger::traced(&o.psdp, &cfg, load, &streams, &plans, &reference, untraced_sum)?;
        attempted += l.checked;
        failed += l.failed;
        l.metrics
    } else {
        Vec::new()
    };

    // Human-readable table, then the record, then the result line.
    let shown: &[Metric] = if o.trace { &layers } else { &e2e };
    println!(
        "perfbench {} seed {} ({} s, trace {})",
        o.workload.name(),
        o.seed,
        o.seconds,
        o.trace as u8
    );
    for x in shown {
        println!("  {:<34} {:>14.4} {}", x.name, x.value, x.unit);
    }
    println!("  {:<34} {:>14.4} ratio", "fail_frac", fail_frac);
    match tail {
        Some(t) => println!(
            "  latency_tail_ms is p{:.2} of {} samples ({} beyond it)",
            t.percentile,
            t.samples,
            stats::TAIL_BEYOND
        ),
        None => println!(
            "  latency_tail_ms is the maximum: {} samples leave no percentile at or above p{} with {} beyond it",
            latencies.len(),
            stats::TAIL_MIN_PERCENTILE,
            stats::TAIL_BEYOND
        ),
    }
    let record = record_json(&o, nproc, &cfg, load, &streams, &engines, fail_frac, tail, &e2e);
    println!("{{\"record\":{record}}}");
    let metrics: Vec<String> = shown
        .iter()
        .map(|x| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(x.name),
                json_f64(x.value),
                json_str(x.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        metrics.join(",")
    );
    Ok(failed == 0)
}

/// Everything needed to re-check a result: seed, pinned settings,
/// instances, the request mix and the engines the responses report.
#[allow(clippy::too_many_arguments)]
fn record_json(
    o: &Opts,
    nproc: usize,
    cfg: &ServerConfig,
    load: Load,
    streams: &[(Vec<Request>, Vec<Request>)],
    engines: &BTreeMap<String, usize>,
    fail_frac: f64,
    tail: Option<stats::Tail>,
    e2e: &[Metric],
) -> String {
    let mut mix: BTreeMap<&str, usize> = BTreeMap::new();
    let mut instances: BTreeMap<String, String> = BTreeMap::new();
    for (warm, timed) in streams {
        for r in timed {
            *mix.entry(r.command.name()).or_default() += 1;
        }
        for r in warm.iter().chain(timed) {
            let (mm, n, nnz) = r.inst.shape();
            instances.entry(r.inst.label.clone()).or_insert_with(|| {
                format!(
                    "{{\"label\":{},\"family\":{},\"m\":{mm},\"n\":{n},\"nnz\":{nnz}}}",
                    json_str(&r.inst.label),
                    json_str(r.inst.family)
                )
            });
        }
    }
    let obj = |m: &BTreeMap<String, usize>| -> String {
        let v: Vec<String> = m.iter().map(|(k, c)| format!("{}:{c}", json_str(k))).collect();
        format!("{{{}}}", v.join(","))
    };
    let mix: BTreeMap<String, usize> = mix.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
    let tail_json = match tail {
        Some(t) => {
            format!("{{\"percentile\":{},\"samples\":{}}}", json_f64(t.percentile), t.samples)
        }
        None => "\"max\"".to_string(),
    };
    let e2e_json: Vec<String> =
        e2e.iter().map(|x| format!("{}:{}", json_str(x.name), json_f64(x.value))).collect();
    format!(
        "{{\"workload\":{},\"why\":{},\"seed\":{},\"seconds\":{},\"nproc\":{nproc},\"shards\":{},\"rayon_threads\":{},\"clients\":{},\"window\":{},\"warmup_requests\":{},\"timed_requests\":{},\"mix\":{},\"engines\":{},\"fail_frac\":{},\"latency_tail\":{tail_json},\"end_to_end\":{{{}}},\"instances\":[{}]}}",
        json_str(o.workload.name()),
        json_str(o.workload.why()),
        o.seed,
        o.seconds,
        cfg.shards,
        cfg.rayon_threads,
        load.clients,
        load.window,
        streams.iter().map(|(w, _)| w.len()).sum::<usize>(),
        streams.iter().map(|(_, t)| t.len()).sum::<usize>(),
        obj(&mix),
        obj(engines),
        json_f64(fail_frac),
        e2e_json.join(","),
        instances.into_values().collect::<Vec<_>>().join(","),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memo_hits_share_the_first_timed_line_of_their_key() {
        let g = ClientGen::new(Workload::ServeHot, 7, 0);
        let (warm, timed) = (g.warmup(), (0..200).map(|k| g.timed(k)).collect::<Vec<_>>());
        let rep = representatives(&warm, &timed);
        assert_eq!(&rep[..warm.len()], &(0..warm.len()).collect::<Vec<_>>()[..]);
        let all: Vec<&Request> = warm.iter().chain(&timed).collect();
        let distinct = rep.iter().enumerate().filter(|&(i, &j)| i == j).count();
        assert_eq!(distinct, 2 * warm.len(), "each warmed key runs once more");
        for (i, &j) in rep.iter().enumerate().skip(warm.len()) {
            assert!(j >= warm.len() && j <= i && rep[j] == j);
            assert_eq!(all[i].key(), all[j].key());
        }
        // Distinct requests keep their own line.
        let g = ClientGen::new(Workload::ServeCold, 7, 0);
        let timed: Vec<Request> = (0..40).map(|k| g.timed(k)).collect();
        assert_eq!(representatives(&[], &timed), (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn with_id_rewrites_only_the_leading_id() {
        let line = r#"{"id":"c0-3","command":"solve","x":"c0-3"}"#;
        assert_eq!(with_id(line, "c0-3", "c0-9"), r#"{"id":"c0-9","command":"solve","x":"c0-3"}"#);
        assert_eq!(with_id(line, "c0-4", "c0-9"), line);
    }
}
