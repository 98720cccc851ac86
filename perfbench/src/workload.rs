//! Seeded request streams for the three workloads.
//!
//! Everything the server receives is generated here from `(seed, client,
//! request index)`, so the same seed gives the same bytes: relabelled
//! copies of a fixed instance corpus (see [`CORPUS`]). Each request
//! carries its instance inline: a JSONL `instance` field (canonical text)
//! or a `psdp-bin-1` binary frame.

use psdp_core::{
    write_instance, write_instance_bin, write_mixed_instance_bin, MixedInstance, PackingInstance,
};
use psdp_parallel::{derive_seed, rng_for};
use psdp_sparse::{Csr, FactorPsd, PsdMatrix};
use psdp_workloads::{
    gnp, mixed_edge_cover, mixed_lp_diagonal, random_factorized, RandomFactorized,
};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// Fold a tuple of parts into one seed.
pub fn derive(parts: &[u64]) -> u64 {
    parts.iter().fold(0x5eed, |h, &p| derive_seed(h, p))
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SolveLarge,
    ServeHot,
    ServeCold,
}

impl Workload {
    pub fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "solve-large" => Ok(Workload::SolveLarge),
            "serve-hot" => Ok(Workload::ServeHot),
            "serve-cold" => Ok(Workload::ServeCold),
            other => Err(format!("unknown workload `{other}` (solve-large|serve-hot|serve-cold)")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SolveLarge => "solve-large",
            Workload::ServeHot => "serve-hot",
            Workload::ServeCold => "serve-cold",
        }
    }

    /// Why the workload exists and which per-layer metric should dominate
    /// it (recorded with every result).
    pub fn why(self) -> &'static str {
        match self {
            Workload::SolveLarge => {
                "cold m=128/256 solves with engine auto: engine evaluation dominates \
                 (expdot.share); cache, parsing and transport are negligible"
            }
            Workload::ServeHot => {
                "zipf repeats after a warm-up: no engine runs; render with its verify re-run, \
                 parsing, sequencing and the socket dominate (jsonfmt.render_ms, cli.frontend_ms)"
            }
            Workload::ServeCold => {
                "distinct small instances as binary frames: decision loop, bisection (with its \
                 certificate-seeking cliff) and the mixed solver dominate (solver.solve_ms)"
            }
        }
    }
}

/// Settings that shape the load, from the pinned command-line values.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    pub clients: usize,
    pub window: usize,
    /// The server's `RAYON_NUM_THREADS`.
    pub rayon_threads: usize,
}

impl Load {
    /// The load a workload runs at. `serve-hot` uses every client and
    /// window. `solve-large` and `serve-cold` are one client with one
    /// request outstanding: with two, the sequencer emits responses in one
    /// admission order across clients, so one client's solve would wait
    /// for the other's cap-hitting optimize. `solve-large` measures one
    /// request at a time and gives it the whole solver pool; the serving
    /// workloads split the pool between the shard workers.
    pub fn of(w: Workload, clients: usize, window: usize, shards: usize, rayon: usize) -> Load {
        let served = (rayon / shards).max(1);
        match w {
            Workload::SolveLarge => Load { clients: 1, window: 1, rayon_threads: rayon },
            Workload::ServeHot => Load { clients, window, rayon_threads: served },
            Workload::ServeCold => Load { clients: 1, window: 1, rayon_threads: served },
        }
    }
}

/// One instance as generated (before it crosses the wire).
pub enum Payload {
    Packing(PackingInstance),
    Mixed(MixedInstance),
}

/// An instance plus what the result record reports about it.
pub struct Instance {
    /// Unique within one run.
    pub label: String,
    pub family: &'static str,
    pub payload: Payload,
}

impl Instance {
    /// `(m, n, storage nnz)`; for mixed instances `m` is the packing side.
    pub fn shape(&self) -> (usize, usize, usize) {
        match &self.payload {
            Payload::Packing(p) => (p.dim(), p.n(), p.total_nnz()),
            Payload::Mixed(x) => (x.pack_dim(), x.n(), x.total_nnz()),
        }
    }
}

/// What a request asks for (mirrors the serve JSON schema).
#[derive(Debug, Clone, Copy)]
pub enum Command {
    Solve { threshold: f64, eps: f64, engine: &'static str },
    Optimize { eps: f64 },
    Mixed { eps: f64 },
}

impl Command {
    pub fn name(&self) -> &'static str {
        match self {
            Command::Solve { .. } => "solve",
            Command::Optimize { .. } => "optimize",
            Command::Mixed { .. } => "mixed",
        }
    }

    /// The JSON fields after `id`, `command` and any `instance`.
    fn options_json(&self) -> String {
        match self {
            Command::Solve { threshold, eps, engine } => {
                format!(",\"threshold\":{threshold},\"eps\":{eps},\"engine\":\"{engine}\"")
            }
            Command::Optimize { eps } | Command::Mixed { eps } => format!(",\"eps\":{eps}"),
        }
    }
}

/// How a request travels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// A JSONL line with the instance as canonical text.
    Text,
    /// A `0x00`-marked frame with the instance as `psdp-bin-1`.
    Frame,
}

/// One request: what it asks, on which instance, and its exact bytes.
pub struct Request {
    pub id: String,
    pub command: Command,
    pub inst: Arc<Instance>,
    pub wire: Wire,
    pub bytes: Vec<u8>,
}

impl Request {
    fn new(id: String, command: Command, inst: Arc<Instance>, wire: Wire) -> Request {
        let head = format!("{{\"id\":\"{id}\",\"command\":\"{}\"", command.name());
        let bytes = match wire {
            Wire::Text => {
                let Payload::Packing(p) = &inst.payload else {
                    unreachable!("text requests carry packing instances only")
                };
                let text = psdp_cli::jsonfmt::json_str(&write_instance(p));
                format!("{head},\"instance\":{text}{}}}\n", command.options_json()).into_bytes()
            }
            Wire::Frame => {
                let json = format!("{head}{}}}", command.options_json());
                let bin = match &inst.payload {
                    Payload::Packing(p) => write_instance_bin(p),
                    Payload::Mixed(x) => write_mixed_instance_bin(x),
                };
                let body_len = 4 + json.len() + bin.len();
                let mut out = Vec::with_capacity(5 + body_len);
                out.push(0u8);
                out.extend_from_slice(
                    &u32::try_from(body_len).expect("frame fits u32").to_le_bytes(),
                );
                out.extend_from_slice(
                    &u32::try_from(json.len()).expect("header fits u32").to_le_bytes(),
                );
                out.extend_from_slice(json.as_bytes());
                out.extend_from_slice(&bin);
                out
            }
        };
        Request { id, command, inst, wire, bytes }
    }

    /// Identity of the (instance, request options) pair: two requests with
    /// the same key get the same result payload.
    pub fn key(&self) -> String {
        format!("{}|{}", self.inst.label, self.command.options_json())
    }
}

/// A seeded `random` packing instance (`psdp generate --family random`).
fn random_instance(dim: usize, seed: u64) -> PackingInstance {
    let mats = random_factorized(&RandomFactorized {
        dim,
        n: 8,
        rank: 2,
        nnz_per_col: (dim / 3).max(2),
        width: 1.0,
        seed,
    });
    PackingInstance::new(mats).expect("random family instances are valid")
}

/// `P A Pᵀ` for the coordinate permutation `perm`, in `A`'s own storage.
fn permute(a: &PsdMatrix, perm: &[usize]) -> PsdMatrix {
    let m = perm.len();
    match a {
        PsdMatrix::Diagonal(d) => {
            let mut out = vec![0.0; m];
            for (r, &v) in d.iter().enumerate() {
                out[perm[r]] = v;
            }
            PsdMatrix::Diagonal(out)
        }
        PsdMatrix::Factor(f) => {
            let q = f.factor();
            let mut trip = Vec::with_capacity(q.nnz());
            for (r, &to) in perm.iter().enumerate() {
                trip.extend(q.row_iter(r).map(|(c, v)| (to, c, v)));
            }
            PsdMatrix::Factor(FactorPsd::new(Csr::from_triplets(m, q.ncols(), &trip)))
        }
        PsdMatrix::Sparse(s) => {
            let mut trip = Vec::with_capacity(s.nnz());
            for (r, &to) in perm.iter().enumerate() {
                trip.extend(s.row_iter(r).map(|(c, v)| (to, perm[c], v)));
            }
            PsdMatrix::Sparse(Csr::from_triplets(m, m, &trip))
        }
        PsdMatrix::Dense(_) => unreachable!("the corpus families store no dense constraints"),
    }
}

fn permutation(m: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..m).collect();
    shuffle(&mut perm, rng);
    perm
}

/// Relabel an instance: permute the matrix coordinates (`A ↦ PAPᵀ`) and
/// the constraint order. The packing optimum and every spectrum are
/// unchanged, so the solver does the same work on a fresh fingerprint.
fn relabel(inst: &PackingInstance, rng: &mut StdRng) -> PackingInstance {
    let perm = permutation(inst.dim(), rng);
    let mut mats: Vec<PsdMatrix> = inst.mats().iter().map(|a| permute(a, &perm)).collect();
    shuffle(&mut mats, rng);
    PackingInstance::new(mats).expect("relabelling keeps an instance valid")
}

/// [`relabel`] for a mixed instance: both sides' coordinates, and one
/// order for the (packing, covering) constraint pairs.
fn relabel_mixed(inst: &MixedInstance, rng: &mut StdRng) -> MixedInstance {
    let (pp, cp) = (permutation(inst.pack_dim(), rng), permutation(inst.cover_dim(), rng));
    let mut pairs: Vec<(PsdMatrix, PsdMatrix)> = inst
        .pack()
        .mats()
        .iter()
        .zip(inst.cover().mats())
        .map(|(p, c)| (permute(p, &pp), permute(c, &cp)))
        .collect();
    shuffle(&mut pairs, rng);
    let (pack, cover) = pairs.into_iter().unzip();
    MixedInstance::new(pack, cover).expect("relabelling keeps a mixed instance valid")
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// Every instance is a relabelled copy of one of the first `CORPUS`
/// instances of its family and size, as `psdp generate --seed 1..=CORPUS`
/// makes them: each request kind walks the seeds in order (serve-cold's
/// optimizes in the order [`cold_optimize_seed`] gives). The run seed
/// chooses the relabellings, so it changes every byte and fingerprint the
/// server sees but not the work, which keeps runs on different seeds
/// comparable. In particular every run carries the same cap-hitting
/// optimizes.
const CORPUS: usize = 64;
/// `serve-hot`: instances in each client's pool.
const HOT_POOL: usize = 4;
/// `serve-hot`: zipf exponent over the pool's request keys.
const HOT_ZIPF_S: f64 = 1.1;
/// `serve-hot`: timed requests per client per second of run time.
const HOT_RATE: f64 = 40.0;
/// `serve-cold`: timed requests per second of run time.
const COLD_RATE: f64 = 5.25;
/// `serve-cold`: corpus seeds whose `optimize --eps 0.2` runs into the
/// 20 000-iteration certificate-seeking cap, of seeds 1..=40 (7 of 40).
const COLD_CLIFF_SEEDS: &[u64] = &[1, 3, 10, 13, 15, 26, 30];
/// `serve-cold`: optimizes use corpus seeds `1..=COLD_SEEDS`.
const COLD_SEEDS: u64 = 40;
/// `serve-cold`: one optimize in this many, starting with the first, is on
/// a cliff seed. A cap-hitting optimize costs as much as ~30 other
/// requests, so at the corpus's own share (7 in 40) it would leave the
/// median few samples.
const COLD_CLIFF_EVERY: usize = 10;
/// `serve-cold`: one cycle of request kinds (11 solve, 6 optimize,
/// 3 mixed), interleaved so every prefix is close to the target mix.
const COLD_CYCLE: &[u8; 20] = b"SOSSMSOSSOSOSSMSOSOM";

fn packing(label: String, inst: PackingInstance) -> Arc<Instance> {
    Arc::new(Instance { label, family: "random", payload: Payload::Packing(inst) })
}

/// Generates one client's request stream.
pub struct ClientGen {
    workload: Workload,
    seed: u64,
    client: usize,
    /// `serve-hot`: the request keys, most popular first.
    hot_keys: Vec<(Command, Arc<Instance>)>,
    /// `serve-hot`: cumulative zipf weights over `hot_keys`.
    hot_cdf: Vec<f64>,
}

impl ClientGen {
    pub fn new(workload: Workload, seed: u64, client: usize) -> ClientGen {
        let mut gen =
            ClientGen { workload, seed, client, hot_keys: Vec::new(), hot_cdf: Vec::new() };
        if workload == Workload::ServeHot {
            // Each client relabels the pool its own way, so the clients'
            // fingerprints are disjoint.
            let pool: Vec<Arc<Instance>> = (0..HOT_POOL)
                .map(|j| {
                    let base = random_instance(128, j as u64 + 1);
                    let mut rng = rng_for(derive(&[seed, 1, client as u64]), j as u64);
                    packing(format!("hot{client}.{j}"), relabel(&base, &mut rng))
                })
                .collect();
            // Key ranks: solve on pool[0], optimize on pool[0], then the
            // solves on the rest of the pool.
            let solve = |j: usize| Command::Solve {
                threshold: 1.0 + 0.25 * j as f64,
                eps: 0.2,
                engine: "exact",
            };
            gen.hot_keys.push((solve(0), Arc::clone(&pool[0])));
            gen.hot_keys.push((Command::Optimize { eps: 0.5 }, Arc::clone(&pool[0])));
            for (j, inst) in pool.iter().enumerate().skip(1) {
                gen.hot_keys.push((solve(j), Arc::clone(inst)));
            }
            let mut acc = 0.0;
            for r in 1..=gen.hot_keys.len() {
                acc += 1.0 / (r as f64).powf(HOT_ZIPF_S);
                gen.hot_cdf.push(acc);
            }
            for c in &mut gen.hot_cdf {
                *c /= acc;
            }
        }
        gen
    }

    /// Requests sent before the timed phase (each `serve-hot` key once).
    pub fn warmup(&self) -> Vec<Request> {
        self.hot_keys
            .iter()
            .enumerate()
            .map(|(i, (cmd, inst))| {
                Request::new(format!("c{}-w{i}", self.client), *cmd, Arc::clone(inst), Wire::Text)
            })
            .collect()
    }

    /// Timed requests this client sends in a run of `seconds`: a fixed
    /// count per second of run time, sized so a run on a 2-core x86-64
    /// machine lasts about `seconds`. A fixed count (not a deadline) keeps
    /// the work of a run independent of timing noise. `solve-large` sends
    /// m = 128 and m = 256 in equal numbers.
    pub fn timed_count(&self, seconds: u64) -> usize {
        let s = seconds as f64;
        match self.workload {
            Workload::SolveLarge => 2 * ((s / 6.5).round() as usize).max(1),
            Workload::ServeHot => ((s * HOT_RATE) as usize).max(1),
            Workload::ServeCold => ((s * COLD_RATE) as usize).max(1),
        }
    }

    /// The `k`-th timed request.
    pub fn timed(&self, k: usize) -> Request {
        let id = format!("c{}-{k}", self.client);
        let label = format!("{}{}.{k}", self.workload.name(), self.client);
        let mut rng = rng_for(derive(&[self.seed, 2, self.client as u64]), k as u64);
        match self.workload {
            Workload::SolveLarge => {
                // Pairs: m = 128 then m = 256, the j-th pair on seed j + 1.
                let dim = if k.is_multiple_of(2) { 128 } else { 256 };
                let base = random_instance(dim, (k / 2 % CORPUS) as u64 + 1);
                let cmd = Command::Solve { threshold: 1.0, eps: 0.2, engine: "auto" };
                Request::new(id, cmd, packing(label, relabel(&base, &mut rng)), Wire::Text)
            }
            Workload::ServeHot => {
                let u: f64 = rng.gen();
                let r = self.hot_cdf.iter().position(|&p| u < p).unwrap_or(self.hot_cdf.len() - 1);
                let (cmd, inst) = &self.hot_keys[r];
                Request::new(id, *cmd, Arc::clone(inst), Wire::Text)
            }
            Workload::ServeCold => {
                let slot = COLD_CYCLE[k % COLD_CYCLE.len()];
                // This request's position among the requests of its kind.
                let j = (slots_before(slot, k) % CORPUS) as u64;
                let (cmd, inst) = match slot {
                    // eps 0.05: ~500 decision iterations, so a solve's
                    // latency is its own work rather than scheduling noise.
                    b'S' => (
                        Command::Solve { threshold: 1.0, eps: 0.05, engine: "auto" },
                        packing(label, relabel(&random_instance(32, j + 1), &mut rng)),
                    ),
                    b'O' => (
                        Command::Optimize { eps: 0.2 },
                        packing(
                            label,
                            relabel(&random_instance(32, cold_optimize_seed(j)), &mut rng),
                        ),
                    ),
                    _ => {
                        // Alternate the two mixed families.
                        let (family, base) = if j.is_multiple_of(2) {
                            let lp = |s| Some(mixed_lp_diagonal(32, 16, 8, 0.6, s));
                            ("mixed-lp", mixed_base(j / 2 + 1, lp))
                        } else {
                            ("mixed-graph", mixed_base(j / 2 + 1, mixed_graph))
                        };
                        let payload = Payload::Mixed(relabel_mixed(&base, &mut rng));
                        (Command::Mixed { eps: 0.2 }, Arc::new(Instance { label, family, payload }))
                    }
                };
                Request::new(id, cmd, inst, Wire::Frame)
            }
        }
    }
}

/// How many of the first `k` serve-cold requests have kind `slot`.
fn slots_before(slot: u8, k: usize) -> usize {
    COLD_CYCLE.iter().cycle().take(k).filter(|&&b| b == slot).count()
}

/// The corpus seed of the `j`-th serve-cold optimize: a cliff seed for
/// every [`COLD_CLIFF_EVERY`]-th, else the next seed that does not hit
/// the cap.
fn cold_optimize_seed(j: u64) -> u64 {
    let every = COLD_CLIFF_EVERY as u64;
    if j.is_multiple_of(every) {
        return COLD_CLIFF_SEEDS[(j / every) as usize % COLD_CLIFF_SEEDS.len()];
    }
    let plain: Vec<u64> = (1..=COLD_SEEDS).filter(|s| !COLD_CLIFF_SEEDS.contains(s)).collect();
    plain[(j - j / every - 1) as usize % plain.len()]
}

/// A mixed base instance from `generate(seed)`, re-drawn while some
/// covering direction is left uncovered: its optimum would be the trivial
/// σ* = 0 with no certificate to check (an empty covering row of
/// `mixed-lp`, an isolated vertex or no edge at all in `mixed-graph`).
fn mixed_base(seed: u64, generate: impl Fn(u64) -> Option<MixedInstance>) -> MixedInstance {
    let mut s = seed;
    loop {
        if let Some(inst) = generate(s) {
            let covered = inst.cover().weighted_sum(&vec![1.0; inst.n()]);
            if (0..inst.cover_dim()).all(|r| covered[(r, r)] > 0.0) {
                return inst;
            }
        }
        s = derive(&[s]);
    }
}

/// `psdp generate --family mixed-graph --dim 12 --p 0.5`; `None` for an
/// edgeless graph.
fn mixed_graph(seed: u64) -> Option<MixedInstance> {
    let g = gnp(12, 0.5, seed);
    (g.m() > 0).then(|| mixed_edge_cover(&g, 0.5))
}
