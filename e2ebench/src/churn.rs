//! The `serve-churn` client: one connection to `sbp-serve`, driven as a
//! closed loop. Each round ingests a batch of edge deltas, repartitions
//! warm, reads membership for a vertex range, then reads stats. After
//! every round, outside the timed requests, the client reads the full
//! membership and checks the daemon's DL against the DL recomputed on the
//! client's own mutated copy of the graph.
//!
//! With `--trace 1` the rounds are then replayed in-process (apply the
//! deltas, compute the dirty set, run the same warm solve with progress
//! events) and every replayed partition must equal the daemon's.

use crate::phases::PhaseClock;
use crate::traces::{baseline, graph_load_s, proc_cpu_seconds, shard_probe};
use crate::{dl_of, load, put_core, read_labels, recompute_dl, Args, Report};
use edist::core::run::{NoProgress, RunConfig, Solver, WarmStart};
use edist::core::{SbpConfig, SolverRegistry, SolverSpec};
use edist::eval::{nmi, normalized_dl};
use edist::graph::{EdgeDelta, Graph, Vertex};
use edist::serve::protocol::{encode_frame, RepartitionMode};
use edist::serve::{dirty_set, Client, Request, Response};
use std::path::Path;
use std::time::{Duration, Instant};

/// Arcs added inside planted communities per batch.
const ADDS: usize = 8;
/// Existing arcs removed per batch (as many as are added, so E stays put).
const REMOVES: usize = 8;
/// Vertices in each round's membership read.
const READ_RANGE: usize = 256;

/// SplitMix64: small, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_C0DE_D15C_0BAD)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Deterministic delta batches from the seed and the planted truth.
pub struct Batcher {
    rng: Rng,
    members: Vec<Vec<Vertex>>,
    truth: Vec<u32>,
}

impl Batcher {
    /// A batcher over the planted communities `truth`.
    pub fn new(seed: u64, truth: Vec<u32>) -> Self {
        let mut members = vec![Vec::new(); crate::block_count(&truth)];
        for (v, &c) in truth.iter().enumerate() {
            members[c as usize].push(v as Vertex);
        }
        Batcher {
            rng: Rng::new(seed),
            members,
            truth,
        }
    }

    /// The next batch against the current `graph`: [`ADDS`] new arcs
    /// between distinct members of one planted community, and
    /// [`REMOVES`] distinct existing arcs taken away.
    pub fn next(&mut self, graph: &Graph) -> Vec<EdgeDelta> {
        let n = graph.num_vertices();
        let mut batch = Vec::with_capacity(ADDS + REMOVES);
        while batch.len() < REMOVES {
            let v = self.rng.below(n) as Vertex;
            let out = graph.out_edges(v);
            if out.is_empty() {
                continue;
            }
            let (u, _) = out[self.rng.below(out.len())];
            if !batch.iter().any(|d: &EdgeDelta| d.src == v && d.dst == u) {
                batch.push(EdgeDelta {
                    src: v,
                    dst: u,
                    delta: -1,
                });
            }
        }
        while batch.len() < ADDS + REMOVES {
            let v = self.rng.below(n);
            let community = &self.members[self.truth[v] as usize];
            let u = community[self.rng.below(community.len())];
            if u as usize != v {
                batch.push(EdgeDelta {
                    src: v as Vertex,
                    dst: u,
                    delta: 1,
                });
            }
        }
        batch
    }

    /// First vertex of a read range.
    fn range_start(&mut self, n: usize) -> usize {
        self.rng.below(n.saturating_sub(READ_RANGE).max(1))
    }
}

/// Times applying one batch (and computing its dirty set) on a copy of
/// `graph`: the graph and serve layers' per-batch cost on any workload.
pub fn delta_probe(graph: &Graph, truth: &str, seed: u64, r: &mut Report) -> Result<(), String> {
    let mut batcher = Batcher::new(seed, read_labels(truth)?);
    let mut copy = graph.clone();
    let batch = batcher.next(&copy);
    let t = Instant::now();
    copy.apply_edge_deltas(&batch).map_err(|e| e.to_string())?;
    r.put("graph.apply_deltas_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let dirty = dirty_set(&copy, &batch);
    r.put("serve.dirty_set_s", t.elapsed().as_secs_f64());
    r.put("serve.dirty_vertices", dirty.len() as f64);
    Ok(())
}

/// Bytes of a request and its reply on the wire, frames included.
fn frame_bytes(req: &Request, resp: &Response) -> u64 {
    (encode_frame(&req.encode()).len() + encode_frame(&resp.encode()).len()) as u64
}

/// One request, timed; the reply and its latency.
fn timed(client: &mut Client, req: &Request, wire: &mut u64) -> Result<(Response, f64), String> {
    let t = Instant::now();
    let resp = client.request(req).map_err(|e| e.to_string())?;
    let seconds = t.elapsed().as_secs_f64();
    *wire += frame_bytes(req, &resp);
    Ok((resp, seconds))
}

fn membership(client: &mut Client, ids: Vec<Vertex>) -> Result<Vec<u32>, String> {
    match client.request(&Request::Membership(ids)) {
        Ok(Response::Membership(labels)) => Ok(labels),
        other => Err(format!("membership: unexpected reply {other:?}")),
    }
}

fn stats(client: &mut Client) -> Result<edist::serve::protocol::StatsReply, String> {
    match client.request(&Request::Stats) {
        Ok(Response::Stats(s)) => Ok(s),
        other => Err(format!("stats: unexpected reply {other:?}")),
    }
}

/// The exact contract every round must meet: nothing pending, not
/// degraded, and the reported DL equal, bit for bit, to the DL of the
/// full membership recomputed on the client's copy of the graph.
fn state_holds(graph: &Graph, labels: &[u32], s: &edist::serve::protocol::StatsReply) -> bool {
    let dl = dl_of(graph, labels, s.num_blocks as usize);
    let ok = s.pending_deltas == 0 && s.degraded == 0 && dl.to_bits() == s.dl.to_bits();
    if !ok {
        eprintln!(
            "churn: daemon state broke its contract (pending {}, degraded {}, DL {:016x} vs recomputed {:016x})",
            s.pending_deltas,
            s.degraded,
            s.dl.to_bits(),
            dl.to_bits()
        );
    }
    ok
}

/// What a round left behind for the in-process replay.
struct Round {
    deltas: Vec<EdgeDelta>,
    labels: Vec<u32>,
    dl_bits: u64,
}

/// Latency samples of one request kind.
#[derive(Default)]
struct Samples(Vec<f64>);

impl Samples {
    fn quantile(&self, q: f64) -> f64 {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        if v.is_empty() {
            return f64::NAN;
        }
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }
}

/// `churn`: the closed loop against a running daemon.
pub fn cmd_churn(a: &Args) -> Result<Report, String> {
    let seed: u64 = a.num("seed")?;
    let seconds: f64 = a.num("seconds")?;
    let min_rounds: usize = a.num("min-rounds")?;
    let daemon = a.get("daemon-pid")?;
    let trace = a.flag("trace");
    let mut graph = load(a.get("graph")?)?;
    let truth = read_labels(a.get("truth")?)?;
    let n = graph.num_vertices();
    let mut batcher = Batcher::new(seed, truth.clone());
    let mut client =
        Client::connect_unix(Path::new(a.get("socket")?)).map_err(|e| e.to_string())?;

    let mut attempted = 1u64;
    let mut failed = 0u64;
    let initial_stats = stats(&mut client)?;
    let initial = membership(&mut client, (0..n as Vertex).collect())?;
    if !state_holds(&graph, &initial, &initial_stats) {
        failed += 1;
    }

    let (mut ingest, mut repart, mut member, mut stat, mut reads) = (
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
    );
    // Seconds spent in the timed requests (the round checks excluded).
    let mut busy = 0.0;
    let (mut swept, mut iterations, mut wire) = (0u64, 0u64, 0u64);
    let mut rounds: Vec<Round> = Vec::new();
    let mut last_labels = initial.clone();
    let mut last_dl = initial_stats.dl;
    let cpu0 = proc_cpu_seconds(daemon)?;
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    // A slow daemon still stops in time to report the rounds it managed.
    let hard_stop = Duration::from_secs_f64(seconds * 2.0 + 30.0);
    let mut done = 0usize;
    while (started.elapsed() < budget || done < min_rounds) && started.elapsed() < hard_stop {
        attempted += 1;
        let deltas = batcher.next(&graph);
        let lo = batcher.range_start(n);
        let ids: Vec<Vertex> = (lo..(lo + READ_RANGE).min(n))
            .map(|v| v as Vertex)
            .collect();

        let (r1, t1) = timed(&mut client, &Request::Ingest(deltas.clone()), &mut wire)?;
        let req = Request::Repartition {
            mode: RepartitionMode::Warm,
            backend: String::new(),
        };
        let (r2, t2) = timed(&mut client, &req, &mut wire)?;
        let (r3, t3) = timed(&mut client, &Request::Membership(ids.clone()), &mut wire)?;
        let (r4, t4) = timed(&mut client, &Request::Stats, &mut wire)?;
        graph
            .apply_edge_deltas(&deltas)
            .map_err(|e| format!("client copy rejected its own batch: {e}"))?;

        // Untimed: the round's exact contract.
        let labels = membership(&mut client, (0..n as Vertex).collect())?;
        let mut ok = matches!(r1, Response::IngestAck { pending_deltas } if pending_deltas == deltas.len() as u64);
        match (&r2, &r3, &r4) {
            (
                Response::RepartitionDone {
                    dl,
                    iterations: it,
                    swept_vertices,
                    ..
                },
                Response::Membership(range),
                Response::Stats(s),
            ) => {
                ok &= dl.to_bits() == s.dl.to_bits();
                ok &= range.as_slice() == &labels[lo..lo + ids.len()];
                ok &= state_holds(&graph, &labels, s);
                swept += swept_vertices;
                iterations += it;
                last_dl = s.dl;
            }
            other => {
                eprintln!("churn: unexpected replies {other:?}");
                ok = false;
            }
        }
        if !ok {
            failed += 1;
        }
        ingest.0.push(t1);
        repart.0.push(t2);
        member.0.push(t3);
        stat.0.push(t4);
        reads.0.push(t3);
        reads.0.push(t4);
        busy += t1 + t2 + t3 + t4;
        if trace {
            rounds.push(Round {
                deltas,
                dl_bits: last_dl.to_bits(),
                labels: labels.clone(),
            });
        }
        last_labels = labels;
        done += 1;
    }
    let daemon_cpu = proc_cpu_seconds(daemon)? - cpu0;
    let loop_wall = started.elapsed().as_secs_f64();
    drop(client);

    let k = done.max(1) as f64;
    let mut r = Report::default();
    r.put("attempted", attempted as f64);
    r.put("failed", failed as f64);
    r.put("rounds", done as f64);
    r.put("solve_s", repart.quantile(0.5));
    r.put("solve_p90_s", repart.quantile(0.9));
    r.put("rounds_per_s", done as f64 / busy);
    r.put("cpu_s", daemon_cpu / k);
    r.put("wire_bytes", wire as f64 / k);
    r.put("nmi", nmi(&last_labels, &truth));
    r.put(
        "dl_norm",
        normalized_dl(last_dl, n, graph.total_edge_weight()),
    );
    r.put("serve.ingest_s", ingest.quantile(0.5));
    r.put("serve.repartition_s", repart.quantile(0.5));
    r.put("serve.repartition_p90_s", repart.quantile(0.9));
    r.put("serve.membership_s", member.quantile(0.5));
    r.put("serve.stats_s", stat.quantile(0.5));
    r.put("serve.read_p90_s", reads.quantile(0.9));
    r.put("serve.dirty_vertices", swept as f64 / k);
    r.put("serve.warm_iterations", iterations as f64 / k);
    r.put("pool.utilization", daemon_cpu / loop_wall);
    if trace {
        let (same, replay_round_s) = replay(a, seed, &initial, &rounds, &mut r)?;
        if !same {
            failed += 1;
            r.put("failed", failed as f64);
        }
        // The replay is the traced twin of the daemon's warm repartition.
        r.put(
            "trace.overhead_ratio",
            replay_round_s / repart.quantile(0.5),
        );
        shard_probe(&graph, a.get("scratch")?, &mut r)?;
        r.put("graph.load_s", graph_load_s(a.get("graph")?)?);
    }
    Ok(r)
}

/// Replays the rounds in-process, starting from the daemon's cold solve
/// reproduced here. Returns whether every state matched the daemon's, and
/// the mean seconds of a replayed round.
fn replay(
    a: &Args,
    seed: u64,
    initial: &[u32],
    rounds: &[Round],
    r: &mut Report,
) -> Result<(bool, f64), String> {
    let mut graph = load(a.get("graph")?)?;
    let mut registry = SolverRegistry::with_core_backends();
    edist::dist::register_solvers(&mut registry);
    let solver: Box<dyn Solver> = registry
        .build("sequential", &SolverSpec::default())
        .map_err(|e| e.to_string())?;
    let cfg = || {
        RunConfig::from_sbp(SbpConfig {
            seed,
            ..SbpConfig::default()
        })
    };
    let t = Instant::now();
    let cold = solver.solve(&graph, &cfg(), &mut NoProgress);
    let cold_s = t.elapsed().as_secs_f64();
    let mut ok = cold.assignment == initial;
    // Sequential and one-rank EDiSt are the same algorithm, bit for bit.
    let (base, base_s) = baseline(&graph, seed, r);
    ok &= base == initial;
    r.put("dist.efficiency", base_s / cold_s);

    let (mut assignment, mut blocks) = (cold.assignment, cold.num_blocks);
    let mut clock = PhaseClock::default();
    let (mut apply_s, mut dirty_s, mut rebuild_s, mut dl_s) = (0.0, 0.0, 0.0, 0.0);
    let mut replay_s = 0.0;
    for round in rounds {
        let t = Instant::now();
        graph
            .apply_edge_deltas(&round.deltas)
            .map_err(|e| e.to_string())?;
        apply_s += t.elapsed().as_secs_f64();
        let t2 = Instant::now();
        let dirty = dirty_set(&graph, &round.deltas);
        dirty_s += t2.elapsed().as_secs_f64();
        let warm = WarmStart::new(assignment, blocks.max(1)).with_dirty(dirty);
        let run_cfg = cfg().warm_start(warm);
        let out = clock.measure(|c| solver.solve(&graph, &run_cfg, c));
        replay_s += t.elapsed().as_secs_f64();
        let same =
            out.assignment == round.labels && out.description_length.to_bits() == round.dl_bits;
        if !same {
            eprintln!("churn: in-process replay diverged from the daemon");
        }
        ok &= same;
        let (_, rb, de) = recompute_dl(&graph, &out.assignment, out.num_blocks);
        rebuild_s += rb;
        dl_s += de;
        assignment = out.assignment;
        blocks = out.num_blocks;
    }
    let k = rounds.len().max(1) as f64;
    put_core(r, &clock, rounds.len());
    r.put("core.rebuild_s", rebuild_s / k);
    r.put("core.dl_eval_s", dl_s / k);
    r.put("graph.apply_deltas_s", apply_s / k);
    r.put("serve.dirty_set_s", dirty_s / k);
    Ok((ok, replay_s / k))
}
