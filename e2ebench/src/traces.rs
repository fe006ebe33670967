//! Traced in-process runs: the same solve as the untraced entry point,
//! driven through the library with timers around each layer's calls, its
//! output compared byte for byte with the untraced run's files.

use crate::phases::PhaseClock;
use crate::timed::{OpStat, TimedComm, OPS};
use crate::{
    assignment_text, load, median, put_core, read_text, recompute_dl, trajectory_text, Args, Report,
};
use edist::core::{HybridConfig, SbpConfig};
use edist::dist::{self, edist_sharded, load_dist_graph, EdistConfig};
use edist::graph::shard::shard_graph;
use edist::graph::{Graph, OwnershipStrategy};
use edist::mpi::{thread_cpu_time, CommStats, Communicator, SelfComm, TcpComm, TcpConfig};
use edist::{Backend, Partitioner};
use std::path::Path;
use std::time::Instant;

/// CPU seconds (user + system) a process has used so far, from
/// `/proc/<pid>/stat` (`pid` may be `self`). Linux reports them in
/// USER_HZ = 100 ticks per second.
pub fn proc_cpu_seconds(pid: &str) -> Result<f64, String> {
    let stat = read_text(&format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or_default();
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("unreadable /proc/{pid}/stat"))
    };
    Ok((tick(11)? + tick(12)?) / 100.0)
}

/// Compares a run's output with the files the untraced run wrote.
pub fn same_output(a: &Args, assignment: &[u32], trajectory: &str) -> Result<bool, String> {
    let same = read_text(a.get("expect-out")?)? == assignment_text(assignment)
        && read_text(a.get("expect-trajectory")?)? == trajectory;
    if !same {
        eprintln!("traced output differs from the untraced run");
    }
    Ok(same)
}

fn sbp(seed: u64) -> SbpConfig {
    SbpConfig {
        seed,
        ..SbpConfig::default()
    }
}

/// Median seconds of three `load_graph` calls on `path`.
pub fn graph_load_s(path: &str) -> Result<f64, String> {
    let mut times = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        std::hint::black_box(load(path)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(median(&mut times))
}

/// Puts the per-op numbers of every rank's timing decorator: seconds are
/// the mean over ranks, calls the per-rank count (every rank makes the
/// same calls), bytes the sum over ranks of bytes sent plus received.
fn put_mpi(r: &mut Report, ranks: &[[OpStat; 5]], stats: &[CommStats]) {
    let n = ranks.len() as f64;
    let mut calls = 0u64;
    for (i, op) in OPS.iter().enumerate() {
        let c = ranks.iter().map(|o| o[i].calls).max().unwrap_or(0);
        r.put(
            &format!("mpi.{op}_s"),
            ranks.iter().map(|o| o[i].seconds).sum::<f64>() / n,
        );
        r.put(&format!("mpi.{op}_calls"), c as f64);
        r.put(
            &format!("mpi.{op}_bytes"),
            ranks.iter().map(|o| o[i].bytes).sum::<u64>() as f64,
        );
        calls += c;
    }
    r.put("mpi.collectives", calls as f64);
    r.put(
        "mpi.bytes_sent",
        stats.iter().map(|s| s.bytes_sent).sum::<u64>() as f64,
    );
    r.put(
        "mpi.bytes_received",
        stats.iter().map(|s| s.bytes_received).sum::<u64>() as f64,
    );
}

/// The plain single-threaded baseline: EDiSt on one rank over
/// [`SelfComm`], through the timing decorator. Returns its assignment,
/// its solve seconds and its report entries.
pub fn baseline(graph: &Graph, seed: u64, r: &mut Report) -> (Vec<u32>, f64) {
    let t = Instant::now();
    let comm = SelfComm::new();
    r.put("mpi.connect_s", t.elapsed().as_secs_f64());
    let timed = TimedComm::new(&comm);
    let cpu = thread_cpu_time();
    let t = Instant::now();
    let result = dist::edist(
        &timed,
        graph,
        &EdistConfig {
            sbp: sbp(seed),
            ..EdistConfig::default()
        },
    );
    let wall = t.elapsed().as_secs_f64();
    let collective = timed.collective_seconds();
    put_mpi(r, &[timed.ops()], &[comm.stats()]);
    r.put("mpi.wait_share", collective / wall);
    r.put("dist.compute_s", wall - collective);
    r.put("dist.rank_cpu_s", thread_cpu_time() - cpu);
    r.put("dist.imbalance", 1.0);
    r.put("dist.move_bytes_raw", 0.0);
    r.put("dist.move_bytes_encoded", 0.0);
    (result.assignment, wall)
}

/// Ingest probe for the single-process workloads: writes `graph` as one
/// `.sbps` shard under `dir` and times `load_dist_graph` over it.
pub fn shard_probe(graph: &Graph, dir: &str, r: &mut Report) -> Result<(), String> {
    let dir = Path::new(dir);
    shard_graph(graph, dir, 1, OwnershipStrategy::SortedBalanced).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let dg = load_dist_graph(&SelfComm::new(), dir).map_err(|e| e.to_string())?;
    r.put("graph.shard_load_s", t.elapsed().as_secs_f64());
    r.put("graph.cut_arcs", dg.report().total_cut_arcs as f64);
    Ok(())
}

/// `trace-hybrid`: the hybrid solve in-process with progress events,
/// then the one-rank baseline on the same graph.
pub fn cmd_trace_hybrid(a: &Args) -> Result<Report, String> {
    let seed: u64 = a.num("seed")?;
    let threads: f64 = a.num("threads")?;
    let graph = load(a.get("graph")?)?;
    let mut r = Report::default();
    let mut clock = PhaseClock::default();
    let cpu = proc_cpu_seconds("self")?;
    let run = clock
        .measure(|c| {
            Partitioner::on(&graph)
                .seed(seed)
                .backend(Backend::Hybrid(HybridConfig::default()))
                .progress(|e| c.on(e))
                .run()
                .map_err(|e| e.to_string())
        })
        .map_err(|e| format!("traced hybrid run: {e}"))?;
    let cpu = proc_cpu_seconds("self")? - cpu;
    let trajectory = trajectory_text(&run.iterations, run.num_blocks, run.description_length);
    let same = same_output(a, &run.assignment, &trajectory)?;
    r.put("ok", f64::from(u8::from(same)));
    r.put("traced_wall_s", clock.total_s);
    put_core(&mut r, &clock, 1);
    let (_, rebuild_s, dl_s) = recompute_dl(&graph, &run.assignment, run.num_blocks);
    r.put("core.rebuild_s", rebuild_s);
    r.put("core.dl_eval_s", dl_s);
    r.put("pool.utilization", cpu / (clock.total_s * threads));
    r.put("graph.load_s", graph_load_s(a.get("graph")?)?);
    shard_probe(&graph, a.get("scratch")?, &mut r)?;
    crate::churn::delta_probe(&graph, a.get("truth")?, seed, &mut r)?;
    let (_, base_s) = baseline(&graph, seed, &mut r);
    r.put("dist.efficiency", base_s / (threads * clock.total_s));
    Ok(r)
}

/// What one traced TCP rank measured.
struct RankTrace {
    connect_s: f64,
    ingest_s: f64,
    solve_s: f64,
    cpu_s: f64,
    ingest_collective_s: f64,
    collective_s: f64,
    ops: [OpStat; 5],
    stats: CommStats,
    assignment: Vec<u32>,
    trajectory: String,
    move_bytes_raw: u64,
    move_bytes_encoded: u64,
    cut_arcs: usize,
}

fn tcp_rank(tcp: &TcpConfig, dir: &Path, seed: u64) -> Result<RankTrace, String> {
    let cpu = thread_cpu_time();
    let t = Instant::now();
    let comm = TcpComm::connect(tcp).map_err(|e| format!("rank {}: {e}", tcp.rank))?;
    let connect_s = t.elapsed().as_secs_f64();
    let timed = TimedComm::new(&comm);
    let t = Instant::now();
    let dg = load_dist_graph(&timed, dir).map_err(|e| format!("rank {}: {e}", tcp.rank))?;
    let ingest_s = t.elapsed().as_secs_f64();
    let ingest_collective_s = timed.collective_seconds();
    let t = Instant::now();
    let cfg = EdistConfig {
        sbp: sbp(seed),
        ownership: dg.strategy(),
        ..EdistConfig::default()
    };
    let (outcome, xstats) = edist_sharded(&timed, &dg, &cfg);
    let solve_s = t.elapsed().as_secs_f64();
    Ok(RankTrace {
        connect_s,
        ingest_s,
        solve_s,
        cpu_s: thread_cpu_time() - cpu,
        ingest_collective_s,
        collective_s: timed.collective_seconds() - ingest_collective_s,
        ops: timed.ops(),
        stats: comm.stats(),
        trajectory: trajectory_text(
            &outcome.iterations,
            outcome.num_blocks,
            outcome.description_length,
        ),
        assignment: outcome.assignment,
        move_bytes_raw: xstats.move_bytes_raw,
        move_bytes_encoded: xstats.move_bytes_encoded,
        cut_arcs: dg.report().total_cut_arcs,
    })
}

/// `trace-edist`: every rank on its own thread, each with its own
/// [`TcpComm`] over localhost: connect, `load_dist_graph`,
/// `edist_sharded`, all through the timing decorator. Then the one-rank
/// baseline on the monolithic graph.
pub fn cmd_trace_edist(a: &Args) -> Result<Report, String> {
    let seed: u64 = a.num("seed")?;
    let ranks: usize = a.num("ranks")?;
    let dir = Path::new(a.get("sharded")?);
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).map_err(|e| e.to_string())?;
    let coordinator = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    drop(listener);
    let session = seed ^ (u64::from(std::process::id()) << 32);
    let traces: Vec<Result<RankTrace, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..ranks)
            .map(|rank| {
                let tcp = TcpConfig::new(session, rank, ranks, coordinator.clone());
                s.spawn(move || tcp_rank(&tcp, dir, seed))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("rank thread panicked".into()))
            })
            .collect()
    });
    let traces: Vec<RankTrace> = traces.into_iter().collect::<Result<_, _>>()?;
    let mut same = true;
    for t in &traces {
        same &= same_output(a, &t.assignment, &t.trajectory)?;
    }
    let n = ranks as f64;
    let mean = |f: &dyn Fn(&RankTrace) -> f64| traces.iter().map(f).sum::<f64>() / n;
    let max = |f: &dyn Fn(&RankTrace) -> f64| traces.iter().map(f).fold(0.0, f64::max);
    let compute = |t: &RankTrace| t.solve_s - t.collective_s;
    let traced_wall = max(&|t| t.ingest_s + t.solve_s);

    let mut r = Report::default();
    r.put("ok", f64::from(u8::from(same)));
    r.put("traced_wall_s", traced_wall);
    let ops: Vec<_> = traces.iter().map(|t| t.ops).collect();
    let stats: Vec<_> = traces.iter().map(|t| t.stats).collect();
    put_mpi(&mut r, &ops, &stats);
    r.put("mpi.connect_s", max(&|t| t.connect_s));
    r.put(
        "mpi.wait_share",
        mean(&|t| (t.collective_s + t.ingest_collective_s) / (t.ingest_s + t.solve_s)),
    );
    r.put("dist.compute_s", mean(&compute));
    r.put("dist.rank_cpu_s", mean(&|t| t.cpu_s));
    r.put("dist.imbalance", max(&compute) / mean(&compute));
    r.put(
        "dist.move_bytes_raw",
        traces.iter().map(|t| t.move_bytes_raw).sum::<u64>() as f64,
    );
    r.put(
        "dist.move_bytes_encoded",
        traces.iter().map(|t| t.move_bytes_encoded).sum::<u64>() as f64,
    );
    r.put(
        "pool.utilization",
        traces.iter().map(|t| t.cpu_s).sum::<f64>() / (traced_wall * n),
    );
    r.put("graph.shard_load_s", max(&|t| t.ingest_s));
    r.put("graph.cut_arcs", traces[0].cut_arcs as f64);

    let graph = load(a.get("graph")?)?;
    r.put("graph.load_s", graph_load_s(a.get("graph")?)?);
    let (_, rebuild_s, dl_s) = recompute_dl(
        &graph,
        &traces[0].assignment,
        crate::block_count(&traces[0].assignment),
    );
    r.put("core.rebuild_s", rebuild_s);
    r.put("core.dl_eval_s", dl_s);
    crate::churn::delta_probe(&graph, a.get("truth")?, seed, &mut r)?;
    // The baseline's own mpi/dist numbers would overwrite the 2-rank ones,
    // so it reports into a scratch report and only its time is kept.
    let (_, base_s) = baseline(&graph, seed, &mut Report::default());
    r.put("dist.efficiency", base_s / (n * max(&|t| t.solve_s)));
    Ok(r)
}
