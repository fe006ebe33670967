//! Helper binary of the end-to-end benchmark (`e2ebench/run.py`).
//!
//! `run.py` times the real entry points (`edist-cli partition`,
//! `sbp-serve`) itself; this binary does what needs the library:
//!
//! - `check`: recomputes the DL of a written assignment and compares it,
//!   bit for bit, with the DL the run reported in its trajectory file;
//!   scores NMI and normalised DL.
//! - `reference`: the in-process simulator run a `tcp-local` result must
//!   equal byte for byte.
//! - `churn`: the single-connection closed-loop `sbp-serve` client.
//! - `trace-hybrid`, `trace-edist`: the traced in-process runs that give
//!   per-layer numbers.
//!
//! Each subcommand prints one JSON object as its last stdout line.

mod churn;
mod phases;
mod timed;
mod traces;

use edist::core::{Blockmodel, IterationStat};
use edist::eval::{nmi, normalized_dl};
use edist::graph::io::load_graph;
use edist::graph::Graph;
use edist::{Backend, Partitioner};
use phases::PhaseClock;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// `--key value` arguments.
pub struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut map = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument '{key}'"))?;
            let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
            map.insert(name.to_string(), value.clone());
        }
        Ok(Args(map))
    }

    /// The value of a required flag.
    pub fn get(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("--{key} is required"))
    }

    /// A required flag parsed as a number.
    pub fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.get(key)?
            .parse()
            .map_err(|_| format!("--{key}: not a number"))
    }

    /// An optional boolean flag (`1`/`true`).
    pub fn flag(&self, key: &str) -> bool {
        matches!(self.0.get(key).map(String::as_str), Some("1" | "true"))
    }
}

/// Named numbers printed as one JSON object.
#[derive(Default)]
pub struct Report(Vec<(String, f64)>);

impl Report {
    /// Adds one value.
    pub fn put(&mut self, key: &str, value: f64) {
        self.0.push((key.to_string(), value));
    }

    fn print(&self) {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| {
                let v = if v.is_finite() {
                    format!("{v:?}")
                } else {
                    "null".into()
                };
                format!("\"{k}\": {v}")
            })
            .collect();
        println!("{{{}}}", body.join(", "));
    }
}

/// The assignment file format `edist-cli partition --out` writes.
pub fn assignment_text(assignment: &[u32]) -> String {
    assignment.iter().map(|l| format!("{l}\n")).collect()
}

/// The exact trajectory format `edist-cli partition --trajectory-out`
/// writes: DL as hex `f64` bits, so equal files mean bit-identical runs.
pub fn trajectory_text(iterations: &[IterationStat], blocks: usize, dl: f64) -> String {
    let mut text: String = iterations
        .iter()
        .map(|it| {
            format!(
                "{} {:016x} {} {}\n",
                it.num_blocks,
                it.dl.to_bits(),
                it.sweeps,
                it.moves
            )
        })
        .collect();
    text.push_str(&format!("final {} {:016x}\n", blocks, dl.to_bits()));
    text
}

/// Reads a file another process wrote; a missing file is an error.
pub fn read_text(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
}

/// Parses an assignment file (one label per line).
pub fn read_labels(path: &str) -> Result<Vec<u32>, String> {
    read_text(path)?
        .lines()
        .map(|l| l.trim().parse().map_err(|_| format!("bad label in {path}")))
        .collect()
}

/// Loads a graph file.
pub fn load(path: &str) -> Result<Graph, String> {
    load_graph(Path::new(path)).map_err(|e| format!("loading {path}: {e}"))
}

/// The DL `Blockmodel::from_assignment` gives an assignment.
pub fn dl_of(graph: &Graph, assignment: &[u32], blocks: usize) -> f64 {
    Blockmodel::from_assignment(graph, assignment.to_vec(), blocks).description_length()
}

/// The DL `Blockmodel::from_assignment` gives an assignment, plus how long
/// the rebuild and the DL evaluation took (median of five of each).
pub fn recompute_dl(graph: &Graph, assignment: &[u32], blocks: usize) -> (f64, f64, f64) {
    let mut rebuild = Vec::new();
    let mut eval = Vec::new();
    let mut dl = f64::NAN;
    for _ in 0..5 {
        let t = Instant::now();
        let bm = Blockmodel::from_assignment(graph, assignment.to_vec(), blocks);
        rebuild.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        dl = std::hint::black_box(bm.description_length());
        eval.push(t.elapsed().as_secs_f64());
    }
    (dl, median(&mut rebuild), median(&mut eval))
}

/// Median of a non-empty sample.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Block count of a dense assignment.
pub fn block_count(assignment: &[u32]) -> usize {
    assignment.iter().max().map_or(0, |&m| m as usize + 1)
}

/// Puts the core-layer numbers of `clock`, averaged over `solves`.
pub fn put_core(r: &mut Report, clock: &PhaseClock, solves: usize) {
    let n = solves.max(1) as f64;
    r.put("core.merge_s", clock.merge_s / n);
    r.put("core.mcmc_s", clock.mcmc_s / n);
    r.put("core.other_s", clock.other_s() / n);
    r.put("core.iterations", clock.iterations as f64 / n);
    r.put("core.sweeps", clock.sweeps as f64 / n);
    r.put("core.proposals", clock.proposals as f64 / n);
    r.put("core.accepted", clock.accepted as f64 / n);
    r.put(
        "core.accept_ratio",
        clock.accepted as f64 / clock.proposals.max(1) as f64,
    );
}

/// `check`: the reported DL (last trajectory line) must equal the DL
/// recomputed from the written assignment, bit for bit.
fn cmd_check(a: &Args) -> Result<Report, String> {
    let graph = load(a.get("graph")?)?;
    let truth = read_labels(a.get("truth")?)?;
    let assignment = read_labels(a.get("out")?)?;
    let trajectory = read_text(a.get("trajectory")?)?;
    let last = trajectory.lines().last().unwrap_or_default();
    let fields: Vec<&str> = last.split_whitespace().collect();
    let (blocks, bits) = match fields.as_slice() {
        ["final", blocks, bits] => (
            blocks.parse::<usize>().map_err(|_| "bad trajectory")?,
            u64::from_str_radix(bits, 16).map_err(|_| "bad trajectory")?,
        ),
        _ => return Err(format!("no final line in {}", a.get("trajectory")?)),
    };
    let mut r = Report::default();
    let ok = assignment.len() == graph.num_vertices() && block_count(&assignment) <= blocks;
    let dl = if ok {
        dl_of(&graph, &assignment, blocks)
    } else {
        f64::NAN
    };
    let dl_ok = ok && dl.to_bits() == bits;
    if !dl_ok {
        eprintln!(
            "check: reported DL {:016x} but recomputed {:016x}",
            bits,
            dl.to_bits()
        );
    }
    r.put("ok", f64::from(u8::from(dl_ok)));
    r.put("nmi", nmi(&assignment, &truth));
    r.put(
        "dl_norm",
        normalized_dl(
            f64::from_bits(bits),
            graph.num_vertices(),
            graph.total_edge_weight(),
        ),
    );
    r.put("blocks", blocks as f64);
    Ok(r)
}

/// `reference`: `Partitioner::on_sharded(dir).backend(Edist{ranks})` on
/// the in-process thread simulator, written in the CLI's file formats.
/// Its progress events give the core-layer split of the distributed run.
fn cmd_reference(a: &Args) -> Result<Report, String> {
    let ranks: usize = a.num("ranks")?;
    let seed: u64 = a.num("seed")?;
    let mut clock = PhaseClock::default();
    let run = clock
        .measure(|c| {
            Partitioner::on_sharded(a.get("sharded")?)
                .seed(seed)
                .backend(Backend::Edist { ranks })
                .progress(|e| c.on(e))
                .run()
                .map_err(|e| e.to_string())
        })
        .map_err(|e| format!("reference run: {e}"))?;
    std::fs::write(a.get("out")?, assignment_text(&run.assignment)).map_err(|e| e.to_string())?;
    std::fs::write(
        a.get("trajectory-out")?,
        trajectory_text(&run.iterations, run.num_blocks, run.description_length),
    )
    .map_err(|e| e.to_string())?;
    let mut r = Report::default();
    r.put("wall_s", clock.total_s);
    put_core(&mut r, &clock, 1);
    Ok(r)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        eprintln!("usage: e2ebench check|reference|churn|trace-hybrid|trace-edist --key value ...");
        return ExitCode::from(2);
    };
    let result = Args::parse(&argv[1..]).and_then(|a| match cmd.as_str() {
        "check" => cmd_check(&a),
        "reference" => cmd_reference(&a),
        "churn" => churn::cmd_churn(&a),
        "trace-hybrid" => traces::cmd_trace_hybrid(&a),
        "trace-edist" => traces::cmd_trace_edist(&a),
        other => Err(format!("unknown subcommand '{other}'")),
    });
    match result {
        Ok(report) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench {cmd}: {e}");
            ExitCode::FAILURE
        }
    }
}
