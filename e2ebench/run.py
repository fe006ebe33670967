#!/usr/bin/env python3
"""End-to-end benchmark of the edist workspace.

Run from the repository root:

    python3 e2ebench/run.py --workload hybrid-dense --seed 1 --seconds 20 --trace 0

It builds the release binaries from source, generates the workload's
inputs from --seed, measures for --seconds, checks every output against
an exact contract, prints one line per metric, and prints as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics (untraced runs of the real
entry points); --trace 1 reports the per-layer metrics from a separate
traced run. Any broken contract makes it exit non-zero. See
e2ebench/README.md for the workloads, the metrics and the contracts.
"""

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "e2ebench")
# Per process, so two runs in one checkout never share inputs or sockets.
WORK = os.path.join(ROOT, ".bench_work", str(os.getpid()))

# Input sizes and thread pins per workload (see README.md for why).
HYBRID_VERTICES = 3000
HYBRID_THREADS = 2
SPARSE_ID = "FTT33"
SPARSE_SCALE = 0.25
SPARSE_RANKS = 2
SERVE_VERTICES = 3000
SERVE_MIN_ROUNDS = 110  # p90 then has at least 10 samples beyond it
# Set-ups per run; setup_s is their median. A serve-churn set-up includes
# the daemon's cold solve, so it gets fewer.
BATCH_SETUPS = 21
SERVE_SETUPS = 3
# Input instances per batch run, solved in turn: the pooled medians then
# vary less with any one graph's number of golden iterations.
INSTANCES = 3
HARD_LIMIT_S = 170.0  # after the build, every child is killed past this

DEADLINE = None  # set once the build is done


class Failure(Exception):
    """The benchmark cannot produce a result (no program, build error, ...)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def remaining():
    return max(1.0, DEADLINE - time.monotonic())


# ---------------------------------------------------------------- build


def build():
    """Builds edist-cli, sbp-serve and the benchmark helper; returns paths."""
    for f in ("Cargo.toml", "Cargo.lock", os.path.join("e2ebench", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, f)):
            raise Failure(f"{f} not found: run from the repository root")
    if shutil.which("cargo") is None:
        raise Failure("cargo not found")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.abspath(target))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "edist", "-p", "sbp-serve", "--bins"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", os.path.join(BENCH, "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
        if done.returncode != 0:
            raise Failure(f"build failed: {' '.join(cmd)}")
    release = os.path.join(env["CARGO_TARGET_DIR"], "release")
    bins = {name: os.path.join(release, name) for name in ("edist-cli", "sbp-serve", "e2ebench")}
    for path in bins.values():
        if not os.path.isfile(path):
            raise Failure(f"missing binary {path}")
    return bins


# ------------------------------------------------------------- processes


class Proc:
    """One finished child process: wall time, rusage, exit status."""

    def __init__(self, wall, rusage, status, stderr):
        self.wall = wall
        self.cpu = rusage.ru_utime + rusage.ru_stime
        self.rss_mb = rusage.ru_maxrss / 1024.0
        self.status = status
        self.stderr = stderr


def run_timed(cmd, cwd, env, err_path):
    """Runs cmd to completion and reaps it with wait4, whose rusage covers
    the child and every descendant it waited for (tcp-local's ranks)."""
    with open(err_path, "wb") as err:
        started = time.perf_counter()
        p = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, rusage = wait4_deadline(p)
        finally:
            if p.returncode is None:
                p.kill()
                p.wait()
        wall = time.perf_counter() - started
    with open(err_path, encoding="utf-8", errors="replace") as f:
        stderr = f.read()
    return Proc(wall, rusage, status, stderr)


def wait4_deadline(p):
    """Blocking os.wait4 under the run's hard limit (a timer kills the
    child when it runs out); marks the Popen as reaped."""
    expired = threading.Event()

    def kill():
        expired.set()
        os.kill(p.pid, signal.SIGKILL)

    timer = threading.Timer(remaining(), kill)
    timer.start()
    try:
        pid, status, rusage = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    if expired.is_set():
        raise Failure(f"{p.args[0]} exceeded the time limit")
    return pid, status, rusage


def tool(bins, args, cwd):
    """Runs the benchmark helper; returns its JSON report."""
    done = subprocess.run(
        [bins["e2ebench"]] + args, cwd=cwd, capture_output=True, text=True, timeout=remaining()
    )
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise Failure(f"e2ebench {args[0]} failed")
    return json.loads(done.stdout.strip().splitlines()[-1])


def cli(bins, args, cwd, env=None):
    done = subprocess.run(
        [bins["edist-cli"]] + args, cwd=cwd, env=env, capture_output=True, text=True, timeout=remaining()
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise Failure(f"edist-cli {args[0]} failed")
    return done


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def pinned_env(threads):
    return dict(os.environ, SBP_THREADS=str(threads))


# ------------------------------------------------------------ statistics


def quantile(values, q):
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo, hi = int(pos), min(int(pos) + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


class Ledger:
    """Operations attempted and failed, and whether every contract held."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"contract broken: {what}")


# ---------------------------------------------------------------- set-up


def instance_seed(seed, k):
    """Seed of a run's k-th input instance: graph, truth and solver seed."""
    return seed * INSTANCES + k


def generate(bins, d, seed, family_args, k):
    os.makedirs(d, exist_ok=True)
    cli(bins, ["generate"] + family_args + ["--seed", str(seed), "--out", f"g{k}.mtx", "--truth", f"truth{k}.txt"], d)


def input_files(d):
    """Every regular file under d (a set-up's inputs), relative, sorted."""
    found = []
    for root, _, files in os.walk(d):
        found += [os.path.relpath(os.path.join(root, f), d) for f in files if os.path.isfile(os.path.join(root, f))]
    return sorted(found)


def setups(ledger, count, make, after=None):
    """Runs make(i) `count` times, each followed by the untimed after(i);
    every set-up must write identical inputs. Returns the median seconds
    and the last set-up's directory."""
    times, dirs = [], []
    for i in range(count):
        started = time.perf_counter()
        d = make(i)
        times.append(time.perf_counter() - started)
        dirs.append(d)
        if after:
            after(i)
    snapshot = [(f, read_bytes(os.path.join(dirs[0], f))) for f in input_files(dirs[0])]
    for d in dirs[1:]:
        same = snapshot == [(f, read_bytes(os.path.join(d, f))) for f in input_files(d)]
        ledger.op(same, "the same seed generated different inputs")
    return statistics.median(times), dirs[-1]


# ------------------------------------------------------- batch workloads


def solve_loop(ledger, seconds, solve, expected):
    """Cycles over the instances, solving until `seconds` have passed and
    each instance has been solved once. An instance's first output becomes
    its expected output unless expected[k] is already set; every output
    must equal it byte for byte. Returns the (instance, process) pairs."""
    runs = []
    started = time.perf_counter()
    while len(runs) < len(expected) or time.perf_counter() - started < seconds:
        k = len(runs) % len(expected)
        proc, outputs = solve(k)
        if proc.status == 0 and expected[k] is None:
            expected[k] = outputs
        ledger.op(proc.status == 0 and outputs == expected[k],
                  f"instance {k} solve {len(runs)}: output differs (exit {proc.status})")
        runs.append((k, proc))
    return runs


def check_output(bins, ledger, d, k):
    check = tool(bins, ["check", "--graph", f"g{k}.mtx", "--truth", f"truth{k}.txt", "--out", f"a{k}.txt",
                        "--trajectory", f"t{k}.txt"], d)
    ledger.op(check["ok"] == 1, f"instance {k}: reported DL differs from the DL recomputed from the assignment")
    return check


def batch_metrics(bins, ledger, d, runs, setup_s, wire_bytes):
    """Pooled medians over every solve of every instance; quality and
    bytes are means over the instances."""
    checks = [check_output(bins, ledger, d, k) for k in range(INSTANCES)]
    walls = [p.wall for _, p in runs]
    print("# solve walls: " + " ".join(f"{k}:{p.wall:.3f}" for k, p in runs))
    return {
        "setup_s": setup_s,
        "solve_s": statistics.median(walls),
        "solve_p90_s": quantile(walls, 0.9),
        "cpu_s": statistics.median(p.cpu for _, p in runs),
        "peak_rss_mb": max(p.rss_mb for _, p in runs),
        "nmi": statistics.mean(c["nmi"] for c in checks),
        "dl_norm": statistics.mean(c["dl_norm"] for c in checks),
        "wire_bytes": statistics.mean(wire_bytes),
        "rounds_per_s": len(walls) / sum(walls),
        "ok_frac": 1.0 - ledger.failed / ledger.attempted,
    }, {"solve_s": len(walls), "solve_p90_s": len(walls), "cpu_s": len(walls)}


def batch_setup(bins, args, ledger, gen, ranks=None):
    """Generates the run's instances (and shards them into `ranks` shards)."""

    def make(i):
        d = os.path.join(WORK, f"setup{i}")
        for k in range(INSTANCES):
            generate(bins, d, instance_seed(args.seed, k), gen, k)
            if ranks:
                cli(bins, ["shard", "--graph", f"g{k}.mtx", "--ranks", str(ranks), "--out", f"shards{k}"], d)
        return d

    return setups(ledger, BATCH_SETUPS, make)


def hybrid_dense(bins, args, ledger):
    gen = ["--family", "challenge", "--vertices", str(HYBRID_VERTICES), "--difficulty", "hard"]
    setup_s, d = batch_setup(bins, args, ledger, gen)
    env = pinned_env(HYBRID_THREADS)

    def solve(k):
        cmd = [bins["edist-cli"], "partition", "--graph", f"g{k}.mtx", "--backend", "hybrid",
               "--seed", str(instance_seed(args.seed, k)), "--out", f"a{k}.txt", "--trajectory-out", f"t{k}.txt"]
        proc = run_timed(cmd, d, env, os.path.join(d, "err.txt"))
        return proc, (read_bytes(os.path.join(d, f"a{k}.txt")), read_bytes(os.path.join(d, f"t{k}.txt")))

    if args.trace:
        first = solve_loop(ledger, 0, solve, [None])[0][1]
        check_output(bins, ledger, d, 0)
        traced = tool(bins, ["trace-hybrid", "--graph", "g0.mtx", "--truth", "truth0.txt",
                             "--seed", str(instance_seed(args.seed, 0)), "--threads", str(HYBRID_THREADS),
                             "--expect-out", "a0.txt", "--expect-trajectory", "t0.txt", "--scratch", "shard1"], d)
        ledger.op(traced.pop("ok") == 1, "traced hybrid output differs from the untraced run")
        traced["trace.overhead_ratio"] = traced.pop("traced_wall_s") / first.wall
        return traced, {}
    runs = solve_loop(ledger, args.seconds, solve, [None] * INSTANCES)
    # No socket: the bytes crossing the process boundary are the graph it
    # reads and the partition and trajectory it writes.
    wire = [sum(os.path.getsize(os.path.join(d, f"{f}{k}.{x}")) for f, x in (("g", "mtx"), ("a", "txt"), ("t", "txt")))
            for k in range(INSTANCES)]
    return batch_metrics(bins, ledger, d, runs, setup_s, wire)


def parse_wire_bytes(stderr):
    """Rank 0's 'tcp cluster (rank-local view)' line: with two ranks every
    payload byte passes through rank 0."""
    for line in stderr.splitlines():
        if line.startswith("tcp cluster (rank-local view)"):
            return int(line.split("(")[2].split()[0])
    raise Failure("no tcp cluster summary on stderr")


def edist_tcp_sparse(bins, args, ledger):
    gen = ["--family", "param", "--id", SPARSE_ID, "--scale", str(SPARSE_SCALE)]
    setup_s, d = batch_setup(bins, args, ledger, gen, SPARSE_RANKS)
    instances = 1 if args.trace else INSTANCES
    # The in-process simulator's results, outside the timed region.
    expected, refs = [], []
    for k in range(instances):
        refs.append(tool(bins, ["reference", "--sharded", f"shards{k}", "--ranks", str(SPARSE_RANKS),
                                "--seed", str(instance_seed(args.seed, k)), "--out", f"ref_a{k}.txt",
                                "--trajectory-out", f"ref_t{k}.txt"], d))
        expected.append((read_bytes(os.path.join(d, f"ref_a{k}.txt")), read_bytes(os.path.join(d, f"ref_t{k}.txt"))))
    env = pinned_env(1)
    wires = {}

    def solve(k):
        cmd = [bins["edist-cli"], "partition", "--cluster", "tcp-local", "--ranks", str(SPARSE_RANKS),
               "--sharded", f"shards{k}", "--seed", str(instance_seed(args.seed, k)),
               "--out", f"a{k}.txt", "--trajectory-out", f"t{k}.txt"]
        proc = run_timed(cmd, d, env, os.path.join(d, "err.txt"))
        if proc.status == 0:
            wires.setdefault(k, set()).add(parse_wire_bytes(proc.stderr))
        return proc, (read_bytes(os.path.join(d, f"a{k}.txt")), read_bytes(os.path.join(d, f"t{k}.txt")))

    if args.trace:
        first = solve_loop(ledger, 0, solve, expected)[0][1]
        check_output(bins, ledger, d, 0)
        traced = tool(bins, ["trace-edist", "--sharded", "shards0", "--graph", "g0.mtx", "--truth", "truth0.txt",
                             "--ranks", str(SPARSE_RANKS), "--seed", str(instance_seed(args.seed, 0)),
                             "--expect-out", "ref_a0.txt", "--expect-trajectory", "ref_t0.txt"], d)
        ledger.op(traced.pop("ok") == 1, "traced TCP output differs from the untraced run")
        traced["trace.overhead_ratio"] = traced.pop("traced_wall_s") / first.wall
        traced.update((k, v) for k, v in refs[0].items() if k.startswith("core."))
        return traced, {}
    runs = solve_loop(ledger, args.seconds, solve, expected)
    for k in range(INSTANCES):
        ledger.op(len(wires.get(k, ())) == 1, f"instance {k}: wire bytes differ between identical runs")
    return batch_metrics(bins, ledger, d, runs, setup_s, [min(wires[k]) for k in sorted(wires)])


# ----------------------------------------------------------- serve-churn


class Daemon:
    """A running sbp-serve process on a unix socket in its directory."""

    def __init__(self, bins, d, seed):
        self.bins, self.d = bins, d
        self.err = open(d + ".serve.err", "wb")
        self.p = subprocess.Popen(
            [bins["sbp-serve"], "--graph", "g0.mtx", "--listen", "unix:d.sock", "--seed", str(seed)],
            cwd=d, env=pinned_env(1), stdout=subprocess.PIPE, stderr=self.err,
        )

    def wait_ready(self):
        """Returns after the first Stats reply."""
        ready, _, _ = select.select([self.p.stdout], [], [], remaining())
        line = self.p.stdout.readline().decode() if ready else ""
        if not line.startswith("listening on"):
            raise Failure("sbp-serve did not start")
        done = cli(self.bins, ["connect", "--to", "unix:d.sock", "--stats", "true"], self.d)
        if "DL" not in done.stdout + done.stderr:
            raise Failure("no stats reply from sbp-serve")

    def shutdown(self):
        """Asks the daemon to stop; returns its rusage."""
        cli(self.bins, ["connect", "--to", "unix:d.sock", "--shutdown", "true"], self.d)
        _, status, rusage = wait4_deadline(self.p)
        self.close()
        if status != 0:
            raise Failure(f"sbp-serve exited with {status}")
        return rusage

    def close(self):
        if self.p.returncode is None:
            self.p.kill()
            wait4_deadline(self.p)
        self.p.stdout.close()
        self.err.close()


def serve_churn(bins, args, ledger):
    seed = args.seed
    gen = ["--family", "challenge", "--vertices", str(SERVE_VERTICES), "--difficulty", "hard"]
    daemons = []

    def make(i):
        d = os.path.join(WORK, f"setup{i}")
        generate(bins, d, seed, gen, 0)
        daemon = Daemon(bins, d, seed)
        daemons.append(daemon)
        daemon.wait_ready()
        return d

    def after(i):
        # Only the last set-up's daemon serves the measured rounds.
        if i < SERVE_SETUPS - 1:
            daemons[i].shutdown()

    try:
        setup_s, d = setups(ledger, SERVE_SETUPS, make, after)
        daemon = daemons[-1]
        churn_args = ["churn", "--graph", "g0.mtx", "--truth", "truth0.txt", "--socket", "d.sock",
                      "--seed", str(seed),
                      # A traced run replays every round in-process, so it
                      # stops at the minimum round count.
                      "--seconds", str(0 if args.trace else args.seconds), "--min-rounds", str(SERVE_MIN_ROUNDS),
                      "--daemon-pid", str(daemon.p.pid), "--trace", str(args.trace), "--scratch", "shard1"]
        churn = tool(bins, churn_args, d)
        rusage = daemon.shutdown()
    finally:
        for daemon in daemons:
            daemon.close()
    ledger.attempted += int(churn["attempted"])
    ledger.failed += int(churn["failed"])
    if churn["failed"]:
        log("contract broken: serve-churn round checks failed")
    if args.trace:
        per_layer = {k: v for k, v in churn.items() if "." in k}
        return per_layer, {}
    rounds = int(churn["rounds"])
    metrics = {
        "setup_s": setup_s,
        "solve_s": churn["solve_s"],
        "solve_p90_s": churn["solve_p90_s"],
        "cpu_s": churn["cpu_s"],
        "peak_rss_mb": rusage.ru_maxrss / 1024.0,
        "nmi": churn["nmi"],
        "dl_norm": churn["dl_norm"],
        "wire_bytes": churn["wire_bytes"],
        "rounds_per_s": churn["rounds_per_s"],
        "ok_frac": 1.0 - ledger.failed / ledger.attempted,
    }
    return metrics, {"solve_s": rounds, "solve_p90_s": rounds, "cpu_s": rounds}


WORKLOADS = {
    "hybrid-dense": hybrid_dense,
    "edist-tcp-sparse": edist_tcp_sparse,
    "serve-churn": serve_churn,
}

# The daemon's request spans exist only on serve-churn; the batch
# workloads report them as zero.
SERVE_ONLY = ("serve.ingest_s", "serve.repartition_s", "serve.repartition_p90_s", "serve.membership_s",
              "serve.stats_s", "serve.read_p90_s", "serve.warm_iterations")


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    global DEADLINE
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open(os.path.join(BENCH, "..", "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        bins = build()
        DEADLINE = time.monotonic() + HARD_LIMIT_S
        os.makedirs(WORK)
        ledger = Ledger()
        metrics, counts = WORKLOADS[args.workload](bins, args, ledger)
    except (Failure, subprocess.TimeoutExpired, OSError, ValueError, KeyError, IndexError) as e:
        log(f"e2ebench: {e}")
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(WORK))
        except OSError:
            pass  # another run still uses it

    if args.trace and args.workload != "serve-churn":
        for name in SERVE_ONLY:
            metrics.setdefault(name, 0.0)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        log(f"e2ebench: metrics not measured: {missing}")
        return 1
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"nproc={os.cpu_count()} cpu={cpu_model()!r} "
          f"threads=SBP_THREADS={HYBRID_THREADS if args.workload == 'hybrid-dense' else 1}")
    out = {}
    for m in wanted:
        value = float(metrics[m["name"]])
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        n = counts.get(m["name"])
        print(f"{m['name']:>28} = {value:.6g} {m['unit']}" + (f"  (n={n})" if n else ""))
    correct = ledger.failed == 0
    print(json.dumps({"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
                      "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
