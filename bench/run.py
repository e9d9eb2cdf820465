"""repchain benchmark: run one workload, check its outputs, print its metrics.

Usage, from the repository root:

    python3 bench/run.py --workload closed-form --seed 1 --seconds 55 --trace 0

Workloads: closed-form, reproduce-mc, simulate-pooled, cli-cold (see
bench/README.md). `--trace 0` prints the end-to-end metrics, measured with no
tracing; `--trace 1` alternates untraced and traced batches and prints the
per-layer metrics from the traced ones. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the line
before it holds the run's metadata. Both, plus the span records of the first
traced batch, are also written under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# Set-ups per run, spread evenly over the measured time and grouped into
# ROUNDS equal slices of it. setup_s is the median over the slices of the mean
# set-up time in each. The host's speed swings between two levels; a slice mean
# mixes them, where a median over single set-ups jumps from one to the other.
SETUP_REPS = 25
ROUNDS = 5
# How wall_s is taken from a run, per workload. The host's speed flips between
# a quiet and a slow level, about 1.8x apart, from one call to the next, and the
# share of slow calls drifts over minutes. Almost every 40 ms closed-form batch
# holds slow calls, so any quantile of its batch walls moves with that share.
# There, wall_s is the sum over the batch's operations of each one's OP_QUANTILE
# quantile: the cost of a batch on a quiet host. A cli-cold batch spans seconds
# and mixes both levels, and the median of its batch walls is the steadier.
OP_QUANTILE = {"closed-form": 0.02}
TAIL_BEYOND = 10
# Call latencies kept for the percentiles: the first this many calls, which is
# 6 800 closed-form batches, five times what a 55 s run now makes. The buffer is
# allocated in full up front, so peak memory does not grow with speed.
LATENCY_CAP = 1 << 19

# Call latency percentiles and rows per second go to the metadata line, not
# here. On a shared host the percentiles move with host load more than a bound
# could allow. Each batch makes a fixed number of rows, so rows per second is
# rows / wall_s, and as an inverse it spreads wider than wall_s.
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("closed-form", "reproduce-mc", "simulate-pooled", "cli-cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- measurement helpers ------------------------------------------------------

def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it.

    With too few samples for that, the maximum, labelled as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def quantile(values, q: float) -> float:
    """The q-quantile of values, interpolated between order statistics."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quiet_batch_wall(runner: "Runner", q: float) -> float:
    """Sum over the batch's operations of each one's q-quantile call time.

    Call i of batch b is kept at b * len(ops) + i, so an operation's calls are
    every len(ops)-th kept latency. Only whole batches count.
    """
    width = len(runner.ops)
    kept = runner.kept_latencies()
    end = len(kept) - len(kept) % width
    return sum(quantile(kept[i:end:width], q) for i in range(width))


def time_child(args: list[str]) -> float:
    from workloads import child_env
    start = time.perf_counter()
    # Pipes, not DEVNULL: with no pipe to read, a wait with a timeout polls at
    # up to 50 ms intervals, which would round every child time up to that step.
    subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(), check=True,
                   capture_output=True, timeout=60)
    return time.perf_counter() - start


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# -- batches ------------------------------------------------------------------

class Runner:
    """Runs batches of one workload and keeps what the metrics need."""

    def __init__(self, ops, ctx) -> None:
        self.ops = ops
        self.ctx = ctx
        self.first = None
        # 16 bytes per batch: a run of 10 000 batches keeps 160 kB.
        self.walls = array("d")
        self.rows = array("q")
        self.latencies = array("d", bytes(8 * LATENCY_CAP))
        self.calls = 0
        self.mismatches = 0          # op outputs that differ from the first batch
        self.batches = 0
        self.errors: list[str] = []

    def batch(self, tracer=None) -> float:
        import workloads
        outputs, rows = [], 0
        if tracer is not None:
            tracer.push("bench.batch")
        start = time.perf_counter()
        for op in self.ops:
            if tracer is not None:
                tracer.trace_id = op["id"]
            t0 = time.perf_counter()
            try:
                out = workloads.execute(op, self.ctx)
            except Exception as exc:   # a failed operation is counted, the run goes on
                out = exc
                if len(self.errors) < 5:
                    self.errors.append("".join(traceback.format_exception(exc))[-2000:])
            if self.calls < LATENCY_CAP:
                self.latencies[self.calls] = time.perf_counter() - t0
            self.calls += 1
            outputs.append(out)
            if not isinstance(out, Exception):
                rows += workloads.output_rows(out)
        wall = tracer.pop() if tracer is not None else time.perf_counter() - start
        if self.first is None:
            self.first = outputs
        else:
            # An op that failed in the first batch is already counted as failed
            # in every batch.
            self.mismatches += sum(
                not isinstance(b, Exception) and (isinstance(a, Exception) or a != b)
                for a, b in zip(outputs, self.first))
        self.walls.append(wall)
        self.rows.append(rows)
        self.batches += 1
        return wall

    def kept_latencies(self):
        return self.latencies[:min(self.calls, LATENCY_CAP)]

    def verify_first(self) -> list[list[str]]:
        """Problems of each operation's output in the first batch."""
        import workloads
        problems = []
        for op, out in zip(self.ops, self.first):
            if isinstance(out, Exception):
                problems.append([f"exception: {out!r}"])
                continue
            try:
                problems.append(workloads.verify(op, out, self.ctx))
            except Exception as exc:   # an unreadable output is a failed operation
                problems.append([f"verification raised {exc!r}"])
        return problems


def mc_summary(runner: Runner, problems: list[list[str]]) -> dict:
    """Non-zero-work trials and k0 estimates per batch, and the pool check.

    The pool check runs one estimate per mode again in this process, with
    workers=1 and workers=nproc.
    """
    import checks
    import workloads
    from repchain.montecarlo import McConfig

    trials, k0, chosen = 0, 0, {}
    for op, out, failed in zip(runner.ops, runner.first, problems):
        if failed:
            continue
        for est in workloads.mc_estimates(op, out):
            mode, profile, design, tau = est[:4]
            if checks.draw_path(mode, profile, design, tau)[0] == "k0":
                k0 += 1
                continue
            trials += est[4]
            chosen.setdefault(mode, est)
    mismatched, serial_s, pooled_s = [], 0.0, 0.0
    for mode, (_m, profile, design, tau, n_trials, seed, reported, scale) in chosen.items():
        # Each setting runs twice and the faster run is timed, so one-time
        # costs of the first call do not land on one side.
        results, fastest = set(), {}
        for workers in sorted({1, workloads.NPROC}) * 2:
            start = time.perf_counter()
            est = workloads.simulate(mode, profile, design, tau,
                                     McConfig(seed, n_trials, mode, workers))
            elapsed = time.perf_counter() - start
            fastest[workers] = min(elapsed, fastest.get(workers, elapsed))
            results.add((workers, est.mean, est.std_error))
        serial_s += fastest[1]
        pooled_s += fastest[workloads.NPROC]
        values = {r[1:] for r in results}
        if len(values) != 1 or any(mean * scale != reported for mean, _se in values):
            mismatched.append(f"{mode.value}: workers 1 vs {workloads.NPROC}: "
                              f"{sorted(results)}, batch reported {reported!r}")
    return {"trials_per_batch": trials, "k0_per_batch": k0, "pool_checked": len(chosen),
            "pool_mismatched": mismatched,
            "pool_speedup": serial_s / pooled_s if pooled_s > 0 else 0.0}


# -- the run ------------------------------------------------------------------

def run(args: argparse.Namespace) -> tuple[dict, dict, dict | None]:
    import numpy
    import workloads
    from spans import Tracer

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": workloads.NPROC, "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "loadavg_start": list(os.getloadavg()),
    }
    workdir = OUT_DIR / f"tmp-{os.getpid()}"
    ctx = workloads.Context(workdir)
    setup_s, interp_s, import_s = [], [], []

    def set_up() -> list[dict]:
        """One set-up: a cold `import repchain.cli`, the inputs and the profile files."""
        if args.trace:
            interp_s.append(time_child(["-c", "pass"]))
        start = time.perf_counter()
        import_s.append(time_child(["-c", "import repchain.cli"]))
        generated = workloads.generate(args.workload, args.seed)
        workloads.write_profiles(ctx)
        setup_s.append(time.perf_counter() - start)
        return generated

    try:
        begin = time.perf_counter()
        ops = set_up()
        runner = Runner(ops, ctx)
        tracer = Tracer() if args.trace else None
        traced_walls, untraced_walls = [], []
        deadline = begin + args.seconds
        while True:
            while len(setup_s) < SETUP_REPS and time.perf_counter() >= (
                    begin + args.seconds * len(setup_s) / SETUP_REPS):
                if set_up() != ops:
                    raise RuntimeError("the same seed generated different inputs")
            if tracer is None:
                runner.batch()
            else:
                # Alternate so both sides see the same machine conditions.
                untraced_walls.append(runner.batch())
                tracer.keep = not traced_walls
                tracer.install()
                ctx.tracer = tracer if args.workload == "cli-cold" else None
                try:
                    traced_walls.append(runner.batch(tracer))
                finally:
                    tracer.uninstall()
                    ctx.tracer = None
                    tracer.keep = False
            if time.perf_counter() >= deadline:
                break
        while len(setup_s) < SETUP_REPS:        # runs too short to spread them
            set_up()
        # Peak memory of the workload itself, before verification adds its own.
        # For cli-cold this is the largest child, pool threads included.
        peak_kb = resource.getrusage(
            resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
        ).ru_maxrss

        verify_start = time.perf_counter()
        problems = runner.verify_first()
        first_failed = sum(bool(p) for p in problems)
        attempted = len(ops) * runner.batches
        failed = first_failed * runner.batches + runner.mismatches
        mc = mc_summary(runner, problems)
        attempted += mc["pool_checked"]
        failed += len(mc["pool_mismatched"])
        meta["verify_s"] = time.perf_counter() - verify_start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    latencies = runner.kept_latencies()
    tail_value, tail_pct = tail(latencies)
    meta.update({
        "batches": runner.batches,
        "ops_per_batch": len(ops),
        "rows_per_s": statistics.median(r / w for r, w in zip(runner.rows, runner.walls)),
        "calls": runner.calls,
        "latency_samples": len(latencies),
        "call_p50_ms": statistics.median(latencies) * 1e3,
        "call_tail_ms": tail_value * 1e3,
        "call_tail_percentile": tail_pct,
        "error_rate": failed / attempted,
        "problems": [f"op {op['id']} ({op['kind']}): {p[:3]}"
                     for op, p in zip(ops, problems) if p][:10]
                    + [f"pool: {m}" for m in mc["pool_mismatched"]],
        "exceptions": runner.errors,
        "output_mismatches": runner.mismatches,
        "loadavg_end": list(os.getloadavg()),
        "setup_samples_s": setup_s,
        "wall_median_s": statistics.median(runner.walls),
        "wall_p10_s": quantile(runner.walls, 0.1),
    })
    if mc["trials_per_batch"] or mc["k0_per_batch"]:
        per_batch = [mc["trials_per_batch"] / w for w in runner.walls]
        meta.update({
            "mc_trials_per_s": statistics.median(per_batch),
            "mc_k0_estimates_per_batch": mc["k0_per_batch"],
            "mc_pool_checked": mc["pool_checked"],
            "mc_pool_speedup": mc["pool_speedup"],
        })

    if tracer is None:
        per_round = SETUP_REPS // ROUNDS
        values = {
            "setup_s": statistics.median(
                statistics.fmean(setup_s[i:i + per_round])
                for i in range(0, SETUP_REPS, per_round)),
            "wall_s": (quiet_batch_wall(runner, OP_QUANTILE[args.workload])
                       if args.workload in OP_QUANTILE else statistics.median(runner.walls)),
            "peak_rss_mb": peak_kb / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    else:
        from layers import layer_metrics
        metrics = layer_metrics(
            tracer, traced_walls, untraced_walls, interp_s, import_s, mc)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return meta, result, tracer.export() if tracer is not None else None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repchain" / "__init__.py").is_file():
        print(f"error: no repchain sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if not (args.seconds > 0 and math.isfinite(args.seconds)):
        print("error: --seconds must be a positive number", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    meta, result, trace = run(args)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"meta": meta, "result": result}
    if trace is not None:
        record["rollup"] = {k: trace[k] for k in ("self_s", "total_s", "calls", "counts")}
        with open(OUT_DIR / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for span in trace["records"]:
                fh.write(json.dumps(span) + "\n")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for line in meta["problems"] + meta["exceptions"]:
        print(line, file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
