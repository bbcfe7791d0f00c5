"""The repository benchmark: SPE campaign workloads, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload minic-triage --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

A run first makes one untimed *reference* repetition of the seed's inputs,
then starts timed repetitions, each in a fresh interpreter, until
``--seconds`` have passed.  It reports throughput and phase times from the
fastest tenth of the repetitions, set-up time and memory as medians.
``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics instead, with the tracing overhead.  Every repetition's
outputs are checked against the reference; the last line of standard output
is the JSON result, the line before it the environment record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from spans import EXACT_COUNTS, Tracer, layer_metrics
from workloads import QUERY_ROUNDS, SAMPLED, WORKLOADS, seed_selftest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Campaign state of running repetitions; inside the checkout, git-ignored.
SCRATCH = ROOT / ".perfbench"

#: Wall-clock budget of one whole run, reference repetition included.
RUN_LIMIT_S = 170.0
#: Traced repetitions per ``--trace 1`` run (their exact counts must agree).
MIN_TRACED = 2
#: Layers that only the parent of a process pool sees.
PARENT_LAYERS = ("executor.", "supervisor.")
#: Per-layer metrics ``run.py`` adds to those of the traced repetitions.
RUN_LEVEL = (
    "trace.untraced_variants_per_s",
    "trace.traced_variants_per_s",
    "trace.overhead_share",
    "failed_share",
)


def load_declared() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def calibration_s() -> float:
    """Time of a fixed pure-Python loop: context for machine drift only."""
    started = time.perf_counter()
    total = 0
    for index in range(3_000_000):
        total += index * index % 7
    return time.perf_counter() - started


def environment() -> dict[str, Any]:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = probe.stdout.strip() or None
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "calibration_s": calibration_s(),
    }


class Runner:
    """Starts repetitions in fresh interpreters within the run's budget."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.errors: list[str] = []

    def repetition(self, role: str, trace: bool) -> dict[str, Any] | None:
        spec = {
            "workload": self.workload,
            "seed": self.seed,
            "role": role,
            "trace": trace,
            "scratch": str(SCRATCH),
        }
        env = dict(os.environ, PYTHONPATH=str(SRC))
        spawned = time.time()
        child = subprocess.Popen(
            [sys.executable, str(HERE / "rep.py"), json.dumps(spec)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = child.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            # The whole session: the repetition and any pool workers it left.
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            self.errors.append(f"{role} repetition exceeded the run's time limit")
            return None
        if child.returncode != 0:
            self.errors.append(f"{role} repetition failed:\n{err[-3000:]}")
            return None
        rep = json.loads(out.strip().splitlines()[-1])
        rep["setup_s"] = rep["call_time"] - spawned
        rep["variants_per_s"] = rep["variants"] / rep["campaign_s"]
        return rep

    def out_of_time(self) -> bool:
        return time.monotonic() >= self.deadline


def mismatches(rep: dict[str, Any], reference: dict[str, Any]) -> list[str]:
    """How one repetition's outputs differ from the reference's."""
    found = [name for name, ok in rep["checks"].items() if not ok]
    for key in ("inputs_sha256", "variants", "observations", "bug_ids"):
        if rep[key] != reference[key]:
            found.append(f"{key} differs from the reference run")
    return found


def median_of(reps: list[dict[str, Any]], key: str) -> float:
    return statistics.median(rep[key] for rep in reps)


def deciles(values: list[float]) -> tuple[float, float]:
    """Lowest and highest decile, interpolated; one value is both."""
    if len(values) == 1:
        return values[0], values[0]
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return cuts[0], cuts[-1]


def percentile(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * fraction))]


def fast_decile(reps: list[dict[str, Any]], value) -> float:
    """The lowest decile over repetitions of ``value(rep)``, a time."""
    return deciles([value(rep) for rep in reps])[0]


def best_throughput(reps: list[dict[str, Any]]) -> float:
    """The highest decile of the repetitions' variants per second."""
    return deciles([rep["variants_per_s"] for rep in reps])[1]


def end_to_end(reps: list[dict[str, Any]]) -> dict[str, float]:
    """Timings from the fastest tenth of the run's repetitions.

    Other tenants of a shared host slow the benchmark down by a share that
    changes from second to second and can stay high for minutes; nothing
    makes the program faster than it is.  Each repetition reduces its own
    samples: the fastest of its triage, resume and compaction timings, the
    lowest p50 over its store rounds (400 query rounds each), and the p99
    of all its 2000 query rounds, so that p99 has 20 beyond it.  The run
    then reports the lowest decile of these over its repetitions, the
    highest one for throughput: with 7 to 12 repetitions, a value close to
    the second fastest.  A median or a quartile follows the share of slow
    moments in the run; the fastest, when nearly all of a run is slow,
    follows one lucky repetition.  Set-up time and memory are medians.
    """
    def phase(name):
        return fast_decile(reps, lambda rep: min(rep["samples"][name]))

    def p50(rep):
        latencies = rep["samples"]["query_ms"]
        rounds = range(0, len(latencies), QUERY_ROUNDS)
        return min(percentile(latencies[i : i + QUERY_ROUNDS], 0.50) for i in rounds)

    def p99(rep):
        return percentile(rep["samples"]["query_ms"], 0.99)

    return {
        "variants_per_s": best_throughput(reps),
        "setup_s": median_of(reps, "setup_s"),
        "peak_rss_mb": median_of(reps, "peak_rss_mb"),
        "triage_s": phase("triage_s"),
        "resume_s": phase("resume_s"),
        "compact_s": phase("compact_s"),
        "query_p50_ms": fast_decile(reps, p50),
        "query_p99_ms": fast_decile(reps, p99),
    }


def per_layer(
    untraced: list[dict], traced: list[dict], serial: list[dict]
) -> tuple[dict[str, float], list[str]]:
    """Median per-layer metrics plus any disagreement in the exact counts."""
    problems = []
    layer_reps = serial or traced
    for name in EXACT_COUNTS:
        seen = {rep["layers"][name] for rep in layer_reps}
        if len(seen) > 1:
            problems.append(f"{name} differs between traced repetitions: {sorted(seen)}")
    metrics = {}
    for name in layer_reps[0]["layers"]:
        source = traced if name.startswith(PARENT_LAYERS) else layer_reps
        metrics[name] = statistics.median(rep["layers"][name] for rep in source)
    plain = best_throughput(untraced)
    with_spans = best_throughput(traced)
    metrics["trace.untraced_variants_per_s"] = plain
    metrics["trace.traced_variants_per_s"] = with_spans
    metrics["trace.overhead_share"] = plain / with_spans - 1.0
    return metrics, problems


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    declared = load_declared()
    group = declared["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in group}
    SCRATCH.mkdir(exist_ok=True)
    env = environment()
    runner = Runner(workload, seed)

    reference = runner.repetition("reference", False)
    untraced: list[dict] = []
    traced: list[dict] = []
    serial: list[dict] = []
    started = time.monotonic()
    while reference is not None and not runner.errors and not runner.out_of_time():
        if time.monotonic() - started >= seconds and untraced and (
            not trace or len(traced) >= MIN_TRACED
        ):
            break
        if trace and len(traced) < len(untraced):
            rep = runner.repetition("timed", True)
            if rep is not None:
                traced.append(rep)
            if workload == "while-pooled":
                rep = runner.repetition("serial", True)
                if rep is not None:
                    serial.append(rep)
        else:
            rep = runner.repetition("timed", False)
            if rep is not None:
                untraced.append(rep)

    problems = list(runner.errors)
    if reference is None or not untraced or (trace and len(traced) < MIN_TRACED):
        print(json.dumps({"environment": env, "errors": problems}))
        print("no complete measurement: " + "; ".join(problems), file=sys.stderr)
        return 1
    problems += [f"reference: {name}" for name, ok in reference["checks"].items() if not ok]
    measured = untraced + traced + serial
    for rep in measured:
        problems += mismatches(rep, reference)
    # A repetition that raised or timed out lost all the units it attempted.
    lost = reference["units"] * len(runner.errors)
    attempted = lost + sum(rep["units"] for rep in measured)
    failed = lost + sum(rep["quarantined"] for rep in measured)
    if trace:
        metrics, disagreements = per_layer(untraced, traced, serial)
        metrics["failed_share"] = failed / attempted
        problems += disagreements
    else:
        metrics = end_to_end(untraced)
    if set(metrics) != set(units):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    record = {
        "environment": env,
        "workload": workload,
        "seed": seed,
        "repetitions": {"untraced": len(untraced), "traced": len(traced), "serial": len(serial)},
        "per_repetition": [
            {
                **{key: rep[key] for key in ("setup_s", "variants_per_s", "peak_rss_mb")},
                **{name: statistics.median(rep["samples"][name]) for name in SAMPLED},
                "samples": {name: len(rep["samples"][name]) for name in SAMPLED},
            }
            for rep in untraced
        ],
        "problems": problems,
    }
    print(json.dumps(record))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
            if name in metrics
        },
    }
    print(json.dumps(result))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return 0 if not problems else 1


def self_test() -> int:
    """Seed plumbing plus agreement between the code and BENCHMARK.json."""
    checks = seed_selftest(2017)
    declared = load_declared()
    checks["workloads_declared"] = [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    blank = {"variants_per_s": 1.0, "setup_s": 1.0, "peak_rss_mb": 1.0}
    blank["samples"] = {name: [1.0] for name in SAMPLED}
    checks["end_to_end_declared"] = [m["name"] for m in declared["end_to_end"]] == list(
        end_to_end([blank])
    )
    layers = [*layer_metrics(Tracer(), {}, 0), *RUN_LEVEL]
    checks["per_layer_declared"] = [m["name"] for m in declared["per_layer"]] == layers
    for name, ok in checks.items():
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(checks.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
