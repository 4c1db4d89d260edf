#!/usr/bin/env python3
"""Benchmark of the ppmoments command line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload theta-deep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25

Each invocation is a fresh interpreter running ppmoments.cli.main on the
checkout's src/, so it pays cold caches the way a CLI user does.  The load
is a closed loop with one client: one child process at a time.  A run keeps
starting invocations while they fit in --seconds (at least MIN_INVOCATIONS)
and checks every output.  With --trace 0 it reports the end-to-end metrics
listed in BENCHMARK.json; with --trace 1 it alternates plain and traced
invocations (perfbench/trace_child.py) and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

MIN_INVOCATIONS = 3
SETUP_PROBES = 5
INVOCATION_TIMEOUT_S = 150
DEFAULT_SEED = 8675309  # the CLI's documented default sampler seed

# The child records its own peak RSS (VmHWM): wait4's ru_maxrss would also
# carry the benchmark process's high-water mark, which exec inherits.
RUN_CLI = """\
import re, sys
src, peak_file = sys.argv.pop(1), sys.argv.pop(1)
sys.path.insert(0, src)
from ppmoments.cli import main
code = main()
with open("/proc/self/status") as fh:
    kb = re.search(r"VmHWM:\\s*(\\d+)", fh.read()).group(1)
with open(peak_file, "w") as fh:
    fh.write(kb)
sys.exit(code)
"""
IMPORT_CLI = "import sys; sys.path.insert(0, sys.argv[1]); import ppmoments.cli"

# Reports at the seed commit; the CLI promises byte-identical reports.
THETA_DEEP_SHA256 = \
    "d19dc06f10759d30b0951cd7caf94453835330212a3c0ab18dac4def576472c5"
MOMENTS_DEEP_SHA256 = \
    "09ad0295e7ae7be9940f5c6e687f1ea5059920974f062f0123c67d857150c5b4"
SAMPLE_MC_SHA256 = \
    "a42fe2de6eb36562658990c4f33cc8e9d53b64998336456b4dc2ec7b1a9b2d8f"

# The benchmark's own copy of the paper's coefficient table, g = 1..4.
PINNED_THETA = {
    1: {2: 1},
    2: {3: 1, 4: 14, 5: 15},
    3: {4: 1, 5: 64, 6: 565, 7: 1122, 8: 630},
    4: {5: 1, 6: 222, 7: 5820, 8: 42500, 9: 110670, 10: 118740, 11: 45045},
}

# Exact 6th moment at n = 2: 5 + 8/n + 1/n^2.
MOMENT_K3_N2 = Fraction(37, 4)

Check = Callable[[bytes, int], Optional[str]]


def digest_is(expected: str, only_seed: Optional[int] = None) -> Check:
    """The report's sha256 is `expected` (at workload seed `only_seed`)."""
    def check(out: bytes, seed: int) -> Optional[str]:
        if only_seed is not None and seed != only_seed:
            return None
        got = hashlib.sha256(out).hexdigest()
        return None if got == expected else f"sha256 {got} != {expected}"
    return check


def theta_rows_pinned(out: bytes, seed: int) -> Optional[str]:
    for row in json.loads(out)["results"]:
        pinned = PINNED_THETA.get(row["g"])
        got = {int(k): Fraction(v) for k, v in row["theta"].items()}
        if pinned is not None and got != pinned:
            return f"theta row g={row['g']} differs from the pinned table"
    return None


def verify_passed(out: bytes, seed: int) -> Optional[str]:
    report = json.loads(out)
    failing = [c["check"] for c in report["results"] if not c["pass"]]
    if report["passed"] is not True or failing:
        return f"verify failed: {failing[:5]}"
    return None


def sample_consistent(out: bytes, seed: int) -> Optional[str]:
    row = json.loads(out)["results"][0]
    if Fraction(row["predicted"]) != MOMENT_K3_N2:
        return f"predicted {row['predicted']} != {MOMENT_K3_N2}"
    if not abs(row["z"]) <= 4:
        return f"|z| = {abs(row['z'])} > 4"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # CLI arguments; "{seed}" takes the workload seed
    checks: tuple[Check, ...]
    trials: int = 0

    def cli_args(self, seed: int) -> list[str]:
        return [a.replace("{seed}", str(seed)) for a in self.argv]


# Only sample-mc has random input; the other three ignore the seed.
WORKLOADS = {w.name: w for w in (
    Workload("theta-deep", ("theta", "--g-max", "7"),
             (digest_is(THETA_DEEP_SHA256), theta_rows_pinned)),
    Workload("verify-gate", ("verify", "--g-max", "5", "--k-max", "10"),
             (verify_passed,)),
    Workload("moments-deep", ("moments", "--k-max", "40"),
             (digest_is(MOMENTS_DEEP_SHA256),)),
    Workload("sample-mc", ("sample", "--n", "2", "--k", "3", "--trials",
                           "200000", "--seed", "{seed}"),
             (sample_consistent,
              digest_is(SAMPLE_MC_SHA256, only_seed=DEFAULT_SEED)),
             trials=200000),
)}


class InvocationTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise InvocationTimeout


def spawn(cmd: list[str], stderr_path: Path) -> tuple[float, int]:
    """Run cmd to completion; return (wall seconds, exit code).

    A blocking waitpid under an alarm, not Popen.wait(timeout), which
    polls and would add its sleep to the measured time.
    """
    previous = signal.signal(signal.SIGALRM, _alarm)
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            signal.alarm(INVOCATION_TIMEOUT_S)
            try:
                _, status = os.waitpid(proc.pid, 0)
            finally:
                signal.alarm(0)
        except InvocationTimeout:
            proc.kill()
            _, status = os.waitpid(proc.pid, 0)
        finally:
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode


@dataclass
class Invocation:
    wall_s: float
    rss_mb: float
    failure: Optional[str]
    spans: Optional[Path] = None


class Runner:
    """One closed-loop client running a workload against one checkout."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.first_output: Optional[bytes] = None
        self.count = 0

    def invoke(self, traced: bool) -> Invocation:
        self.count += 1
        out = self.work / "report.out"
        err = self.work / "stderr.txt"
        out.unlink(missing_ok=True)
        args = self.workload.cli_args(self.seed) + ["--out", str(out)]
        peak = self.work / "peak_kb.txt"
        spans = None
        if traced:
            spans = self.work / f"spans{self.count}.bin"
            cmd = [sys.executable, "-I", str(HERE / "trace_child.py"),
                   str(SRC), str(spans), *args]
        else:
            peak.unlink(missing_ok=True)
            cmd = [sys.executable, "-I", "-c", RUN_CLI, str(SRC), str(peak),
                   *args]
        wall, code = spawn(cmd, err)
        failure = self._failure(code, out, err)
        rss = 0.0 if traced or failure else int(peak.read_text()) / 1024
        return Invocation(wall, rss, failure, spans)

    def _failure(self, code: int, out: Path, err: Path) -> Optional[str]:
        if code != 0:
            tail = err.read_bytes()[-400:].decode(errors="replace")
            return f"exit code {code}: {tail}"
        data = out.read_bytes()
        if self.first_output is None:
            self.first_output = data
        elif data != self.first_output:
            return "report differs from the run's first report"
        for check in self.workload.checks:
            try:
                problem = check(data, self.seed)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problem = f"unreadable report: {exc!r}"
            if problem:
                return problem
        return None


def setup_probe(work: Path) -> float:
    """Interpreter start plus `import ppmoments.cli`, in a fresh process."""
    wall, code = spawn([sys.executable, "-I", "-c", IMPORT_CLI, str(SRC)],
                          work / "stderr.txt")
    if code != 0:
        raise RuntimeError("importing ppmoments.cli failed")
    return wall


def tail_percentile(samples: list[float]) -> Optional[tuple[int, float]]:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(samples)
    pct = math.floor(100 * (1 - 10 / n)) if n else 0
    if pct <= 50:
        return None
    ordered = sorted(samples)
    return pct, ordered[min(n - 1, math.ceil(pct / 100 * n) - 1)]


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            work: Path = WORK, log=print) -> dict:
    """One benchmark run; returns every metric the run can compute."""
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(workload, seed, work)
    setup_probe(work)  # writes bytecode caches; not timed
    setups: list[float] = []
    plain: list[Invocation] = []
    traced: list[Invocation] = []
    min_rounds = 1 if trace else MIN_INVOCATIONS
    start = time.perf_counter()
    while True:
        setups.append(setup_probe(work))
        plain.append(runner.invoke(False))
        if trace:
            traced.append(runner.invoke(True))
        rounds = len(plain)
        elapsed = time.perf_counter() - start
        # Start no round that would end past the deadline at the mean pace.
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            break
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(work))

    runs = plain + traced
    failures = [r.failure for r in runs if r.failure]
    for problem in failures[:3]:
        log(f"{workload.name}: FAILED {problem}", file=sys.stderr)
    walls = [r.wall_s for r in plain]
    metrics = {"wall_s": statistics.median(walls),
               "setup_s": statistics.median(setups),
               "peak_rss_mb": statistics.median(
                   [r.rss_mb for r in plain if not r.failure] or [0.0])}
    if trace:
        good = [r for r in traced if not r.failure]
        layers = [layer_metrics(r.spans) for r in good]
        if layers:
            # The low median is a measured value, so counts stay whole.
            metrics.update({k: statistics.median_low(m[k] for m in layers)
                            for k in layers[0]})
            metrics["trace.overhead_s"] = (
                statistics.median(r.wall_s for r in good) - metrics["wall_s"])
    summary = (f"{workload.name}: wall_s median {metrics['wall_s']:.4f} s "
               f"over {len(walls)} invocations")
    tail = tail_percentile(walls)
    if tail:
        summary += f", p{tail[0]} {tail[1]:.4f} s"
    summary += (f"; setup_s {metrics['setup_s']:.4f} s over {len(setups)}; "
                f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB")
    if workload.trials:
        summary += (f"; trials_per_s "
                    f"{workload.trials / metrics['wall_s']:.0f} 1/s")
    summary += f"; fail_ratio {len(failures)}/{len(runs)}"
    log(summary)
    return {"attempted": len(runs), "failed": len(failures),
            "metrics": metrics, "walls": walls, "setups": setups}


LABELLED = re.compile(r"(?P<family>.+)\.[gk]\d+")


def layer_metrics(path: Path) -> dict[str, float]:
    """Self times and counts of one traced invocation, by metric name."""
    with open(path, "rb") as fh:
        meta = json.loads(fh.readline())
        n = meta["spans"]
        cols = [array(code) for code in "Hiddi"]
        for col in cols:
            col.fromfile(fh, n)
    name_ids, labels, starts, ends, parents = cols
    covered = [0.0] * n
    for i in range(n):
        if parents[i] >= 0:
            covered[parents[i]] += ends[i] - starts[i]
    out: dict[str, float] = {}
    for name in meta["names"]:
        out[f"{name}_s"] = 0.0
        out[f"{name}_calls"] = 0
    for i in range(n):
        name = meta["names"][name_ids[i]]
        own = ends[i] - starts[i] - covered[i]
        out[f"{name}_s"] += own
        out[f"{name}_calls"] += 1
        prefix = meta["prefixes"][name]
        if prefix:
            key = f"{name}_s.{prefix}{labels[i]}"
            out[key] = out.get(key, 0.0) + own
    for g, size in meta["terms"].items():
        out[f"ansatz.terms.g{g}"] = size
    out["algebra.fraction_new_calls"] = meta["fraction_new_calls"]
    out["cli.render_s"] = out["cli.main_s"]
    return out


def select(metrics: dict, spec: list[dict], strict: bool = True) -> dict:
    """The metrics BENCHMARK.json lists, in its order, with its units.

    A labelled metric (say ansatz.g_apply_s.g6) at an order or size the
    workload never reached reads 0.  Any other missing name reads 0 only
    when the run already failed (strict=False); otherwise it is a harness
    error.
    """
    chosen = {}
    for entry in spec:
        name = entry["name"]
        value = metrics.get(name)
        if value is None:
            m = LABELLED.fullmatch(name)
            reached = m and (m["family"] in metrics
                             or m["family"] == "ansatz.terms")
            if strict and not reached:
                raise KeyError(f"no value for metric {name}")
            value = 0
        chosen[name] = {"value": value, "unit": entry["unit"]}
    return chosen


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ppmoments" / "cli.py").is_file():
        print(f"perfbench: no ppmoments sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            result = measure(WORKLOADS[name], args.seed, seconds,
                             bool(args.trace))
            attempted += result["attempted"]
            failed += result["failed"]
            chosen = select(result["metrics"], listed,
                            strict=result["failed"] == 0)
            for metric, entry in chosen.items():
                key = metric if len(names) == 1 else f"{name}.{metric}"
                metrics[key] = entry
                print(f"  {key} {entry['value']} {entry['unit']}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
