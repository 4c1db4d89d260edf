"""Tests of the benchmark harness itself, at tiny workload sizes.

Run from the checkout root:  python3 -m pytest -q perfbench/tests
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402

TINY_THETA = ("theta", "--g-max", "2")
TINY_SAMPLE = ("sample", "--n", "2", "--k", "3", "--trials", "100",
               "--seed", "{seed}")


@pytest.fixture
def work(request):
    path = run.WORK / f"test-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def quiet(*args, **kwargs):
    pass


def measure(workload, work, trace):
    return run.measure(workload, run.DEFAULT_SEED, 0, trace, work, log=quiet)


def test_every_end_to_end_metric_is_emitted(work):
    workload = run.Workload("tiny-theta", TINY_THETA, (run.theta_rows_pinned,))
    result = measure(workload, work, trace=False)
    assert result["attempted"] == run.MIN_INVOCATIONS
    assert result["failed"] == 0
    spec = run.load_spec()["end_to_end"]
    chosen = run.select(result["metrics"], spec)
    assert list(chosen) == [m["name"] for m in spec]
    for entry, metric in zip(chosen.values(), spec):
        assert entry["unit"] == metric["unit"]
        assert entry["value"] > 0


def test_wrong_digest_counts_as_failure(work):
    workload = run.Workload("tiny-theta", TINY_THETA,
                            (run.digest_is("0" * 64),))
    result = measure(workload, work, trace=False)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]


def test_every_per_layer_metric_in_traced_output(work):
    spec = run.load_spec()["per_layer"]
    theta = measure(run.Workload("tiny-theta", TINY_THETA,
                                 (run.theta_rows_pinned,)), work, trace=True)
    sample = measure(run.Workload("tiny-sample", TINY_SAMPLE,
                                  (run.sample_consistent,)), work, trace=True)
    assert theta["failed"] == sample["failed"] == 0
    for result in (theta, sample):
        assert list(run.select(result["metrics"], spec)) == \
            [m["name"] for m in spec]
    layers = theta["metrics"]
    assert layers["ansatz.g_apply_calls"] == 3
    assert layers["ansatz.phi_calls"] == 2
    assert layers["ansatz.terms.g2"] == 8
    assert layers["ansatz.g_apply_s.g2"] > 0
    assert layers["algebra.fraction_new_calls"] > 0
    layers = sample["metrics"]
    for stage in ("split", "poisson", "shuffle", "rsk", "moment_lookup"):
        assert layers[f"sampler.{stage}_calls"] == 100
        assert layers[f"sampler.{stage}_s"] > 0


def test_no_result_without_sources(work):
    """Beside BENCHMARK.json alone, the benchmark fails without a result."""
    bare = work / "bare"
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "theta-deep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([1.0] * 19) is None
    pct, value = run.tail_percentile([float(i) for i in range(1, 101)])
    assert pct == 90 and value == 90.0

