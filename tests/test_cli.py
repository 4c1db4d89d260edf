import functools
import hashlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

import ppmoments.ansatz as ansatz
import ppmoments.cli as cli
import ppmoments.oracles as oracles
import ppmoments.sampler as sampler
from ppmoments.cli import main, run_moments, run_sample, run_theta, run_verify

from helpers import (argparse_reference_parser, mc_moments_by_walks,
                     peak_sizes_reference, z_unsupported_by_walks)


def run_cli(capsys, *args):
    code = main(list(args))
    return code, capsys.readouterr().out


def test_theta_report(capsys):
    code, out = run_cli(capsys, "theta", "--g-max", "2")
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "theta"
    rows = report["results"]
    assert rows[0]["theta"] == {"2": "1"}
    assert rows[1]["theta"] == {"3": "1", "4": "14", "5": "15"}
    assert rows[0]["phi"]["num"] == ["0", "-1", "2", "-1"]
    assert rows[0]["phi"]["den"] == ["-8", "12", "-6", "1"]


def test_theta_small_tsv_report_digest(capsys):
    # sha256 of `theta --g-max 4 --format tsv`, the reference table rows
    code, out = run_cli(capsys, "theta", "--g-max", "4", "--format", "tsv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "30272da5d4029d7d8658cf97f88fccc43c211014585b1ecb04672652b72d7000"


def test_theta_deep_report_digest(capsys):
    # sha256 of `theta --g-max 7` as computed by the all-Fraction algebra
    code, out = run_cli(capsys, "theta", "--g-max", "7")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "d19dc06f10759d30b0951cd7caf94453835330212a3c0ab18dac4def576472c5"


def test_theta_deeper_report_digest(capsys):
    # sha256 of `theta --g-max 11` as computed with one term per (a, b)
    code, out = run_cli(capsys, "theta", "--g-max", "11")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "fe92af28b794bc972f186c7c6f51fb62d4a1f5d5f549819b41b4119bccef8ffb"


# the dump is the unique reduced form, one term per power of (1-u)
@pytest.mark.parametrize("g_max, digest", [
    ("4", "590b05ca06214cde5ad972d37161ec779f7681fdadf752a557af8e1e4ca713f9"),
    ("7", "8b33c03d075e46c10f6088438324bebf7b1a2c6c5df99a2f59cef787a738d44b"),
    ("20", "bab259bb6f577948c01bcea38587366c4ff2a76969be42e07eb719a0ff86a857"),
], ids=["g4", "g7", "g20"])
def test_phi_dump_report_digest(capsys, g_max, digest):
    # sha256 of `phi --g-max <g_max> --dump-ansatz`
    code, out = run_cli(capsys, "phi", "--g-max", g_max, "--dump-ansatz")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# RationalFnC renders over the monic (c-2)^a, flipping num's sign for odd a
@pytest.mark.parametrize("args, digest", [
    (("phi", "--g-max", "5"),
     "d8075590c7309d9916fe15418391f6aea6143394d312edbc0067fedea9dcaaf5"),
    (("phi", "--g-max", "6", "--format", "tsv"),
     "d104ac044edfff5a7e44d7f4234d9e56121fb9c90f51261d5b752e3c4ce47673"),
], ids=["json-g5", "tsv-g6"])
def test_phi_report_digest(capsys, args, digest):
    code, out = run_cli(capsys, *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the TSV layouts no digest above pins: verify's pass/FAIL column,
# moments' one line per count and sample's one line of values
@pytest.mark.parametrize("args, digest", [
    (("verify", "--g-max", "5", "--k-max", "10"),
     "b7d4f35553e9de90e64464ad5182f7fd19d0f80b7eaf7251cb3b1e9665d24a5d"),
    (("moments", "--k-max", "40"),
     "ffd87f7af27895e7e6d2165f3ec5f603b7a74d38a0c099ab1c3505031ef195c9"),
    (("sample", "--n", "2", "--k", "3", "--trials", "200000"),
     "c81eebe87c7d76ec3ec4883d0cfe6c7ae778487831286deb74a981ef372bb536"),
], ids=["verify", "moments", "sample"])
def test_tsv_report_digest(capsys, args, digest):
    code, out = run_cli(capsys, *args, "--format", "tsv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_main_dispatches_through_the_module_binding(capsys, monkeypatch):
    # main looks run_<command> up when it runs, so a rebound runner (a
    # test double, or the benchmark's traced wrapper) is the one called
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return run_moments(*args, **kwargs)

    monkeypatch.setattr(cli, "run_moments", counting)
    code, out = run_cli(capsys, "moments", "--k-max", "1")
    assert code == 0
    assert calls == [1]
    assert json.loads(out) == run_moments(1)


def test_verify_gate_report_digest(capsys):
    # sha256 of `verify --g-max 5 --k-max 10`, with one `theta rows route`
    # check per g after each round trip; the moment checks are labelled
    # `word vs size moments k=K`
    code, out = run_cli(capsys, "verify", "--g-max", "5", "--k-max", "10")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "d38b45457e3199ef6b6c0c9da28324a29102b7aaa918cc499fdfc298c5a0f866"


def test_moments_deep_report_digest(capsys):
    # sha256 of `moments --k-max 40`: every row read off one
    # falling-factorial walk of 80 steps
    code, out = run_cli(capsys, "moments", "--k-max", "40")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "09ad0295e7ae7be9940f5c6e687f1ea5059920974f062f0123c67d857150c5b4"


def test_moments_at_depth_report_digest(capsys):
    # sha256 of `moments --k-max 150`: 150 rows of one 300-step
    # falling-factorial walk, with counts of up to about 1000 bits
    code, out = run_cli(capsys, "moments", "--k-max", "150")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "bb62ce11fc71f2672310010c06d3b751b0ea363db60c10746043b5ddbef7b441"


def test_reports_compute_the_moment_rows_once(monkeypatch):
    # one falling-factorial walk per report, to k = max(k_max, 3 g_max + 2)
    # where theta or the rows route reads them; no report walks a size
    calls = []
    original = oracles.moment_polynomials

    def counting(k_max):
        calls.append(k_max)
        return original(k_max)

    def walk(size, k_max):
        raise AssertionError(f"walked size {size} to horizon {2 * k_max}")

    monkeypatch.setattr(oracles, "moment_polynomials", counting)
    monkeypatch.setattr(oracles, "_size_moments", walk)
    assert len(run_moments(40)["results"]) == 40
    assert calls == [40]
    calls.clear()
    assert run_verify(2, 8)["passed"] is True
    assert calls == [8]
    calls.clear()
    run_theta(4)
    assert calls == [14]
    calls.clear()
    cli.run_phi(4, dump_ansatz=True)
    assert calls == [14]
    calls.clear()
    assert run_verify(5, 10)["passed"] is True
    assert calls == [17]


def test_reports_walk_the_word_route_once(monkeypatch):
    calls = []
    original = oracles._word_rows

    def counting(k_max):
        calls.append(k_max)
        return original(k_max)

    monkeypatch.setattr(oracles, "_word_rows", counting)
    assert run_verify(2, 8)["passed"] is True
    assert calls == [8]


def test_reports_walk_the_operator_chain_once(monkeypatch):
    calls = []
    original = ansatz.g_apply

    def counting(k, s):
        calls.append(k)
        return original(k, s)

    monkeypatch.setattr(ansatz, "g_apply", counting)
    # theta and phi solve their tables from the moment rows, off the
    # chain; phi walks it only for the term sums it dumps
    run_theta(4)
    cli.run_phi(4)
    assert calls == []
    assert run_verify(3, 4)["passed"] is True
    assert calls == [0, 1, 2]
    calls.clear()
    cli.run_phi(2, dump_ansatz=True)
    assert calls == [0, 1]


def test_theta_reference_table_full():
    report = run_theta(4)
    for row in report["results"]:
        want = cli.REFERENCE_THETA[row["g"]]
        assert row["theta"] == {str(k): str(v) for k, v in sorted(want.items())}


def test_phi_command_with_ansatz_dump(capsys):
    code, out = run_cli(capsys, "phi", "--g-max", "1", "--dump-ansatz")
    assert code == 0
    report = json.loads(out)
    g0, g1 = report["results"]
    assert g0["phi"] == {"num": ["0", "1"], "den": ["1"]}
    assert "ansatz" not in g0
    assert all(set(term) == {"num", "a", "b"} for term in g1["ansatz"])


def test_phi_dump_has_no_tsv_form(capsys):
    # the TSV report has no column for the term sums, so it would drop them
    with pytest.raises(SystemExit) as exc:
        main(["phi", "--dump-ansatz", "--format", "tsv"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == ("ppmoments: error: phi --dump-ansatz "
                                    "has no TSV form; use --format json")


def test_moments_report(capsys):
    code, out = run_cli(capsys, "moments", "--k-max", "3")
    assert code == 0
    rows = json.loads(out)["results"]
    assert rows[0] == {"k": 1, "counts": {"0": 1}}
    assert rows[1] == {"k": 2, "counts": {"0": 2, "1": 1}}
    assert rows[2] == {"k": 3, "counts": {"0": 5, "1": 8, "2": 1}}
    assert run_moments(2)["results"][1]["counts"] == {"0": 2, "1": 1}


def test_moments_tsv(capsys):
    code, out = run_cli(capsys, "moments", "--k-max", "2", "--format", "tsv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k\tg\tcount"
    assert lines[1:] == ["1\t0\t1", "2\t0\t2", "2\t1\t1"]


def test_verify_passes(capsys):
    code, out = run_cli(capsys, "verify", "--g-max", "1", "--k-max", "2")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert all(c["pass"] for c in report["results"])


def test_verify_exit_one_on_mismatch(capsys, monkeypatch):
    monkeypatch.setitem(cli.REFERENCE_THETA, 1, {2: 999})
    code, out = run_cli(capsys, "verify", "--g-max", "1", "--k-max", "1")
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    bad = [c for c in report["results"] if not c["pass"]]
    assert any("theta table" in c["check"] for c in bad)
    # a grid check names the cells that disagree
    real_g_series = ansatz.g_series

    def off_by_one(*orders):
        grid = real_g_series(*orders)
        grid[2][1][1] += 1
        return grid

    monkeypatch.undo()
    monkeypatch.setattr(ansatz, "g_series", off_by_one)
    bad = [c for c in run_verify(1, 1)["results"] if not c["pass"]]
    assert bad == [{"check": "two-height series vs path counts (i<=2)",
                    "expected": "all coefficients match",
                    "actual": "mismatch at [(2, 1, 1)]", "pass": False}]


def test_verify_reports_a_rows_route_residual(monkeypatch):
    # a moment row the solver's residual rejects is a failed check, not a
    # traceback
    real_rows = oracles.moment_polynomials

    def off_at_k5(k_max):
        rows = real_rows(k_max)
        rows[4][1] += 1
        return rows

    monkeypatch.setattr(oracles, "moment_polynomials", off_at_k5)
    report = run_verify(1, 2)
    bad = [c for c in report["results"] if not c["pass"]]
    assert report["passed"] is False
    assert bad == [{"check": "theta rows route g=1", "expected": "{2: 1}",
                    "actual": "rows 3..5 leave a nonzero residual at "
                              "order g=1",
                    "pass": False}]


def test_verify_report_is_structured():
    report = run_verify(1, 2)
    assert {"check", "expected", "actual", "pass"} <= set(report["results"][0])


def test_verify_midsize_bounds_pass():
    assert run_verify(2, 6)["passed"] is True


def test_sample_report(capsys):
    code, out = run_cli(capsys, "sample", "--n", "2", "--k", "2",
                        "--trials", "4000", "--seed", "5")
    assert code == 0
    row = json.loads(out)["results"][0]
    assert row["predicted"] == "5/2"
    assert row["trials"] == 4000
    assert abs(row["z"]) < 6
    assert row["stderr"] > 0


# n = 30 is the last mean drawn by inversion in blocks of trials, n = 31
# the first drawn trial by trial by PTRS rejection
@pytest.mark.parametrize("args, digest", [
    (("--n", "2", "--k", "3", "--trials", "200000"),
     "a42fe2de6eb36562658990c4f33cc8e9d53b64998336456b4dc2ec7b1a9b2d8f"),
    (("--n", "30", "--k", "2", "--trials", "5000"),
     "fd427895e990744ab73f49709f886411a38942c973c4a45c24369719ca65559d"),
    (("--n", "31", "--k", "2", "--trials", "5000"),
     "9f66e659f42b9a6df8b82074a4c34311796a479f1fc4f7153c7ea4af01bd0b76"),
], ids=["n2", "n30", "n31"])
def test_sample_report_digest(capsys, args, digest):
    # sha256 of `sample <args>` as computed one poisson_sample per trial
    code, out = run_cli(capsys, "sample", *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sample_predicted_values():
    report = run_sample(2, 3, trials=100, seed=9)
    assert report["results"][0]["predicted"] == "37/4"


def test_sample_zero_stderr_does_not_hide_a_mismatch(capsys):
    code, out = run_cli(capsys, "sample", "--n", "2", "--k", "3",
                        "--trials", "1")
    assert code == 0
    row = json.loads(out)["results"][0]
    assert row["stderr"] == 0 and row["predicted"] == "37/4"
    assert row["estimate"] != 37 / 4
    assert row["z"] is None


def test_sample_target_pair_matches_the_fraction_route():
    # the target is carried as a reduced int pair; its string, its
    # rounding and its equality test must be those of one exact Fraction.
    # At 50 trials these targets sit for half or more at sizes the trials
    # cannot see (from 0.52 at (6, 7) to 0.97 at (1, 8)), so their z is
    # null
    unsupported = {(1, 4), (1, 5), (1, 6), (1, 7), (1, 8), (2, 5), (2, 6),
                   (2, 7), (2, 8), (3, 7), (3, 8), (4, 6), (4, 7), (4, 8),
                   (5, 6), (5, 7), (5, 8), (6, 7), (6, 8)}
    for n, k in unsupported:
        assert _unseen_share(n, k, 50) >= Decimal("0.5")
    for n in range(1, 7):
        for k in range(1, 9):
            row = run_sample(n, k, trials=50)["results"][0]
            target = Fraction(sum(c * n ** (k - g) for g, c in
                                  oracles.moment_polynomial(k).items()),
                              n ** k)
            assert row["predicted"] == str(target)
            if (n, k) in unsupported:
                z = None
            elif row["stderr"] > 0:
                z = (row["estimate"] - float(target)) / row["stderr"]
            else:
                z = 0.0 if row["estimate"] == target else None
            assert row["z"] == z


@pytest.mark.parametrize("n, k, estimate, predicted, z", [
    (2, 3, 9.25, "37/4", 0.0),
    (2, 3, 9.25 + 2 ** -49, "37/4", None),
    (3, 2, 7 / 3, "7/3", None),
], ids=["equal", "next-double", "rounded"])
def test_sample_zero_stderr_compares_the_estimate_exactly(
        monkeypatch, n, k, estimate, predicted, z):
    # 37/4 = 9.25 is a double, and the next double up is a mismatch that
    # no finite z-score describes; 7/3 is no double, so even the double
    # nearest to it is a mismatch.  At 10 trials (2, 3) is 73% unseen and
    # its z null whatever the estimate, so 100 trials (10% unseen) are
    # asked for
    monkeypatch.setattr(sampler, "_moment_estimate",
                        lambda *args: (estimate, 0.0))
    row = run_sample(n, k, trials=100)["results"][0]
    assert row["predicted"] == predicted
    assert row["z"] == z


_SRC = str(Path(__file__).resolve().parents[1] / "src")
# The start-up contract: what a process loads beyond the interpreter
# costs every command its start-up.  argparse pulls in gettext, which
# loads locale when a parser is built: about 4 ms and 0.6 MB.  fractions
# pulls in decimal and numbers: about 2.7 ms and 0.45 MB.  json, with
# _json, took 1.0-1.1 ms of the 1.55-1.6 ms that importing ppmoments.cli
# took when it wrote the reports (Python 3.11.7, -X importtime).  sample
# splits its trials by a bare os.fork, so no thread or process module
# loads either.  The probe runs under `python -I -S`, with no site module
# whose .pth files could load any of these first.  It imports one
# module and, given arguments, runs its main on them with the report to
# os.devnull; os.sched_getaffinity reads two CPUs and os.fork is
# counted, so 100,000 trials of sample fork one child on any machine.
# It prints the number of children forked and then every loaded module
_PROBE = """
import os
import sys
sys.path.insert(0, sys.argv[1])
forks = []
fork = os.fork
def counted():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid
os.fork = counted
os.sched_getaffinity = lambda pid: {0, 1}
module = __import__(sys.argv[2], fromlist=["_"])
if sys.argv[3:]:
    code = module.main([*sys.argv[3:], "--out", os.devnull])
    assert code == 0, code
print(len(forks))
print(" ".join(sorted(sys.modules)))
"""

# each case: the module imported, the command run, the package modules
# it loads (by the module map in cli's docstring; importing the package
# loads none) and the children it forks
_START_UP = {
    "theta": ("ppmoments.cli", ("theta", "--g-max", "2"),
              "algebra cli oracles", 0),
    "phi": ("ppmoments.cli", ("phi", "--g-max", "2"),
            "algebra cli oracles", 0),
    "phi-dump": ("ppmoments.cli", ("phi", "--g-max", "2", "--dump-ansatz"),
                 "algebra ansatz cli oracles", 0),
    "moments": ("ppmoments.cli", ("moments", "--k-max", "3"),
                "cli oracles", 0),
    "verify": ("ppmoments.cli", ("verify", "--g-max", "2", "--k-max", "3"),
               "algebra ansatz cli oracles", 0),
    "sample": ("ppmoments.cli", ("sample", "--n", "2", "--k", "2",
                                 "--trials", "100000"),
               "cli oracles sampler", 1),
    "sample-ptrs": ("ppmoments.cli", ("sample", "--n", "31", "--k", "2",
                                      "--trials", "50"),
                    "cli oracles sampler", 0),
    "import-cli": ("ppmoments.cli", (), "cli", 0),
    "import-sampler": ("ppmoments.sampler", (), "oracles sampler", 0),
    "import-package": ("ppmoments", (), "", 0),
}


@functools.lru_cache(maxsize=None)
def _start_up(case):
    # the probe runs once per case; each test below checks every case
    module, args, _, _ = _START_UP[case]
    done = subprocess.run([sys.executable, "-I", "-S", "-c", _PROBE, _SRC,
                           module, *args], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    forked, loaded = done.stdout.splitlines()[-2:]
    return int(forked), loaded.split()


def _loaded_from(case, packages):
    return [name for name in _start_up(case)[1]
            if name.split(".")[0] in packages]


@pytest.mark.parametrize("case", _START_UP)
def test_start_up_loads_only_what_it_runs(case):
    _, _, loaded, forks = _START_UP[case]
    assert _start_up(case)[0] == forks
    assert _loaded_from(case, {"threading", "multiprocessing", "concurrent",
                               "subprocess"}) == []
    assert set(_loaded_from(case, {"ppmoments"})) == {
        "ppmoments", *(f"ppmoments.{name}" for name in loaded.split())}


@pytest.mark.parametrize("case", _START_UP)
def test_no_command_loads_rational_arithmetic(case):
    assert _loaded_from(case, {"fractions", "decimal", "numbers", "argparse",
                               "gettext", "locale"}) == []


@pytest.mark.parametrize("case", _START_UP)
def test_no_command_imports_json(case):
    assert _loaded_from(case, {"json", "_json"}) == []


_STREAMED = {
    "theta": (("theta", "--g-max", "3"), lambda: run_theta(3)),
    "phi-dump": (("phi", "--g-max", "2", "--dump-ansatz"),
                 lambda: cli.run_phi(2, dump_ansatz=True)),
    "moments": (("moments", "--k-max", "12"), lambda: run_moments(12)),
    "verify": (("verify", "--g-max", "2", "--k-max", "4"),
               lambda: run_verify(2, 4)),
    "sample": (("sample", "--n", "2", "--k", "2", "--trials", "300"),
               lambda: run_sample(2, 2, 300)),
}


@pytest.mark.parametrize("command", _STREAMED)
def test_streamed_report_is_the_dumped_text(tmp_path, capsys, command):
    # main streams each JSON report through cli's own encoder, to stdout
    # or to the --out file, and writes what json.dumps would have built
    args, build = _STREAMED[command]
    text = json.dumps(build(), indent=2) + "\n"
    code, out = run_cli(capsys, *args)
    assert code == 0 and out == text
    target = tmp_path / "report.json"
    assert main([*args, "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == text.encode()


# every kind of value the encoder handles, nested as deep as a report
# nests
_SYNTHETIC = {
    "command": "synthetic",
    "params": {"empty dict": {}, "empty list": [], "key ~ '!": 0},
    "passed": False,
    "results": [
        {"text": "printable ASCII: ' ! # $ { } [ ] ~",
         "nested": [[1, [2, [3, []]]], [{}, []]],
         "flags": [True, False, None],
         "big": 7 ** 900, "negative": -(10 ** 40),
         "floats": [-0.0, 5e-324, 1e16, 0.1, 2.5, -1e-7, 1.5e308]},
        {},
        [],
        "",
    ],
}


@pytest.mark.parametrize("build", [
    lambda: _SYNTHETIC,
    lambda: {**_SYNTHETIC, "results": []},
    lambda: run_verify(2, 4),
    lambda: cli.run_phi(2, dump_ansatz=True),
], ids=["synthetic", "no-results", "verify", "phi-dump"])
def test_encoder_writes_the_dumped_text(build):
    # json.dumps, with its defaults but indent=2, is the reference
    report = build()
    text = "".join(cli._json_chunks(report))
    assert text == json.dumps(report, indent=2) + "\n"


def test_encoder_refuses_what_no_report_holds():
    # a report string is printable ASCII without '"' or a backslash,
    # which json.dumps writes as it stands; any other string is refused
    printable = "".join(ch for ch in map(chr, range(0x20, 0x7f))
                        if ch not in '"\\')
    assert cli._quoted(printable) == json.dumps(printable)
    assert cli._quoted("") == '""'
    for ch in ('"', "\\", "\n", "\x7f", "\u00e9", "\U0001d11e"):
        with pytest.raises(ValueError):
            cli._quoted(f"a{ch}b")
        with pytest.raises(ValueError):
            "".join(cli._json_chunks({"command": "synthetic",
                                      "results": [{"text": ch}]}))


def _moments_tsv(report):
    return "k\tg\tcount\n" + "".join(
        f"{row['k']}\t{g}\t{count}\n"
        for row in report["results"] for g, count in row["counts"].items())


def test_encoder_writes_one_results_row_at_a_time(monkeypatch):
    # the text before the rows (in TSV the header line), each row, and in
    # JSON the closing brackets, each one write to stdout
    writes = []

    class Recorder(io.StringIO):
        def write(self, chunk):
            writes.append(chunk)
            return super().write(chunk)

    report = run_moments(4)
    text = json.dumps(report, indent=2) + "\n"
    for output_format, expected, first, last in (
            ("json", text, text.partition("[")[0] + "[", "\n  ]\n}\n"),
            ("tsv", _moments_tsv(report), "k\tg\tcount\n",
             "4\t0\t14\n4\t1\t47\n4\t2\t26\n4\t3\t1\n")):
        writes.clear()
        monkeypatch.setattr(sys, "stdout", Recorder())
        assert main(["moments", "--k-max", "4", "--format",
                     output_format]) == 0
        rows = len(report["results"])
        assert len(writes) == rows + (2 if output_format == "json" else 1)
        assert "".join(writes) == sys.stdout.getvalue() == expected
        assert writes[0] == first and writes[-1] == last


def test_report_is_written_without_its_whole_text(tmp_path):
    # the streamed write of a moments --k-max 60 report (about 110 kB of
    # JSON, 91 kB of TSV) never holds as many bytes as the text has
    # characters
    report = run_moments(60)
    for text, chunks in ((json.dumps(report, indent=2) + "\n",
                          cli._json_chunks),
                         (_moments_tsv(report), cli._tsv_chunks)):
        target = tmp_path / "moments.out"
        tracemalloc.start()
        try:
            cli._write_atomic(str(target), chunks(report))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert target.read_text() == text
        assert peak < len(text)


def test_sample_tsv_renders_a_missing_z_as_null(capsys):
    code, out = run_cli(capsys, "sample", "--n", "1", "--k", "1",
                        "--trials", "1", "--format", "tsv")
    assert code == 0
    assert out == ("n\tk\ttrials\testimate\tstderr\tpredicted\tz\n"
                   "1\t1\t1\t2.0\t0.0\t1\tnull\n")


def test_usage_errors_exit_two(capsys):
    for args in (["moments", "--k-max", "0"],
                 ["sample", "--trials", "-3"],
                 ["verify", "--k-max", "0"],
                 ["sample", "--n", str(2**53 + 1)],
                 ["bogus"],
                 []):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be at most 2**53" in err
    assert cli._parse_args(["sample", "--n", str(2**53)])["n"] == 2**53


def _parsed(parse, argv):
    """The values parse reads from argv, or the code it exits with."""
    try:
        return parse(argv)
    except SystemExit as exc:
        return exc.code


# the documented forms, then the spellings argparse accepted and the
# errors it exited 2 on
_ARGV_CASES = [
    ["theta", "--g-max", "4"],
    ["phi", "--g-max", "4", "--dump-ansatz"],
    ["moments", "--k-max", "8"],
    ["verify", "--g-max", "4", "--k-max", "8"],
    ["sample", "--n", "2", "--k", "2", "--trials", "1000000",
     "--seed", "8675309"],
    ["theta", "--g-max", "2", "--format", "tsv"],
    ["moments", "--k-max", "1", "--out", "report.json"],
    ["theta"], ["phi"], ["moments"], ["verify"], ["sample"],
    ["moments", "--k-max=5"],
    ["verify", "--g=3", "--k=2", "--f=tsv"],
    ["sample", "--tri", "10"],
    ["sample", "--seed", "-5"],
    ["sample", "--seed=-5", "--o", "-"],
    ["phi", "--d", "--du"],
    ["theta", "--g-max", "2", "--g-max", "3"],
    ["sample", "--seed", "1", "--seed=2", "--n", "3"],
    ["sample", "--n", str(2**53)],
    ["phi", "--dump-ansatz", "--format", "tsv"],
    ["theta", "--g-max"],
    ["sample", "--seed", "--n", "3"],
    ["sample", "--seed", "-x"],
    ["theta", "--out", "-h"], ["theta", "--out", ""], ["theta", "--out="],
    ["bogus"], ["theta", "--bogus"], ["theta", "--k-max", "3"],
    ["theta", "3"], ["--g-max", "3", "theta"], ["th"],
    ["theta", "--g-max", "x"], ["theta", "--format", "xml"],
    ["phi", "--dump-ansatz=yes"], ["theta", "--help=x"], ["--he=x"],
    ["sample", "--k", "-2"],
    ["moments", "--k-max", "0"], ["sample", "--trials", "-3"],
    ["verify", "--k-max", "0"], ["sample", "--n", str(2**53 + 1)],
    [],
]


@pytest.mark.parametrize("argv", _ARGV_CASES,
                         ids=[" ".join(argv) or "empty" for argv in _ARGV_CASES])
def test_option_table_parses_as_argparse_did(capsys, argv):
    # same values, or exit 2 from both; the table's error ends in one
    # `ppmoments: error:` line after the usage line
    reference = argparse_reference_parser()
    want = _parsed(lambda args: vars(reference.parse_args(args)), argv)
    capsys.readouterr()
    got = _parsed(cli._parse_args, argv)
    assert got == want
    if got == 2:
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: ppmoments ")
        assert err[1].startswith("ppmoments: error: ") and len(err) == 2


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["theta", "--he"],
                                  ["phi", "-h", "--bogus"],
                                  ["verify", "--bogus", "-h"]],
                         ids=["h", "help", "prefix", "before-unknown",
                              "after-unknown"])
def test_help_names_every_command_and_option(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli._parse_args(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    command = argv[0] if argv[0] in cli._COMMANDS else None
    for name in [command] if command else cli._COMMANDS:
        assert name in out
        for option in cli._options(name):
            assert option in out
    assert "-h, --help" in out


def test_sample_moment_beyond_a_double_exits_two(tmp_path, capsys):
    # at n = 1 the exact 600th moment is far beyond 2**1024; the target
    # bound settles that before a single trial is drawn
    target = tmp_path / "sample.json"
    code = main(["sample", "--n", "1", "--k", "300", "--trials", "50",
                 "--out", str(target)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("ppmoments: ") and err.count("\n") == 1
    assert "--k 300" in err and "Traceback" not in err
    assert not target.exists()


@pytest.mark.parametrize("n, k, trials", [(2, 200, 10), (1, 300, 5),
                                          (2, 185, 10), (2, 200000, 10),
                                          (1, 170, 1), (1000, 519, 1)])
def test_sample_fails_fast_when_the_target_overflows(capsys, monkeypatch, n,
                                                     k, trials):
    # float() overflows on the exact target at such k, and it is settled
    # before sampling (k = 200000 would sample for about a minute) and
    # with one trial too, where a zero standard error could skip it.  The
    # shortcut walks at most the one peak size and fires on it alone but
    # at the tight edge (2, 185), where the moment row (0.4 s) decides
    walked = []

    def walk(size, k):
        walked.append(size)
        return oracles.transformed_moment(size, k)

    monkeypatch.setattr(sampler, "transformed_moment", walk)
    start = time.perf_counter()
    code = main(["sample", "--n", str(n), "--k", str(k),
                 "--trials", str(trials)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (f"ppmoments: --k {k} is too large at --n {n}: "
                            f"the moment exceeds the double-precision "
                            f"range\n")
    assert elapsed < 1.0
    assert len(walked) <= 1


def test_sample_row_alone_decides_overflow_before_any_trial(capsys,
                                                            monkeypatch):
    # with the shortcut silenced, the exact target read off the moment row
    # still refuses (2, 185) before a single trial is drawn
    def forbidden(*args):
        raise AssertionError(f"drew trials: {args}")

    monkeypatch.setattr(sampler, "_target_overflows", lambda n, k: False)
    monkeypatch.setattr(sampler, "_drawn_sizes", forbidden)
    code = main(["sample", "--n", "2", "--k", "185", "--trials", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("ppmoments: --k 185 is too large at --n 2: the "
                            "moment exceeds the double-precision range\n")


def test_target_overflow_bound_is_sound():
    # the bounds on e**-n are n-th powers of two rational bounds on e,
    # which must hold strictly and be close: their ratio is below
    # 1 + 2**-66
    (a, b), (c, d) = sampler._E_BELOW, sampler._E_ABOVE
    with localcontext() as ctx:
        ctx.prec = 50
        assert Decimal(a) / b < Decimal(1).exp() < Decimal(c) / d
    assert (c * b - a * d) << 66 < a * d
    for n in (1, 2, 3, 30, 1000, 2 ** 53):
        for k in (1, 2, 3, 10, 40):
            assert not sampler._target_overflows(n, k)
    # the exact targets at the edge: n**k times the target is the row
    # summed at 1/n**g = n**(k - g) / n**k.  At n = 1 the target, the sum
    # of row k's counts, is 1.768e308 at k = 167 and overflows a double
    # at k = 168; at n = 2 it overflows from k = 185.  The rows decide
    # both edges exactly, and the shortcut never fires on a target that
    # fits
    rows = oracles.moment_polynomials(185)
    edges = {(1, 167): False, (1, 168): True, (2, 184): False,
             (2, 185): True}
    for (n, k), overflows in edges.items():
        scaled = sampler._scaled_target(n, k, rows[k - 1])
        assert (scaled >= n ** k << 1024) == overflows, (n, k)
        if overflows:
            with pytest.raises(OverflowError):
                sampler._target_rows(n, [k])
        else:
            assert sampler._target_rows(n, [k]) == [rows[k - 1]]
            assert not sampler._target_overflows(n, k), (n, k)
    # the counts are positive, so every target is largest at n = 1, where
    # it is the sum of row k's counts: no target with k <= 167 overflows
    assert all(sum(rows[k - 1].values()) < 2 ** 1024 for k in range(1, 168))
    # Catalan(k), the g = 0 count, is at least 2**1024 from k = 520, so
    # every target overflows there, at any n
    assert (math.comb(1038, 519) // 520 < 2 ** 1024
            <= math.comb(1040, 520) // 521)
    assert sampler._target_overflows(2 ** 53, 520)
    assert not sampler._target_overflows(2 ** 53, 519)


@pytest.mark.parametrize("n, k", [(2, 3), (2 ** 53, 40)],
                         ids=["sample-mc", "largest-mean"])
def test_overflow_shortcut_leaves_small_orders_alone(monkeypatch, n, k):
    # below k = 168 the shortcut answers before any other work, so no
    # benchmark workload (sample-mc is (2, 3)) runs the peak or a walk
    def forbidden(*args):
        raise AssertionError(f"walked below k = 168: {args}")

    monkeypatch.setattr(sampler, "_peak", forbidden)
    monkeypatch.setattr(sampler, "transformed_moment", forbidden)
    assert not sampler._target_overflows(n, k)


def test_sample_guards_walk_nothing_they_need_not(monkeypatch):
    # the z guard reads its window off the moment row, and the overflow
    # shortcut walks at most the one peak size, only for 168 <= k < 520;
    # at n = 1000 the old window walk took 1.8 s at k = 300, 3.7 s at 400
    rows = {k: oracles.moment_polynomial(k) for k in (5, 20)}
    walked = []

    def walk(size, k):
        walked.append((size, k))
        return oracles.transformed_moment(size, k)

    def forbidden(size, k_max):
        raise AssertionError(f"walked size {size} to horizon {2 * k_max}")

    with monkeypatch.context() as patched:
        patched.setattr(oracles, "_size_moments", forbidden)
        assert sampler._z_unsupported(8, 5, 10, rows[5])
        assert sampler._z_unsupported(5, 20, 10000, rows[20])
    monkeypatch.setattr(sampler, "transformed_moment", walk)
    assert not sampler._target_overflows(1000, 150)
    assert walked == []
    for k in (300, 400):
        assert not sampler._target_overflows(1000, k)
        assert walked == [(sampler._peak(1000, k), k)]
        walked.clear()
    # at (10**6, 519) the peak lies past 64 k: no size is walked and no
    # power of the e bounds is built (the millionth power of one took 37 s)
    start = time.perf_counter()
    assert not sampler._target_overflows(10 ** 6, 519)
    assert time.perf_counter() - start < 0.5
    assert walked == []


def test_sample_reads_each_drawn_size_off_the_row(monkeypatch):
    # run_sample and mc_moments give the estimate of the walked route,
    # bit for bit, without a per-size walk; n = 31 draws by rejection,
    # and 200,000 trials split
    cases = [(2, 3, 5000), (2, 3, 200_000), (30, 4, 3000), (31, 2, 500),
             (1000, 20, 300)]
    expected = {(n, k, trials): mc_moments_by_walks(n, [k], trials)[0]
                for n, k, trials in cases}

    def walk(size, k_max):
        raise AssertionError(f"walked size {size} to horizon {2 * k_max}")

    monkeypatch.setattr(oracles, "_size_moments", walk)
    for n, k, trials in cases:
        row = run_sample(n, k, trials)["results"][0]
        want = expected[n, k, trials]
        assert (row["estimate"], row["stderr"]) == want, (n, k, trials)
        assert sampler.mc_moments(n, [k], trials) == [want], (n, k, trials)


def test_peak_sizes_match_the_bisection():
    ks = [*range(1, 60), 100, 167, 168, 185, 300, 519, 520]
    for n in [*range(1, 3001), 10 ** 4, 10 ** 5, 10 ** 6, 2 ** 40, 2 ** 53]:
        for k in ks:
            assert sampler._peak_sizes(n, k) == \
                peak_sizes_reference(n, k), (n, k)


def test_z_guard_reads_the_walked_moments_off_the_row():
    fired = 0
    for n in (1, 2, 7, 30, 31, 100, 1000):
        for k in (1, 2, 3, 8, 20, 40):
            row = oracles.moment_polynomial(k)
            scaled = sum(c * n ** (k - g) for g, c in row.items())
            for trials in (1, 10, 1000, 100000):
                unsupported = sampler._z_unsupported(n, k, trials, row)
                assert unsupported == z_unsupported_by_walks(
                    n, k, trials, scaled), (n, k, trials)
                fired += unsupported
    assert fired == 89


def test_sample_at_the_largest_mean_walks_no_window():
    # at n = 2**53 every size near the peak lies past 64 k, so the z
    # guard builds no power of the e bounds and reads no moment
    start = time.perf_counter()
    row = run_sample(2 ** 53, 2, 10)["results"][0]
    assert time.perf_counter() - start < 0.5
    assert row["z"] is not None


def _unseen_share(n, k, trials):
    """Share of the exact target at sizes N with trials * P(N) < 1.

    The seen sizes are finite, so the unseen share is one less the seen
    one, summed to 60 digits with P(N) = e**-n n**N / N!.
    """
    scaled = sum(c * n ** (k - g)
                 for g, c in oracles.moment_polynomial(k).items())
    with localcontext() as ctx:
        ctx.prec = 60
        weight, seen, size = Decimal(-n).exp(), Decimal(0), 0
        while size <= n or trials * weight >= 1:
            if trials * weight >= 1:
                seen += weight * oracles.transformed_moment(size, k)
            size += 1
            weight = weight * n / size
        return 1 - seen / scaled


@pytest.mark.parametrize("n, k, trials", [
    (1, 140, 2000), (2, 20, 10000), (2, 40, 10000), (1, 30, 10000),
    (5, 60, 10000)])
def test_z_guard_fires_where_the_trials_see_little(n, k, trials):
    # seen shares 2.9e-93, 0.045, 2.5e-8, 8.8e-7 and 9.8e-13
    assert sampler._z_unsupported(n, k, trials, oracles.moment_polynomial(k))
    assert _unseen_share(n, k, trials) > Decimal("0.95")


def test_z_guard_is_sound():
    # a null z needs a proof that half the target or more is unseen.  A
    # target the guard passes may in general still be mostly unseen, since
    # its bound sums only the sizes near the peak; on this grid the bound
    # misses none of the 94 such targets
    fired, missed = 0, []
    for n in (1, 2, 3, 5, 8):
        for k in (1, 2, 3, 5, 8, 12, 20):
            row = oracles.moment_polynomial(k)
            for trials in (1, 10, 100, 1000, 10000):
                unseen = _unseen_share(n, k, trials)
                if sampler._z_unsupported(n, k, trials, row):
                    fired += 1
                    assert unseen >= Decimal("0.5"), (n, k, trials)
                elif unseen >= Decimal("0.5"):
                    missed.append((n, k, trials))
    assert fired == 94 and missed == []


@pytest.mark.parametrize("n, k, trials, share", [
    (8, 5, 10, "0.852"), (5, 20, 10000, "0.807")])
def test_sample_nulls_the_z_of_a_mostly_unseen_target(n, k, trials, share):
    # both targets are well past half unseen, but only a bound within a
    # small factor of e**-n that sums enough sizes near the peak proves it
    assert round(_unseen_share(n, k, trials), 3) == Decimal(share)
    row = run_sample(n, k, trials)["results"][0]
    assert row["z"] is None and row["stderr"] > 0


def test_sample_nulls_a_z_its_trials_cannot_support(capsys):
    # 2000 trials at n = 1 practically never draw the sizes near 39 that
    # carry the 280th moment, so the standard error says nothing about
    # the distance to the target; the run still exits 0
    code, out = run_cli(capsys, "sample", "--n", "1", "--k", "140",
                        "--trials", "2000")
    assert code == 0
    row = json.loads(out)["results"][0]
    assert row["z"] is None
    assert row["stderr"] > 0 and row["estimate"] > 0


def test_verify_runs_past_twelve(capsys):
    # the word route is one walk, so verify --k-max has no upper bound
    code, out = run_cli(capsys, "verify", "--g-max", "3", "--k-max", "16")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    checks = {c["check"] for c in report["results"]}
    assert "word vs size moments k=16" in checks


def test_reports_are_deterministic(capsys):
    _, first = run_cli(capsys, "sample", "--n", "2", "--k", "2",
                       "--trials", "500")
    _, second = run_cli(capsys, "sample", "--n", "2", "--k", "2",
                        "--trials", "500")
    assert first == second
    _, third = run_cli(capsys, "theta", "--g-max", "3")
    _, fourth = run_cli(capsys, "theta", "--g-max", "3")
    assert third == fourth


_NO_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                  reason="no /dev/full on this platform")


@pytest.mark.parametrize("target, k_max", [
    ("pipe", "3"), ("pipe", "150"),
    pytest.param("/dev/full", "3", marks=_NO_DEV_FULL),
], ids=["closed-pipe-buffered", "closed-pipe-streamed", "full-device"])
def test_failed_stdout_write_exits_two(target, k_max):
    # a reader that has gone, or a device that takes no byte, is a failed
    # write, not a verification mismatch (exit 1): one stderr line and
    # exit 2, whether the report fits the stdout buffer and fails at the
    # flush or fails mid-stream, and nothing more from the flush at exit
    if target == "pipe":
        read_end, stdout = os.pipe()
        os.close(read_end)
    else:
        stdout = os.open(target, os.O_WRONLY)
    try:
        done = subprocess.run(
            [sys.executable, "-I", "-c",
             "import sys; sys.path.insert(0, sys.argv[1]); "
             "import ppmoments.cli; "
             "sys.exit(ppmoments.cli.main(sys.argv[2:]))",
             _SRC, "moments", "--k-max", k_max],
            stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(stdout)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("ppmoments: cannot write stdout: ")
    assert done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr
    assert "Exception ignored" not in done.stderr


# fd 1 closed, as by `>&-` in a shell: the interpreter starts with
# sys.stdout None
_STDOUT_CLOSED = ["/bin/sh", "-c", 'exec "$@" >&-', "sh"]


@pytest.mark.parametrize("closed, args", [
    ("pipe", ("moments", "--help")),
    ("pipe", ("-h",)),
    ("fd", ("moments", "--k-max", "3")),
    ("fd", ("theta", "--help")),
], ids=["help-closed-pipe", "top-help-closed-pipe", "report-fd-closed",
        "help-fd-closed"])
def test_help_and_a_closed_stdout_fail_as_a_write_does(closed, args):
    # the help goes through the report's stdout handling, and a stdout
    # that is not there at all is a failed write: one stderr line and
    # exit 2, not exit 120 with "Exception ignored" or exit 1 with a
    # traceback
    command = [sys.executable, "-I", "-c",
               "import sys; sys.path.insert(0, sys.argv[1]); "
               "import ppmoments.cli; "
               "sys.exit(ppmoments.cli.main(sys.argv[2:]))", _SRC, *args]
    read_end, stdout = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            _STDOUT_CLOSED + command if closed == "fd" else command,
            stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(stdout)
    assert done.returncode == 2, done.stderr
    message = "Bad file descriptor" if closed == "fd" else "Broken pipe"
    assert done.stderr == f"ppmoments: cannot write stdout: {message}\n"


def test_out_file_writing(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run_cli(capsys, "moments", "--k-max", "1",
                        "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["command"] == "moments"


def test_out_file_replaces_target_whole(tmp_path, capsys):
    target = tmp_path / "report.json"
    target.write_text("x" * 100000)
    code, out = run_cli(capsys, "moments", "--k-max", "1",
                        "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text()) == run_moments(1)
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_out_file_failed_write_keeps_old_target(tmp_path, capsys, monkeypatch):
    target = tmp_path / "report.json"
    target.write_text("old report\n")

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "replace", failing_replace)
    code = main(["moments", "--k-max", "1", "--out", str(target)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"ppmoments: cannot write {target}: disk full\n"
    assert target.read_text() == "old report\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_out_file_into_missing_directory_exits_two(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code = main(["theta", "--g-max", "1", "--out", str(target)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith(f"ppmoments: cannot write {target}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []
    # a directory as target: the temp file sits beside it and must go too
    assert main(["theta", "--g-max", "1", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"ppmoments: cannot write {tmp_path}: ")
    assert list(tmp_path.iterdir()) == []
    assert list(tmp_path.parent.glob(f"{tmp_path.name}.*.tmp")) == []


def test_out_empty_path_is_a_usage_error(capsys):
    # an empty path names no file; the report must not go to stdout
    # instead, as if --out had not been given
    with pytest.raises(SystemExit) as exc:
        main(["theta", "--g-max", "1", "--out", ""])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.splitlines() == [
        "usage: ppmoments theta [--g-max G_MAX] [--format FORMAT] "
        "[--out OUT]",
        "ppmoments: error: argument --out: expected a path, not an empty "
        "string"]


def test_out_file_writes_a_fifo_in_place(tmp_path, capsys):
    # a target that is not a regular file is opened and written, never
    # replaced: the reader of a FIFO gets the whole report
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        code = main(["theta", "--g-max", "1", "--out", str(fifo)])
        received = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert code == 0 and capsys.readouterr().out == ""
    assert received == (json.dumps(run_theta(1), indent=2) + "\n").encode()
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["report.fifo"]


def test_out_file_writes_through_a_symlink(tmp_path, capsys):
    target = tmp_path / "report.json"
    target.write_text("old report\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    code, out = run_cli(capsys, "moments", "--k-max", "1", "--out", str(link))
    assert code == 0 and out == ""
    assert link.is_symlink() and link.resolve() == target
    assert json.loads(target.read_text()) == run_moments(1)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json",
                                                          "report.json"]


def test_theta_tsv_rows(capsys):
    code, out = run_cli(capsys, "theta", "--g-max", "1", "--format", "tsv")
    assert code == 0
    assert out.strip().splitlines() == ["g\tk\ttheta", "1\t2\t1"]


def test_phi_tsv_rows(capsys):
    code, out = run_cli(capsys, "phi", "--g-max", "1", "--format", "tsv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "g\tnum\tden"
    assert lines[1] == "0\t0,1\t1"
    assert lines[2] == "1\t0,-1,2,-1\t-8,12,-6,1"


def test_degenerate_verify_bounds(capsys):
    code, out = run_cli(capsys, "verify", "--g-max", "1", "--k-max", "1")
    assert code == 0
    assert json.loads(out)["passed"] is True
