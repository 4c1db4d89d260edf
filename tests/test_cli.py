import hashlib
import json
import math
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

from helpers import (argparse_reference_parser, peak_sizes_reference,
                     z_unsupported_by_walks)


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


def test_verify_gate_report_digest(capsys):
    # sha256 of `verify --g-max 5 --k-max 10`, with one `theta rows route`
    # check per g after each round trip; the moment checks are labelled
    # `word vs size moments k=K`
    code, out = run_cli(capsys, "verify", "--g-max", "5", "--k-max", "10")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "d38b45457e3199ef6b6c0c9da28324a29102b7aaa918cc499fdfc298c5a0f866"


def test_moments_deep_report_digest(capsys):
    # sha256 of `moments --k-max 40`: every row from the Newton
    # differences of one size walk of horizon 80 per size 0..40
    code, out = run_cli(capsys, "moments", "--k-max", "40")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "09ad0295e7ae7be9940f5c6e687f1ea5059920974f062f0123c67d857150c5b4"


def test_reports_compute_the_moment_rows_once(monkeypatch):
    # one rows computation is one size walk per size 0..k_max, each to
    # horizon 2 k_max
    calls = []
    original = oracles._size_moments

    def counting(size, k_max):
        calls.append((size, k_max))
        return original(size, k_max)

    def one_pass(k_max):
        return [(size, k_max) for size in range(k_max + 1)]

    monkeypatch.setattr(oracles, "_size_moments", counting)
    assert len(run_moments(40)["results"]) == 40
    assert calls == one_pass(40)
    calls.clear()
    assert run_verify(2, 8)["passed"] is True
    assert calls == one_pass(8)
    # theta and the rows route read k <= 3 g_max + 2 off the same one pass
    calls.clear()
    run_theta(4)
    assert calls == one_pass(14)
    calls.clear()
    cli.run_phi(4, dump_ansatz=True)
    assert calls == one_pass(14)
    calls.clear()
    assert run_verify(5, 10)["passed"] is True
    assert calls == one_pass(17)


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
    monkeypatch.setattr(sampler, "mc_moment", lambda *args: (estimate, 0.0))
    row = run_sample(n, k, trials=100)["results"][0]
    assert row["predicted"] == predicted
    assert row["z"] == z


_SRC = str(Path(__file__).resolve().parents[1] / "src")
# imports one module and, given arguments, runs its main on them; then
# prints the rational-arithmetic and argument-parsing modules the process
# has loaded, and on the next line every ppmoments module
_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
module = __import__(sys.argv[2], fromlist=["_"])
if sys.argv[3:]:
    code = module.main(sys.argv[3:])
    assert code == 0, code
print(sorted({"fractions", "decimal", "numbers", "argparse", "gettext",
              "locale"} & set(sys.modules)), file=sys.stderr)
print(" ".join(sorted(name for name in sys.modules
                      if name.split(".")[0] == "ppmoments")),
      file=sys.stderr)
"""


@pytest.mark.parametrize("module, args, loaded", [
    ("ppmoments.cli", ("theta", "--g-max", "2"), "algebra oracles"),
    ("ppmoments.cli", ("phi", "--g-max", "2"), "algebra oracles"),
    ("ppmoments.cli", ("phi", "--g-max", "2", "--dump-ansatz"),
     "algebra ansatz oracles"),
    ("ppmoments.cli", ("moments", "--k-max", "3"), "oracles"),
    ("ppmoments.cli", ("verify", "--g-max", "2", "--k-max", "3"),
     "algebra ansatz oracles"),
    ("ppmoments.cli", ("sample", "--n", "2", "--k", "2", "--trials", "300"),
     "oracles sampler"),
    ("ppmoments.cli", ("sample", "--n", "31", "--k", "2", "--trials", "50"),
     "oracles sampler"),
    ("ppmoments.cli", (), ""),
    ("ppmoments.sampler", (), "oracles sampler"),
], ids=["theta", "phi", "phi-dump", "moments", "verify", "sample",
        "sample-ptrs", "import-cli", "import-sampler"])
def test_no_command_loads_rational_arithmetic(module, args, loaded):
    # fractions pulls in decimal and numbers at every process start; the
    # reports run on ints, and only the corner measure, which no command
    # builds, imports it.  argparse pulls in gettext, and building a
    # parser with it loads locale; the command line is read from one
    # option table instead.  Each command imports the package modules it
    # runs and no other, and the package resolves its names lazily.  A
    # fresh isolated interpreter sees what a command loads, whatever this
    # test process has imported already
    done = subprocess.run([sys.executable, "-I", "-c", _PROBE, _SRC, module,
                           *args], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    rational, package = done.stderr.splitlines()[-2:]
    assert rational == "[]"
    expected = {"ppmoments", module,
                *(f"ppmoments.{name}" for name in loaded.split())}
    assert set(package.split()) == expected


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
    # main streams each JSON report through json.dump, to stdout or to
    # the --out file, and writes what json.dumps would have built
    args, build = _STREAMED[command]
    text = json.dumps(build(), indent=2) + "\n"
    code, out = run_cli(capsys, *args)
    assert code == 0 and out == text
    target = tmp_path / "report.json"
    assert main([*args, "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == text.encode()


def test_report_is_written_without_its_whole_text(tmp_path):
    # the streamed write of a moments --k-max 60 report (about 110 kB of
    # JSON) never holds as many bytes as the text has characters
    report = run_moments(60)
    text = json.dumps(report, indent=2) + "\n"
    target = tmp_path / "moments.json"
    tracemalloc.start()
    try:
        cli._write_atomic(str(target), report, "json")
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
    ["theta", "--out", "-h"],
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
                                          (1, 170, 1)])
def test_sample_fails_fast_when_the_target_overflows(capsys, n, k, trials):
    # the exact target's moment row to k is slow to compute at such k,
    # and float() overflows on it; a lower bound on the target settles
    # it first.  It is asked before sampling (k = 200000 would sample
    # for about a minute) and with one trial too, where a zero standard
    # error could skip it
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


def test_target_overflow_bound_is_sound():
    # the bounds on e**-n are n-th powers of two rational bounds on e,
    # which must hold strictly and be close: their ratio is below
    # 1 + 2**-66
    (a, b), (c, d) = cli._E_BELOW, cli._E_ABOVE
    with localcontext() as ctx:
        ctx.prec = 50
        assert Decimal(a) / b < Decimal(1).exp() < Decimal(c) / d
    assert (c * b - a * d) << 66 < a * d
    for n in (1, 2, 3, 30, 1000, 2 ** 53):
        for k in (1, 2, 3, 10, 40):
            assert not cli._target_overflows(n, k)
    # the exact targets at the edge: n**k times the target is the row
    # summed at 1/n**g = n**(k - g) / n**k.  At n = 1 the target, the sum
    # of row k's counts, is 1.768e308 at k = 167 and overflows a double
    # at k = 168; at n = 2 it overflows from k = 185.  The bound fires
    # from the first k at both, so it is tight there; the terms summed
    # around the peak size at n = 2 reach 2**1025.2 at k = 185 and
    # 2**1018.5 at k = 184
    rows = oracles.moment_polynomials(185)

    def scaled_target(n, k):
        return sum(c * n ** (k - g) for g, c in rows[k - 1].items())

    assert scaled_target(1, 167) < 2 ** 1024 <= scaled_target(1, 168)
    # the counts are positive, so every target is largest at n = 1, where
    # it is the sum of row k's counts: no target with k <= 167 overflows,
    # and _target_overflows walks no size there
    assert all(sum(rows[k - 1].values()) < 2 ** 1024 for k in range(1, 168))
    assert not cli._target_overflows(1, 167)
    assert cli._target_overflows(1, 168)
    assert (scaled_target(2, 184) < 2 ** (1024 + 184)
            and scaled_target(2, 185) >= 2 ** (1024 + 185))
    assert not cli._target_overflows(2, 184)
    assert cli._target_overflows(2, 185)
    # Catalan(k), the g = 0 count, is at least 2**1024 from k = 520, so
    # every target overflows there, at any n
    assert (math.comb(1038, 519) // 520 < 2 ** 1024
            <= math.comb(1040, 520) // 521)
    assert cli._target_overflows(2 ** 53, 520)
    assert not cli._target_overflows(2 ** 53, 519)


def test_sample_guards_walk_nothing_they_need_not(monkeypatch):
    # the z guard reads its window off the moment row, and the overflow
    # bound walks only for 168 <= k < 520
    rows = {k: oracles.moment_polynomial(k) for k in (5, 20)}

    def walk(size, k_max):
        raise AssertionError(f"walked size {size} to horizon {2 * k_max}")

    monkeypatch.setattr(oracles, "_size_moments", walk)
    assert cli._z_unsupported(8, 5, 10, rows[5])
    assert cli._z_unsupported(5, 20, 10000, rows[20])
    assert not cli._target_overflows(1000, 150)


def test_peak_sizes_match_the_bisection():
    ks = [*range(1, 60), 100, 167, 168, 185, 300, 519, 520]
    for n in [*range(1, 3001), 10 ** 4, 10 ** 5, 10 ** 6, 2 ** 40, 2 ** 53]:
        for k in ks:
            assert cli._peak_sizes(n, k) == peak_sizes_reference(n, k), (n, k)


def test_z_guard_reads_the_walked_moments_off_the_row():
    fired = 0
    for n in (1, 2, 7, 30, 31, 100, 1000):
        for k in (1, 2, 3, 8, 20, 40):
            row = oracles.moment_polynomial(k)
            scaled = sum(c * n ** (k - g) for g, c in row.items())
            for trials in (1, 10, 1000, 100000):
                unsupported = cli._z_unsupported(n, k, trials, row)
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
    assert cli._z_unsupported(n, k, trials, oracles.moment_polynomial(k))
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
                if cli._z_unsupported(n, k, trials, row):
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
