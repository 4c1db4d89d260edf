import hashlib
import json
import time
from decimal import Decimal, localcontext

import pytest

import ppmoments.ansatz as ansatz
import ppmoments.cli as cli
import ppmoments.oracles as oracles
from ppmoments.cli import main, run_moments, run_sample, run_theta, run_verify


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
], ids=["g4", "g7"])
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
    # sha256 of `verify --g-max 5 --k-max 10` as computed with the gcd field
    code, out = run_cli(capsys, "verify", "--g-max", "5", "--k-max", "10")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "82cafbf035bca12476895c334d1e3f832ba3d2cba4a329180627e8cf3432eb3a"


def test_moments_deep_report_digest(capsys):
    # sha256 of `moments --k-max 40`: every row from one packed rook walk
    # of horizon 80
    code, out = run_cli(capsys, "moments", "--k-max", "40")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "09ad0295e7ae7be9940f5c6e687f1ea5059920974f062f0123c67d857150c5b4"


def test_reports_walk_the_rook_transfer_matrix_once(monkeypatch):
    calls = []
    original = oracles._rook_rows

    def counting(k_max):
        calls.append(k_max)
        return original(k_max)

    monkeypatch.setattr(oracles, "_rook_rows", counting)
    assert len(run_moments(40)["results"]) == 40
    assert calls == [40]
    calls.clear()
    assert run_verify(2, 8)["passed"] is True
    assert calls == [8]


def test_reports_walk_the_word_route_once(monkeypatch):
    calls = []
    original = oracles._word_rows

    def counting(k_max):
        calls.append(k_max)
        return original(k_max)

    monkeypatch.setattr(oracles, "_word_rows", counting)
    monkeypatch.setattr(cli, "_word_rows", counting)
    assert run_verify(2, 8)["passed"] is True
    assert calls == [8]


def test_reports_walk_the_operator_chain_once(monkeypatch):
    calls = []
    original = ansatz.g_apply

    def counting(k, s):
        calls.append(k)
        return original(k, s)

    monkeypatch.setattr(ansatz, "g_apply", counting)
    run_theta(4)
    assert calls == [0, 1, 2, 3]
    calls.clear()
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
    real_g_series = cli.g_series

    def off_by_one(*orders):
        grid = real_g_series(*orders)
        grid[2][1][1] += 1
        return grid

    monkeypatch.undo()
    monkeypatch.setattr(cli, "g_series", off_by_one)
    bad = [c for c in run_verify(1, 1)["results"] if not c["pass"]]
    assert bad == [{"check": "two-height series vs path counts (i<=2)",
                    "expected": "all coefficients match",
                    "actual": "mismatch at [(2, 1, 1)]", "pass": False}]


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
    assert cli._build_parser().parse_args(
        ["sample", "--n", str(2**53)]).n == 2**53


def test_sample_moment_beyond_a_double_exits_two(tmp_path, capsys):
    # at n = 1 a size-3 draw has a 600th moment near 1e220, whose square
    # overflows the standard error
    target = tmp_path / "sample.json"
    code = main(["sample", "--n", "1", "--k", "300", "--trials", "50",
                 "--out", str(target)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("ppmoments: ") and err.count("\n") == 1
    assert "--k 300" in err and "Traceback" not in err
    assert not target.exists()


@pytest.mark.parametrize("n, k, trials", [(2, 200, 10), (1, 300, 5)])
def test_sample_fails_fast_when_the_target_overflows(capsys, n, k, trials):
    # the exact target walks the rook rows to k, which took 17 s at
    # k = 200 and 165 s at k = 300, before float() overflowed; a lower
    # bound on the target settles it first
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
    # e**-n >= 2**-ceil(n * 1.4426950408889635) needs log2(e) below it
    with localcontext() as ctx:
        ctx.prec = 50
        assert 1 / Decimal(2).ln() < Decimal("1.4426950408889635")
    for n in (1, 2, 3, 30, 1000, 2 ** 53):
        for k in (1, 2, 3, 10, 40):
            assert not cli._target_overflows(n, k)
    # at n = 1 the exact target, moment_polynomial(k).evaluate(1), is
    # 1.768e308 at k = 167 and overflows a double at k = 168 (about 10 s
    # to compute each), so the bound is tight there
    assert not cli._target_overflows(1, 167)
    assert cli._target_overflows(1, 168)
    # Catalan(k) is at least 2**1024 from k = 520 at any n
    assert cli._target_overflows(2 ** 53, 520)
    assert not cli._target_overflows(2 ** 53, 519)


def test_verify_runs_past_twelve(capsys):
    # the word route is one walk, so verify --k-max has no upper bound
    code, out = run_cli(capsys, "verify", "--g-max", "3", "--k-max", "16")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    checks = {c["check"] for c in report["results"]}
    assert "word vs rook moments k=16" in checks


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
