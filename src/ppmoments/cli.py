"""Command-line interface: exact tables, oracle verification, sampling runs.

Commands
  theta    coefficient tables and closed forms for orders 1..g_max
  phi      closed forms only (optionally with the raw term-sum dump)
  moments  exact moment polynomials in 1/n for orders up to k_max
  verify   cross-check pipeline, combinatorial oracles and invariants
  sample   Monte Carlo estimate of one moment against its exact value

Exit codes: 0 success / verification passed, 1 verification mismatch,
2 usage error, a failed --out write or a sampled moment beyond double
precision.  Reports are deterministic for a fixed configuration,
including the seed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from fractions import Fraction

from .algebra import (
    POLY_C,
    PolyC,
    RationalFnC,
    SeriesX,
    catalan_number,
    catalan_series,
    expand_in_x,
    fine_structure_form,
    fine_structure_to_rational,
    theta_support_window,
)
from .ansatz import (
    chain_iterates,
    chain_shape_violations,
    f_series,
    g_series,
    y0_coefficient,
)
from .oracles import (
    _word_rows,
    moment_polynomial,
    moment_polynomials,
    path_counts,
)
from .sampler import (
    DEFAULT_SEED,
    POISSON_MEAN_MAX,
    mc_moment,
    transformed_moment,
)

__all__ = ["REFERENCE_THETA", "main", "run_moments", "run_phi", "run_sample",
           "run_theta", "run_verify"]

# Reference coefficient table for orders 1..4, reproduced by the pipeline
# and pinned by the acceptance suite.
REFERENCE_THETA = {
    1: {2: 1},
    2: {3: 1, 4: 14, 5: 15},
    3: {4: 1, 5: 64, 6: 565, 7: 1122, 8: 630},
    4: {5: 1, 6: 222, 7: 5820, 8: 42500, 9: 110670, 10: 118740, 11: 45045},
}


def run_theta(g_max: int) -> dict:
    """Coefficient table rows and closed forms for g = 1..g_max."""
    rows = []
    for g, s in enumerate(chain_iterates(g_max)):
        if g == 0:
            continue
        fn = y0_coefficient(s)
        theta = fine_structure_form(fn, g)
        rows.append({"g": g,
                     "theta": {str(k): str(v)
                               for k, v in sorted(theta.items())},
                     "phi": fn.to_json()})
    return {"command": "theta", "params": {"g_max": g_max}, "results": rows}


def run_phi(g_max: int, dump_ansatz: bool = False) -> dict:
    """Closed forms for g = 0..g_max, optionally with raw term sums."""
    rows = []
    for g, s in enumerate(chain_iterates(g_max)):
        row = {"g": g, "phi": y0_coefficient(s).to_json()}
        if dump_ansatz and g >= 1:
            row["ansatz"] = s.to_json()
        rows.append(row)
    return {"command": "phi", "params": {"g_max": g_max}, "results": rows}


def run_moments(k_max: int) -> dict:
    """Exact moment polynomials for k = 1..k_max."""
    rows = [mp.to_json() for mp in moment_polynomials(k_max)]
    return {"command": "moments", "params": {"k_max": k_max}, "results": rows}


def _target_overflows(n: int, k: int) -> bool:
    """True only if the exact target of run_sample is at least 2**1024.

    The target is the Poisson(n) average of transformed_moment(N, k) / n**k,
    a sum with no negative term: the moment is an even power sum of the
    real roots of He_(N+1).  So each term is a lower bound, and so is the
    g = 0 coefficient Catalan(k) of moment_polynomial(k), whose
    coefficients are counts.  As log2(e) < 1.4426950408889635,
    e**-n >= 2**-c with c = ceil(n * 1.4426950408889635), and the term at
    N is at least 2**1024 when n**N * m >= N! * n**k * 2**(1024 + c),
    m = transformed_moment(N, k), compared exactly in integers.  The
    terms peak near the N with N ln(N/n) = k; the test takes that N and
    N = n, each only up to 64 k, which bounds its work by the k of the
    run, not by n.  A False answer proves nothing, and the caller goes on
    to compute the target.
    """
    if catalan_number(k) >> 1024:
        return True
    lo, hi = n, n + k  # N ln(N/n) - k is < 0 at lo and >= 0 at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid * math.log(mid / n) < k:
            lo = mid
        else:
            hi = mid
    c = -(-n * 14426950408889635 // 10 ** 16)
    return any(n ** size * transformed_moment(size, k)
               >= math.factorial(size) * n ** k << 1024 + c
               for size in {n, hi} if size <= 64 * k)


def run_sample(n: int, k: int, trials: int, seed: int = DEFAULT_SEED) -> dict:
    """Monte Carlo estimate of the 2k-th moment with its exact target.

    With a zero standard error (every trial gave the same value) z is
    0.0 when the estimate equals the prediction exactly and None (JSON
    null) otherwise, since no finite z-score describes that mismatch.
    """
    estimate, stderr = mc_moment(n, k, trials, seed)
    if stderr > 0 and _target_overflows(n, k):
        raise OverflowError("the exact target exceeds the double range")
    predicted = moment_polynomial(k).evaluate(n) if k >= 1 else Fraction(1)
    if stderr > 0:
        z = (estimate - float(predicted)) / stderr
    else:
        z = 0.0 if estimate == predicted else None
    return {"command": "sample",
            "params": {"n": n, "k": k, "trials": trials, "seed": seed},
            "results": [{"n": n, "k": k, "trials": trials,
                         "estimate": estimate, "stderr": stderr,
                         "predicted": str(predicted), "z": z}]}


def _render(v) -> str:
    if isinstance(v, dict):
        return "{" + ", ".join(f"{k}: {_render(x)}"
                               for k, x in sorted(v.items())) + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_render(x) for x in v) + "]"
    return str(v)


def _check(checks: list, name: str, expected, actual) -> None:
    checks.append({"check": name,
                   "expected": _render(expected),
                   "actual": _render(actual),
                   "pass": expected == actual})


def _grid_check(checks: list, name: str, bad: list) -> None:
    """Record a grid comparison, naming the first five mismatched indices."""
    match = "all coefficients match"
    _check(checks, name, match, f"mismatch at {bad[:5]}" if bad else match)


def run_verify(g_max: int, k_max: int) -> dict:
    """Run the oracle agreements and structural invariants; report each."""
    checks: list[dict] = []
    x_order = 2 * k_max
    iterates, phis = [], []
    for s in chain_iterates(max(g_max, 1)):
        iterates.append(s)
        phis.append(y0_coefficient(s))
    thetas = {g: fine_structure_form(phis[g], g) for g in range(1, g_max + 1)}

    # Catalan series self-consistency
    s = catalan_series(x_order)
    x2 = SeriesX(x_order, (0, 0, 1))
    _check(checks, "catalan quadratic identity", s, 1 + x2 * s * s)
    plain = SeriesX(k_max, (catalan_number(i) for i in range(k_max + 1)))
    _check(checks, "catalan derivative identity",
           SeriesX(max(k_max - 1, 0), (plain * plain * plain).coeffs),
           plain.derivative() * (2 - plain))

    # Leading order and first correction
    _check(checks, "phi(0) closed form", RationalFnC(POLY_C), phis[0])
    phi1_expected = RationalFnC(POLY_C * PolyC((-1, 1)) ** 2, 3)
    _check(checks, "phi(1) closed form", phi1_expected, phis[1])

    # Reference coefficient table
    for g in range(1, min(g_max, 4) + 1):
        _check(checks, f"theta table row g={g}",
               REFERENCE_THETA[g], thetas[g])

    # Three-way moment agreement
    phi_series = {g: expand_in_x(phis[g], x_order) for g in range(g_max + 1)}
    for k, (rook, word) in enumerate(zip(moment_polynomials(k_max),
                                         _word_rows(k_max)), start=1):
        _check(checks, f"word vs rook moments k={k}", rook.counts, word)
        for g in range(g_max + 1):
            _check(checks, f"pipeline coefficient k={k} g={g}",
                   rook.counts.get(g, 0),
                   phi_series[g].coefficient(2 * k))

    # Closed operator-chain shape, support window, round trip
    for g in range(1, g_max + 1):
        _check(checks, f"chain shape g={g}", [],
               chain_shape_violations(iterates[g], g))
        lo, hi = theta_support_window(g)
        _check(checks, f"support window g={g}", True,
               all(lo <= key <= hi for key in thetas[g]))
        _check(checks, f"normal form round trip g={g}", phis[g],
               fine_structure_to_rational(thetas[g], g))

    # Generating functions against path counts
    imax = min(x_order, 12)
    paths = [path_counts(start, imax) for start in range(imax + 1)]
    fgrid = f_series(imax, imax)
    _grid_check(checks, f"return-height series vs path counts (i<={imax})",
                [(i, j) for i in range(imax + 1) for j in range(imax + 1)
                 if fgrid[i][j] != paths[0][i].get(j, 0)])
    ggrid = g_series(imax, imax, imax)
    _grid_check(checks, f"two-height series vs path counts (i<={imax})",
                [(i, j1, j2)
                 for i in range(imax + 1) for j1 in range(imax + 1)
                 for j2 in range(imax + 1)
                 if ggrid[i][j1][j2] != paths[j1][i].get(j2, 0)])

    passed = all(c["pass"] for c in checks)
    return {"command": "verify",
            "params": {"g_max": g_max, "k_max": k_max},
            "passed": passed,
            "results": checks}


def _to_tsv(report: dict) -> str:
    cmd = report["command"]
    lines: list[str] = []
    if cmd == "theta":
        lines.append("g\tk\ttheta")
        for row in report["results"]:
            for k, v in row["theta"].items():
                lines.append(f"{row['g']}\t{k}\t{v}")
    elif cmd == "phi":
        lines.append("g\tnum\tden")
        for row in report["results"]:
            lines.append("{}\t{}\t{}".format(
                row["g"], ",".join(row["phi"]["num"]),
                ",".join(row["phi"]["den"])))
    elif cmd == "moments":
        lines.append("k\tg\tcount")
        for row in report["results"]:
            for g, v in row["counts"].items():
                lines.append(f"{row['k']}\t{g}\t{v}")
    elif cmd == "verify":
        lines.append("check\tpass\texpected\tactual")
        for row in report["results"]:
            lines.append("{}\t{}\t{}\t{}".format(
                row["check"], "pass" if row["pass"] else "FAIL",
                row["expected"], row["actual"]))
    else:
        row = report["results"][0]
        lines.append("\t".join(row))
        lines.append("\t".join("null" if v is None else str(v)
                                for v in row.values()))
    return "\n".join(lines) + "\n"


def _positive(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return n


def _poisson_mean(value: str) -> int:
    n = _positive(value)
    if n > POISSON_MEAN_MAX:
        raise argparse.ArgumentTypeError(
            f"must be at most 2**53 = {POISSON_MEAN_MAX}: the Poisson draw "
            f"runs in double precision")
    return n


def _write_atomic(path: str, text: str) -> None:
    """Write text to path whole or not at all.

    The report goes to a temporary file beside the target, which then
    replaces the target in one rename; a reader never sees a partial
    report, and an old target survives a failed write.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppmoments",
        description="Exact Poissonized Plancherel moment expansions of the "
                    "size-only measure (uniform on the roots of He_(N+1)), "
                    "with combinatorial and Monte Carlo checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "tsv"), default="json",
                       dest="output_format")
        p.add_argument("--out", default=None, metavar="FILE",
                       help="write the report here instead of stdout")

    p = sub.add_parser("theta", help="coefficient tables for g=1..g_max")
    p.add_argument("--g-max", type=_positive, default=4)
    common(p)

    p = sub.add_parser("phi", help="closed forms for g=0..g_max")
    p.add_argument("--g-max", type=_positive, default=4)
    p.add_argument("--dump-ansatz", action="store_true",
                   help="include the operator-chain term sums (JSON only)")
    common(p)

    p = sub.add_parser("moments", help="exact moment polynomials k=1..k_max")
    p.add_argument("--k-max", type=_positive, default=8)
    common(p)

    p = sub.add_parser("verify", help="run all oracle and invariant checks")
    p.add_argument("--g-max", type=_positive, default=4)
    p.add_argument("--k-max", type=_positive, default=8)
    common(p)

    p = sub.add_parser("sample", help="Monte Carlo check of one moment")
    p.add_argument("--n", type=_poisson_mean, default=2,
                   help="at most 2**53")
    p.add_argument("--k", type=_positive, default=2)
    p.add_argument("--trials", type=_positive, default=10000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common(p)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "dump_ansatz", False) and args.output_format == "tsv":
        parser.error("phi --dump-ansatz has no TSV form; use --format json")
    if args.command == "theta":
        report = run_theta(args.g_max)
    elif args.command == "phi":
        report = run_phi(args.g_max, args.dump_ansatz)
    elif args.command == "moments":
        report = run_moments(args.k_max)
    elif args.command == "verify":
        report = run_verify(args.g_max, args.k_max)
    else:
        try:
            report = run_sample(args.n, args.k, args.trials, args.seed)
        except OverflowError:
            print(f"ppmoments: --k {args.k} is too large at --n {args.n}: the "
                  f"moment exceeds the double-precision range", file=sys.stderr)
            return 2

    if args.output_format == "tsv":
        text = _to_tsv(report)
    else:
        text = json.dumps(report, indent=2) + "\n"

    if args.out:
        try:
            _write_atomic(args.out, text)
        except OSError as exc:
            print(f"ppmoments: cannot write {args.out}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)

    if args.command == "verify" and not report["passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
