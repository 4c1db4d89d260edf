"""Command-line interface: exact tables, oracle verification, sampling runs.

Commands
  theta    coefficient tables and closed forms for orders 1..g_max, solved
           (theta_from_rows) from the moment rows of the size walk's
           Newton differences; the operator chain, which verify walks,
           does not run
  phi      closed forms only, read off the same rows; the operator chain
           runs only for the raw term-sum dump (--dump-ansatz)
  moments  exact moment polynomials in 1/n for orders up to k_max
  verify   cross-check pipeline, combinatorial oracles and invariants:
           the size walk's rows against the word walk's and the chain's,
           and the theta tables of both routes, the chain's and the
           size rows' (rows to k = max(k_max, 3 g_max + 2), one pass)
  sample   Monte Carlo estimate of one moment against its exact value

Exit codes: 0 success / verification passed (and -h/--help), 1
verification mismatch, 2 usage error (the usage line and one
"ppmoments: error: ..." line on stderr), a failed --out write or a
sampled moment beyond double precision.  Reports are deterministic for
a fixed configuration, including the seed.

Importing this module loads no other ppmoments module: each command
imports the ones it runs when it runs, and parses its options with the
sampler's two constants from the package itself.  Besides this module,

  theta, phi           algebra, oracles
  phi --dump-ansatz    algebra, ansatz, oracles
  moments              oracles
  sample               oracles, sampler
  verify               algebra, ansatz, oracles

Each JSON report is streamed by json.dump to stdout or to the --out
temporary file, the same bytes as json.dumps(report, indent=2) and a
newline.  Both lower the peak RSS: moments --k-max 40 from 14.0 to
13.7 MB, moments --k-max 150 (a 1.7 MB report) from 22.2 to 18.1 MB
(Python 3.11.7).
"""

from __future__ import annotations

import bisect
import contextlib
import json
import math
import os
import re
import sys

from . import DEFAULT_SEED, POISSON_MEAN_MAX

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


def _rook_column(rows: list[dict[int, int]], g: int) -> list[int]:
    """R(k, g) for k = 0..len(rows), from moment_polynomials rows 1.."""
    return [0] + [row.get(g, 0) for row in rows]


def _closed_forms(g_max: int) -> list[tuple]:
    """(theta table, RationalFnC) for g = 1..g_max, from the moment rows.

    moment_polynomials gives the rows k <= 3 g_max + 2 that
    theta_from_rows needs, in one pass of size walks and Newton
    differences; each closed form re-expands its table.  verify checks
    both against the operator chain.
    """
    from .algebra import fine_structure_to_rational, theta_from_rows
    from .oracles import moment_polynomials

    rows = moment_polynomials(3 * g_max + 2)
    forms = []
    for g in range(1, g_max + 1):
        theta = theta_from_rows(_rook_column(rows, g), g)
        forms.append((theta, fine_structure_to_rational(theta, g)))
    return forms


def run_theta(g_max: int) -> dict:
    """Coefficient table rows and closed forms for g = 1..g_max."""
    results = [{"g": g,
                "theta": {str(k): str(v) for k, v in sorted(theta.items())},
                "phi": form.to_json()}
               for g, (theta, form) in enumerate(_closed_forms(g_max),
                                                 start=1)]
    return {"command": "theta", "params": {"g_max": g_max},
            "results": results}


def run_phi(g_max: int, dump_ansatz: bool = False) -> dict:
    """Closed forms for g = 0..g_max, optionally with raw term sums.

    The forms are run_theta's, with phi(0) = c; the operator chain runs
    only for the term sums of dump_ansatz.
    """
    from .algebra import POLY_C, RationalFnC

    results = [{"g": 0, "phi": RationalFnC(POLY_C).to_json()}]
    results += [{"g": g, "phi": form.to_json()}
                for g, (_, form) in enumerate(_closed_forms(g_max), start=1)]
    if dump_ansatz:
        from .ansatz import chain_iterates

        iterates = chain_iterates(g_max)
        next(iterates)  # F itself, order 0, has no term sums in the report
        for row, s in zip(results[1:], iterates):
            row["ansatz"] = s.to_json()
    return {"command": "phi", "params": {"g_max": g_max}, "results": results}


def run_moments(k_max: int) -> dict:
    """Exact moment polynomials for k = 1..k_max."""
    from .oracles import moment_polynomials

    rows = [{"k": k, "counts": {str(g): c for g, c in sorted(row.items())}}
            for k, row in enumerate(moment_polynomials(k_max), start=1)]
    return {"command": "moments", "params": {"k_max": k_max}, "results": rows}


# e lies strictly between the (num, den) pairs _E_BELOW and _E_ABOVE:
# the Taylor sum of 1/j! for j <= _E_TERMS, and that sum plus
# 1/(_E_TERMS! _E_TERMS), which exceeds the rest of the series.  Their
# ratio is below 1 + 2**-66.
_E_TERMS = 20
_E_BELOW = (sum(math.factorial(_E_TERMS) // math.factorial(j)
                for j in range(_E_TERMS + 1)), math.factorial(_E_TERMS))
_E_ABOVE = (_E_BELOW[0] * _E_TERMS + 1, _E_BELOW[1] * _E_TERMS)
_WINDOW = 5  # sizes summed on either side of the peak, plus 2 isqrt(n)


def _peak_sizes(n: int, k: int) -> set[int]:
    """The sizes N near the peak of run_sample's target terms.

    The terms of run_sample's target peak near the first N with
    N ln(N/n) >= k, where their spread, like the Poisson one at N = n,
    grows with sqrt(n).  The sizes are that N with the
    _WINDOW + 2 isqrt(n) sizes on either side, and N = n, each only up
    to 64 k, which bounds the work by the k of the run, not by n.  That
    N lies in n..n + k, since (n + k) ln(1 + k/n) >= k.
    """
    peak = bisect.bisect_left(range(n, n + k + 1), k,
                              key=lambda size: size * math.log(size / n)) + n
    window = _WINDOW + 2 * math.isqrt(n)
    sizes = range(max(peak - window, 0), min(peak + window, 64 * k) + 1)
    return {*sizes, n} if n <= 64 * k else {*sizes}


def _peak_terms(n: int, moments: dict[int, int]) -> tuple[int, int]:
    """(total, scale): a lower bound total / scale on sum P(N) m_N.

    moments maps sizes N to m_N = transformed_moment(N, k), and the sum
    runs over them.  n**k times run_sample's target is the sum of the
    terms P(N) m_N, P(N) = e**-n n**N / N!, over every size, none of
    them negative, so a sum over some sizes is a lower bound on it.
    With c/d = _E_ABOVE > e, e**-n > (d/c)**n within a factor
    (1 + 2**-66)**n.  So with M the largest size, the terms sum to more
    than sum_N n**N m_N (M! / N!) d**n / (M! c**n), in integers.
    """
    if not moments:
        return 0, 1
    c, d = (v ** n for v in _E_ABOVE)
    top = math.factorial(max(moments))
    return (d * sum(n ** size * m * (top // math.factorial(size))
                    for size, m in moments.items()),
            c * top)


def _target_overflows(n: int, k: int) -> bool:
    """True only if the exact target of run_sample is at least 2**1024.

    The target is a sum with no negative term: the moment is an even
    power sum of the real roots of He_(N+1).  So any partial sum is a
    lower bound, and so is the g = 0 coefficient Catalan(k) of
    moment_polynomial(k), whose coefficients are counts; Catalan(520)
    is the first Catalan number of 2**1024 or more, so every k >= 520
    overflows, at any n.  Row k's counts sit at 1/n**g, so the target
    is largest at n = 1, where it is their sum, below 2**1024 for every
    k <= 167.  The test suite checks both edges.  Only for
    168 <= k < 520 are the sizes near the peak (_peak_sizes) walked and
    their terms (_peak_terms) compared with 2**1024 exactly; a False
    answer there proves nothing.  run_sample asks before it samples, so
    an overflowing run exits without drawing a trial or computing the
    moment row.
    """
    if k >= 520:
        return True
    if k < 168:
        return False
    from .oracles import transformed_moment

    total, scale = _peak_terms(n, {size: transformed_moment(size, k)
                                   for size in _peak_sizes(n, k)})
    return total >= scale * n ** k << 1024


def _z_unsupported(n: int, k: int, trials: int, row: dict[int, int]) -> bool:
    """True only if half the target or more sits at sizes trials cannot see.

    row is moment_polynomial(k), {g: c_g}.  At the sizes N with
    trials * P(N) < 1 the trials are not expected to draw a single
    value, so their standard error says nothing about the distance to
    the terms there.  Of the sizes near the peak (_peak_sizes), those
    are the N with trials * n**N b**n < N! a**n, a/b = _E_BELOW < e.
    m_N is read off the row, m_N = sum_g c_g N(N-1)...(N-k+g+1), the
    falling-factorial identity moment_polynomials is built on, by
    Horner's rule in O(k) per size; _peak_terms bounds their share of
    the target exactly from below, without drawing a trial.
    """
    sizes = _peak_sizes(n, k)
    if not sizes:
        return False
    a, b = (v ** n for v in _E_BELOW)
    unseen = {}
    for size in sizes:
        if trials * n ** size * b < math.factorial(size) * a:
            m = 0
            for g in range(k + 1):
                m = m * (size - k + g) + row.get(g, 0)
            unseen[size] = m
    total, scale = _peak_terms(n, unseen)
    return 2 * total >= scale * sum(c * n ** (k - g) for g, c in row.items())


def run_sample(n: int, k: int, trials: int, seed: int = DEFAULT_SEED) -> dict:
    """Monte Carlo estimate of the 2k-th moment with its exact target.

    A target that _target_overflows proves at least 2**1024 raises
    OverflowError before any trial is drawn or the moment row is
    computed, whatever the trial count.  The target is the moment row of
    order 2k summed over 1/n**g, carried as the reduced int pair num/den
    and printed as str(Fraction) would print it; the int true division
    num / den rounds it correctly to a double, as float(Fraction) does.
    z is None (JSON null) when _z_unsupported proves, from the same row
    and before sampling, that half the target or more sits at sizes the
    trials cannot see.  Otherwise, with a zero
    standard error (every trial gave the same value) z is 0.0 when the
    estimate equals the target exactly, that is when its
    as_integer_ratio() is the reduced pair, and None otherwise, since no
    finite z-score describes that mismatch.
    """
    from .oracles import moment_polynomial
    from .sampler import mc_moment

    if _target_overflows(n, k):
        raise OverflowError("the exact target exceeds the double range")
    row = moment_polynomial(k) if k >= 1 else {0: 1}
    unsupported = _z_unsupported(n, k, trials, row)
    num = sum(c * n ** (k - g) for g, c in row.items())
    estimate, stderr = mc_moment(n, k, trials, seed)
    den = n ** k
    common = math.gcd(num, den)
    num, den = num // common, den // common
    if unsupported:
        z = None
    elif stderr > 0:
        z = (estimate - num / den) / stderr
    else:
        z = 0.0 if estimate.as_integer_ratio() == (num, den) else None
    return {"command": "sample",
            "params": {"n": n, "k": k, "trials": trials, "seed": seed},
            "results": [{"n": n, "k": k, "trials": trials,
                         "estimate": estimate, "stderr": stderr,
                         "predicted": f"{num}/{den}" if den > 1 else str(num),
                         "z": z}]}


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
    from .algebra import (
        POLY_C,
        NotFineStructure,
        PolyC,
        RationalFnC,
        SeriesX,
        catalan_number,
        catalan_series,
        expand_in_x,
        fine_structure_form,
        fine_structure_to_rational,
        theta_from_rows,
        theta_support_window,
    )
    from .ansatz import (
        chain_iterates,
        chain_shape_violations,
        g_series,
        y0_coefficient,
    )
    from .oracles import _word_rows, moment_polynomials, path_counts

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

    # Three-way moment agreement; the size rows past k_max feed the
    # rows route to theta below
    size_rows = moment_polynomials(max(k_max, 3 * g_max + 2))
    phi_series = {g: expand_in_x(phis[g], x_order) for g in range(g_max + 1)}
    for k, (size, word) in enumerate(zip(size_rows, _word_rows(k_max)),
                                     start=1):
        _check(checks, f"word vs size moments k={k}", size, word)
        for g in range(g_max + 1):
            _check(checks, f"pipeline coefficient k={k} g={g}",
                   size.get(g, 0),
                   phi_series[g].coefficient(2 * k))

    # Closed operator-chain shape, support window, round trip, and the
    # table solved from the size rows alone
    for g in range(1, g_max + 1):
        _check(checks, f"chain shape g={g}", [],
               chain_shape_violations(iterates[g], g))
        lo, hi = theta_support_window(g)
        _check(checks, f"support window g={g}", True,
               all(lo <= key <= hi for key in thetas[g]))
        _check(checks, f"normal form round trip g={g}", phis[g],
               fine_structure_to_rational(thetas[g], g))
        try:
            from_rows = theta_from_rows(_rook_column(size_rows, g), g)
        except NotFineStructure as exc:
            from_rows = str(exc)
        _check(checks, f"theta rows route g={g}", thetas[g], from_rows)

    # Generating functions against path counts
    imax = min(x_order, 12)
    paths = [path_counts(start, imax) for start in range(imax + 1)]
    # G at y = 0 is F: its plane j1 = 0 is F's grid, so F is expanded once
    ggrid = g_series(imax, imax, imax)
    _grid_check(checks, f"return-height series vs path counts (i<={imax})",
                [(i, j) for i in range(imax + 1) for j in range(imax + 1)
                 if ggrid[i][0][j] != paths[0][i].get(j, 0)])
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


def _integer(value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"invalid int value: {value!r}") from None


def _positive(value: str) -> int:
    n = _integer(value)
    if n < 1:
        raise ValueError("must be a positive integer")
    return n


def _poisson_mean(value: str) -> int:
    n = _positive(value)
    if n > POISSON_MEAN_MAX:
        raise ValueError(
            f"must be at most 2**53 = {POISSON_MEAN_MAX}: the Poisson draw "
            f"runs in double precision")
    return n


def _report_format(value: str) -> str:
    if value not in ("json", "tsv"):
        raise ValueError(f"invalid choice: {value!r} (choose from 'json', "
                         f"'tsv')")
    return value


def _write_report(fh, report: dict, output_format: str) -> None:
    """Write report to the text stream fh as JSON or TSV.

    The JSON goes out as json.dump streams it, chunk by chunk, the same
    bytes as json.dumps(report, indent=2) + "\n", so the whole text is
    never held in memory.
    """
    if output_format == "tsv":
        fh.write(_to_tsv(report))
    else:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def _write_atomic(path: str, report: dict, output_format: str) -> None:
    """Write the report to path whole or not at all.

    The report goes to a temporary file beside the target, which then
    replaces the target in one rename; a reader never sees a partial
    report, and an old target survives a failed write.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            _write_report(fh, report, output_format)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


# The command line.  Each option maps to (destination, converter,
# default, help); a converter of None marks a flag, which takes no value
# and stores True.  Every command also takes the _COMMON options and
# -h/--help (_HELP).
_COMMON = {
    "--format": ("output_format", _report_format, "json", "json or tsv"),
    "--out": ("out", str, None, "write the report here instead of stdout"),
}
_G_MAX = ("g_max", _positive, 4, "highest order g")
_K_MAX = ("k_max", _positive, 8, "highest moment index k")
_COMMANDS = {
    "theta": ("coefficient tables for g=1..g_max", {"--g-max": _G_MAX}),
    "phi": ("closed forms for g=0..g_max",
            {"--g-max": _G_MAX,
             "--dump-ansatz": ("dump_ansatz", None, False,
                               "include the operator-chain term sums "
                               "(JSON only)")}),
    "moments": ("exact moment polynomials k=1..k_max", {"--k-max": _K_MAX}),
    "verify": ("run all oracle and invariant checks",
               {"--g-max": _G_MAX, "--k-max": _K_MAX}),
    "sample": ("Monte Carlo check of one moment",
               {"--n": ("n", _poisson_mean, 2, "Poisson mean, at most 2**53"),
                "--k": ("k", _positive, 2, "the moment of order 2k"),
                "--trials": ("trials", _positive, 10000, "number of trials"),
                "--seed": ("seed", _integer, DEFAULT_SEED, "sampler seed")}),
}
_HELP = (None, None, None, "show this help and exit")
_DESCRIPTION = ("Exact Poissonized Plancherel moment expansions of the "
                "size-only measure\n(uniform on the roots of He_(N+1)), "
                "with combinatorial and Monte Carlo checks.")
_NEGATIVE = re.compile(r"-\d+|-\d*\.\d+")


def _options(command: str | None) -> dict:
    return {**_COMMANDS[command][1], **_COMMON} if command else {}


def _shown(option: str, entry: tuple) -> str:
    if entry[1] is None:
        return option
    return f"{option} {option[2:].upper().replace('-', '_')}"


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: ppmoments {" + ",".join(_COMMANDS) + "} [option ...]"
    return " ".join(["usage: ppmoments", command,
                     *(f"[{_shown(option, entry)}]"
                       for option, entry in _options(command).items())])


def _help(command: str | None) -> str:
    lines = [_usage(command), ""]
    if command is None:
        lines += [_DESCRIPTION, ""]

    def option_lines(options):
        for option, entry in options.items():
            _, convert, default, text = entry
            if convert is not None and default is not None:
                text = f"{text} (default {default})"
            lines.append(f"  {_shown(option, entry):<22}{text}")

    for name in [command] if command else _COMMANDS:
        summary, options = _COMMANDS[name]
        lines.append(f"{name:<9}{summary}")
        option_lines(options)
    lines.append("every command:")
    option_lines({**_COMMON, "-h, --help": _HELP})
    return "\n".join(lines) + "\n"


def _usage_error(command: str | None, message: str):
    sys.stderr.write(f"{_usage(command)}\nppmoments: error: {message}\n")
    raise SystemExit(2)


def _lookup(arg: str, command: str | None) -> tuple[str, str | None] | None:
    """(option, inline value) that arg names, or None if it names none.

    --name=value gives its value inline, and a unique prefix of a long
    option names it, as argparse allows.
    """
    if arg == "-h":
        return "--help", None
    if not arg.startswith("--") or arg == "--":
        return None
    name, eq, value = arg.partition("=")
    known = [*_options(command), "--help"]
    found = ([name] if name in known else
             [option for option in known if option.startswith(name)])
    if len(found) > 1:
        _usage_error(command, f"ambiguous option: {name} could match "
                              f"{', '.join(found)}")
    return (found[0], value if eq else None) if found else None


def _is_value(arg: str, command: str | None) -> bool:
    """True if arg is read as a value, not as an option, as in argparse.

    A token that names no option is a value if it is not dash-led, is a
    lone dash, looks like a negative number or holds a space.
    """
    return _lookup(arg, command) is None and (
        not arg.startswith("-") or arg == "-" or " " in arg
        or _NEGATIVE.fullmatch(arg) is not None)


def _parse_args(argv: list[str]) -> dict:
    """The command and its option values from argv, as argparse read it.

    The command comes first; a repeated option keeps its last value.  A
    usage error prints the usage line and one `ppmoments: error:` line
    and exits 2; -h or --help prints the help and exits 0.  Options are
    converted in order, and an unrecognized argument is reported only
    after the rest, so -h still answers after one.
    """
    command, args, stray = None, {}, []
    i = 0
    while i < len(argv):
        arg = argv[i]
        i += 1
        found = _lookup(arg, command)
        if found is None:
            if command is not None or not _is_value(arg, command):
                stray.append(arg)
                continue
            if arg not in _COMMANDS:
                _usage_error(None, f"argument command: invalid choice: "
                                   f"{arg!r} (choose from "
                                   f"{', '.join(map(repr, _COMMANDS))})")
            command = arg
            args = {dest: default
                    for dest, _, default, _ in _options(command).values()}
            continue
        option, value = found
        dest, convert, _, _ = _options(command).get(option, _HELP)
        if convert is None and value is not None:
            _usage_error(command, f"argument {option}: ignored explicit "
                                  f"argument {value!r}")
        if option == "--help":
            sys.stdout.write(_help(command))
            raise SystemExit(0)
        if convert is None:
            args[dest] = True
            continue
        if value is None:
            if i == len(argv) or not _is_value(argv[i], command):
                _usage_error(command,
                             f"argument {option}: expected one argument")
            value = argv[i]
            i += 1
        try:
            args[dest] = convert(value)
        except ValueError as exc:
            _usage_error(command, f"argument {option}: {exc}")
    if command is None:
        _usage_error(None, "the following arguments are required: command")
    if stray:
        _usage_error(command, f"unrecognized arguments: {' '.join(stray)}")
    args["command"] = command
    return args


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    command, output_format, out = (args["command"], args["output_format"],
                                   args["out"])
    if args.get("dump_ansatz") and output_format == "tsv":
        _usage_error(command,
                     "phi --dump-ansatz has no TSV form; use --format json")
    if command == "theta":
        report = run_theta(args["g_max"])
    elif command == "phi":
        report = run_phi(args["g_max"], args["dump_ansatz"])
    elif command == "moments":
        report = run_moments(args["k_max"])
    elif command == "verify":
        report = run_verify(args["g_max"], args["k_max"])
    else:
        try:
            report = run_sample(args["n"], args["k"], args["trials"],
                                args["seed"])
        except OverflowError:
            print(f"ppmoments: --k {args['k']} is too large at --n "
                  f"{args['n']}: the moment exceeds the double-precision "
                  f"range", file=sys.stderr)
            return 2

    if out:
        try:
            _write_atomic(out, report, output_format)
        except OSError as exc:
            print(f"ppmoments: cannot write {out}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
    else:
        _write_report(sys.stdout, report, output_format)

    if command == "verify" and not report["passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
