"""Command-line interface: exact tables, oracle verification, sampling runs.

Commands
  theta    coefficient tables and closed forms for orders 1..g_max, solved
           (theta_from_rows) from the moment rows of the
           falling-factorial walk; the operator chain, which verify
           walks, does not run
  phi      closed forms only, read off the same rows; the operator chain
           runs only for the raw term-sum dump (--dump-ansatz)
  moments  exact moment polynomials in 1/n for orders up to k_max
  verify   cross-check pipeline, combinatorial oracles and invariants:
           the falling-factorial walk's rows against the word walk's
           and the chain's, and the theta tables of both routes, the
           chain's and the rows' (rows to k = max(k_max, 3 g_max + 2),
           one walk)
  sample   Monte Carlo estimate of one moment against its exact value

A command is one _COMMANDS entry: its summary, its options, whose
destinations are the parameters of its runner, and its TSV layout.
main finds the runner, run_<command>, in this module's namespace when
it runs, so a rebound or monkeypatched run_* takes effect.

Exit codes: 0 success / verification passed (and -h/--help), 1 a
report with "passed": false (a verification mismatch), 2 usage error
(the usage line and one "ppmoments: error: ..." line on stderr), a
failed --out write, a failed write of the report or the help to stdout
(a pipe whose reader has gone, a full device, fd 1 closed) or a sampled
moment beyond double precision; each but the usage error prints one
"ppmoments: ..." line on stderr.  Reports are deterministic for a fixed
configuration, including the seed.

No command loads json: a report is written by this module's own
encoder, as JSON (_json_chunks) or TSV (_tsv_chunks), one results row
per write, to stdout (_write_stdout) or to the --out path
(_write_atomic).  Importing this module loads no other ppmoments
module: each command imports the ones it runs when it runs, and parses
its options with the sampler's two constants from the package itself.
Besides this module,

  theta, phi           algebra, oracles
  phi --dump-ansatz    algebra, ansatz, oracles
  moments              oracles
  sample               oracles, sampler
  verify               algebra, ansatz, oracles

One probe and one table in tests/test_cli.py hold this map and keep
argparse, fractions, json and every thread or process module out of
each command.
"""

from __future__ import annotations

import contextlib
import errno
import os
import re
import stat
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
    theta_from_rows needs, in one falling-factorial walk; each closed
    form re-expands its table.  verify checks both against the operator
    chain.
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


def run_sample(n: int, k: int, trials: int, seed: int = DEFAULT_SEED) -> dict:
    """Monte Carlo estimate of the 2k-th moment with its exact target.

    The numbers are sampler._checked_estimate's, by mc_moments' route;
    a target of 2**1024 or more raises OverflowError before any trial
    is drawn.  The target prints as str(Fraction) would print it,
    and a z no finite z-score can stand for is None (JSON null).
    """
    from .sampler import _checked_estimate

    estimate, stderr, num, den, z = _checked_estimate(n, k, trials, seed)
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

    # Three-way moment agreement; the rows past k_max feed the rows
    # route to theta below
    rows = moment_polynomials(max(k_max, 3 * g_max + 2))
    phi_series = {g: expand_in_x(phis[g], x_order) for g in range(g_max + 1)}
    for k, (row, word) in enumerate(zip(rows, _word_rows(k_max)), start=1):
        _check(checks, f"word vs size moments k={k}", row, word)
        for g in range(g_max + 1):
            _check(checks, f"pipeline coefficient k={k} g={g}",
                   row.get(g, 0),
                   phi_series[g].coefficient(2 * k))

    # Closed operator-chain shape, support window, round trip, and the
    # table solved from the moment rows alone
    for g in range(1, g_max + 1):
        _check(checks, f"chain shape g={g}", [],
               chain_shape_violations(iterates[g], g))
        lo, hi = theta_support_window(g)
        _check(checks, f"support window g={g}", True,
               all(lo <= key <= hi for key in thetas[g]))
        _check(checks, f"normal form round trip g={g}", phis[g],
               fine_structure_to_rational(thetas[g], g))
        try:
            from_rows = theta_from_rows(_rook_column(rows, g), g)
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


def _path(value: str) -> str:
    if not value:
        raise ValueError("expected a path, not an empty string")
    return value


def _report_format(value: str) -> str:
    if value not in ("json", "tsv"):
        raise ValueError(f"invalid choice: {value!r} (choose from 'json', "
                         f"'tsv')")
    return value


def _quoted(s: str) -> str:
    """s in quotes, as json.dumps writes a report string.

    Every report string, a name, a value rendered as text or an int or
    ratio as text, is printable ASCII (" " to "~") with no '"' and no
    backslash, which json.dumps writes as it stands.  Any other s
    raises ValueError.
    """
    if not (s.isascii() and s.isprintable()) or '"' in s or "\\" in s:
        raise ValueError(f"not a report string: {s!r}")
    return f'"{s}"'


def _encode(value, indent: str, parts: list[str]) -> None:
    """Append the JSON text of value to parts, as json.dumps(indent=2).

    indent is the newline and the indentation of the line on which
    value starts.  value holds only what a report holds: dicts with str
    keys, lists, str, bool, None, int and float.  Numbers are written by
    int.__repr__ and float.__repr__, as json writes them; a bool is
    tested before int, of which it is a subclass.
    """
    if isinstance(value, str):
        parts.append(_quoted(value))
    elif isinstance(value, (dict, list)):
        if not value:
            parts.append("{}" if isinstance(value, dict) else "[]")
            return
        inner = indent + "  "
        if isinstance(value, dict):
            sep = "{" + inner
            for key, item in value.items():
                parts += sep, _quoted(key), ": "
                _encode(item, inner, parts)
                sep = "," + inner
            parts.append(indent + "}")
        else:
            sep = "[" + inner
            for item in value:
                parts.append(sep)
                _encode(item, inner, parts)
                sep = "," + inner
            parts.append(indent + "]")
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    else:
        parts.append(float.__repr__(value))


def _json_chunks(report: dict):
    """Yield json.dumps(report, indent=2) and a newline, in chunks.

    The text up to the results list is one chunk, each of its rows is
    one, and the closing brackets are one.  Written a chunk at a time,
    the whole text is never held in memory, and a reader that has gone
    fails the write of the row it stops at.
    """
    parts = []
    sep = "{\n  "
    for key, value in report.items():
        parts += sep, _quoted(key), ": "
        sep = ",\n  "
        if key != "results" or not value:
            _encode(value, "\n  ", parts)
            continue
        parts.append("[")
        yield "".join(parts)
        row_sep = "\n    "
        for row in value:
            parts = [row_sep]
            _encode(row, "\n    ", parts)
            yield "".join(parts)
            row_sep = ",\n    "
        parts = ["\n  ]"]
    parts.append("\n}\n")
    yield "".join(parts)


def _tsv_chunks(report: dict):
    """Yield the command's TSV layout as _json_chunks yields JSON: the
    header line, then the lines of each result row, None printed as null."""
    _, _, columns, lines_of = _COMMANDS[report["command"]]
    yield "\t".join(columns) + "\n"
    for row in report["results"]:
        yield "".join("\t".join("null" if v is None else str(v) for v in line)
                      + "\n" for line in lines_of(row))


def _write_atomic(path: str, chunks) -> None:
    """Write a report's chunks to path, whole or not at all if a file.

    Each chunk is one write (writelines).  A regular file or a missing
    path is written through a temporary file beside it, which then
    replaces it in one rename; a reader never sees a partial report, and
    an old file survives a failed write.  Any other path, such as a
    device, a FIFO or a symbolic link, is opened and written in place,
    and a link is written through.
    """
    try:
        in_place = not stat.S_ISREG(os.lstat(path).st_mode)
    except FileNotFoundError:
        in_place = False
    if in_place:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


# The command line.  Each command maps to (summary, options, TSV columns,
# TSV lines of one result row).  Each option maps to (destination,
# converter, default, help); the destination is the parameter of
# run_<command> that takes its value.  A converter of None marks a flag,
# which takes no value and stores True.  Every command also takes the
# _COMMON options, which main keeps for itself, and -h/--help (_HELP).
_COMMON = {
    "--format": ("output_format", _report_format, "json", "json or tsv"),
    "--out": ("out", _path, None, "write the report here instead of stdout"),
}
_G_MAX = ("g_max", _positive, 4, "highest order g")
_K_MAX = ("k_max", _positive, 8, "highest moment index k")
_COMMANDS = {
    "theta": ("coefficient tables for g=1..g_max", {"--g-max": _G_MAX},
              ("g", "k", "theta"),
              lambda row: [(row["g"], k, v) for k, v in row["theta"].items()]),
    "phi": ("closed forms for g=0..g_max",
            {"--g-max": _G_MAX,
             "--dump-ansatz": ("dump_ansatz", None, False,
                               "include the operator-chain term sums "
                               "(JSON only)")},
            ("g", "num", "den"),
            lambda row: [(row["g"], ",".join(row["phi"]["num"]),
                          ",".join(row["phi"]["den"]))]),
    "moments": ("exact moment polynomials k=1..k_max", {"--k-max": _K_MAX},
                ("k", "g", "count"),
                lambda row: [(row["k"], g, v)
                             for g, v in row["counts"].items()]),
    "verify": ("run all oracle and invariant checks",
               {"--g-max": _G_MAX, "--k-max": _K_MAX},
               ("check", "pass", "expected", "actual"),
               lambda row: [(row["check"], "pass" if row["pass"] else "FAIL",
                             row["expected"], row["actual"])]),
    "sample": ("Monte Carlo check of one moment",
               {"--n": ("n", _poisson_mean, 2, "Poisson mean, at most 2**53"),
                "--k": ("k", _positive, 2, "the moment of order 2k"),
                "--trials": ("trials", _positive, 10000, "number of trials"),
                "--seed": ("seed", _integer, DEFAULT_SEED, "sampler seed")},
               ("n", "k", "trials", "estimate", "stderr", "predicted", "z"),
               lambda row: [row.values()]),
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
        summary, options, _, _ = _COMMANDS[name]
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
            raise SystemExit(_write_stdout([_help(command)]))
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


def _write_stdout(chunks) -> int:
    """Write chunks to sys.stdout and flush it: 0, or 2 if that fails.

    Each chunk is one write (writelines): a report's, or the help text
    as one chunk.  A failed write, from a reader that has gone
    (BrokenPipeError), a full device or no stdout at all (sys.stdout is
    None when fd 1 was closed at start), prints one "ppmoments: cannot
    write stdout:" line on stderr.  fd 1 then goes to the null device,
    as the Python docs advise for a broken pipe, so the flush at exit
    cannot raise again.
    """
    try:
        if sys.stdout is None:
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except OSError as exc:
        if sys.stdout is not None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"ppmoments: cannot write stdout: {exc.strerror}",
              file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    command = args.pop("command")
    output_format, out = args.pop("output_format"), args.pop("out")
    if args.get("dump_ansatz") and output_format == "tsv":
        _usage_error(command,
                     "phi --dump-ansatz has no TSV form; use --format json")
    try:
        report = globals()[f"run_{command}"](**args)
    except OverflowError:
        if command != "sample":
            raise
        print(f"ppmoments: --k {args['k']} is too large at --n "
              f"{args['n']}: the moment exceeds the double-precision "
              f"range", file=sys.stderr)
        return 2

    chunks = (_tsv_chunks if output_format == "tsv" else _json_chunks)(report)
    if out is not None:
        try:
            _write_atomic(out, chunks)
        except OSError as exc:
            print(f"ppmoments: cannot write {out}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
    elif _write_stdout(chunks):
        return 2

    return 0 if report.get("passed", True) else 1


if __name__ == "__main__":
    sys.exit(main())
