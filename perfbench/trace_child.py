"""Run one ppmoments CLI invocation with span tracing around each layer.

Usage (from the benchmark, never imported by the library):

    python3 -I perfbench/trace_child.py SRC_DIR SPANS_FILE CLI_ARG...

The public functions of ppmoments.cli, ansatz, algebra, oracles and
sampler named in SPANS are rebound, in every ppmoments module that holds
them, to wrappers that record one span per call: name, label, start, end
and the index of the enclosing span.  Constructions of fractions.Fraction
are counted, not spanned.  Spans stay in memory until the CLI returns;
then SPANS_FILE receives one JSON line of metadata followed by the raw
span arrays, and the process exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter


class Tracer:
    """Spans in parallel arrays; one open-span stack for the one thread."""

    def __init__(self):
        self.names: list[str] = []
        self.prefixes: dict[str, str] = {}
        self.name_ids = array("H")
        self.labels = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.stack: list[int] = [-1]
        self.terms: dict[int, int] = {}
        self.order = 0  # order g of the last chain iterate produced
        self.fractions = 0

    def wrap(self, name, fn, prefix="", label=None, on_return=None):
        self.prefixes[name] = prefix
        nid = len(self.names)
        self.names.append(name)
        name_ids, labels, parents = self.name_ids, self.labels, self.parents
        starts, ends, stack = self.starts, self.ends, self.stack

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            labels.append(label(*args, **kwargs) if label else 0)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if on_return:
                on_return(result, labels[idx])
            return result

        return traced

    def count_fractions(self, fraction_type):
        new = fraction_type.__new__

        def counted(cls, *args, **kwargs):
            self.fractions += 1
            return new(cls, *args, **kwargs)

        fraction_type.__new__ = staticmethod(counted)

    def record_iterate(self, result, g):
        self.terms[g] = len(result)
        self.order = g

    def write(self, path):
        meta = {"names": self.names,
                "prefixes": self.prefixes,
                "spans": len(self.starts),
                "terms": self.terms,
                "fraction_new_calls": self.fractions}
        with open(path, "wb") as fh:
            fh.write(json.dumps(meta).encode() + b"\n")
            for arr in (self.name_ids, self.labels, self.starts, self.ends,
                        self.parents):
                arr.tofile(fh)


def spans(tracer):
    """(owner, attribute, span name, label prefix, label, on_return)."""
    import ppmoments.algebra as algebra
    import ppmoments.ansatz as ansatz
    import ppmoments.cli as cli
    import ppmoments.oracles as oracles
    import ppmoments.sampler as sampler

    return [
        (cli, "main", "cli.main", "", None, None),
        (cli, "run_theta", "cli.run_theta", "", None, None),
        (cli, "run_phi", "cli.run_phi", "", None, None),
        (cli, "run_moments", "cli.run_moments", "", None, None),
        (cli, "run_verify", "cli.run_verify", "", None, None),
        (cli, "run_sample", "cli.run_sample", "", None, None),
        (ansatz, "phi", "ansatz.phi", "g", lambda g: g, None),
        (ansatz, "operator_chain", "ansatz.operator_chain", "g",
         lambda r: r, None),
        (ansatz, "g_apply", "ansatz.g_apply", "g", lambda k, s: k + 1,
         tracer.record_iterate),
        (ansatz, "y0_coefficient", "ansatz.y0_coefficient", "g",
         lambda s: tracer.order, None),
        (algebra, "fine_structure_form", "algebra.fine_structure_form", "g",
         lambda f, g: g, None),
        (algebra, "expand_in_x", "algebra.expand_in_x", "", None, None),
        (oracles, "moment_polynomial", "oracles.moment_polynomial", "k",
         lambda k: k, None),
        (oracles, "word_moment", "oracles.word_moment", "k",
         lambda k: k, None),
        (oracles, "enum_paths", "oracles.enum_paths", "", None, None),
        (sampler.RngState, "split", "sampler.split", "", None, None),
        (sampler, "poisson_sample", "sampler.poisson", "", None, None),
        (sampler.RngState, "shuffle", "sampler.shuffle", "", None, None),
        (sampler, "rsk_shape", "sampler.rsk", "", None, None),
        (sampler, "transformed_moment", "sampler.moment_lookup", "", None,
         None),
    ]


def install(tracer):
    """Rebind each spanned function wherever a ppmoments module holds it."""
    import fractions

    modules = [m for key, m in sys.modules.items()
               if key == "ppmoments" or key.startswith("ppmoments.")]
    for owner, attr, name, prefix, label, on_return in spans(tracer):
        original = getattr(owner, attr)
        traced = tracer.wrap(name, original, prefix, label, on_return)
        if isinstance(owner, type):
            setattr(owner, attr, traced)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
    tracer.count_fractions(fractions.Fraction)


def main(argv):
    src, spans_path, *cli_args = argv
    sys.path.insert(0, src)
    import ppmoments.cli

    tracer = Tracer()
    install(tracer)
    code = ppmoments.cli.main(cli_args)
    tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
