"""Spans around the names one foarith module imports from another.

The wrapping is done from outside the program: the attribute a module
looks up at call time (``foarith.cli.scan``, ``foarith.kernel.free_vars``,
...) is replaced by a timing wrapper, so ``src/`` stays untouched.  Calls
a module makes to its own helpers are not traced, which keeps recursive
traversals from opening a span per node.

Each span records its id, the id of the span that caused it, the request
it belongs to, its name, start and end.  Spans stay in memory until the
worker writes them out.  A span's self time is its duration minus the
time its child spans cover; the bookkeeping of a child's hooks is charged
to neither.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import re
import resource
import time
from collections import Counter, defaultdict

_NOT_PARENS = re.compile(r"[^()]+")


def nesting(text):
    """Deepest parenthesis nesting in a formula text."""
    depth = deepest = 0
    for ch in _NOT_PARENS.sub("", text):
        if ch == "(":
            depth += 1
            deepest = max(deepest, depth)
        else:
            depth -= 1
    return deepest


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# counters taken at the span boundaries


def _parse_wff(tracer, args, kwargs, result, error, before):
    tracer.maxima["syntax.max_depth"] = max(
        tracer.maxima.get("syntax.max_depth", 0), nesting(args[0]))


def _parse_proof_file(tracer, args, kwargs, result, error, before):
    if result is not None:
        tracer.counters["proofio.parse_proof_file.lines"] += len(result.lines)


def _check_proof(tracer, args, kwargs, result, error, before):
    tracer.counters["kernel.check_proof.lines"] += len(args[0].lines)


def _resolve_unknowns(tracer, args, kwargs, result, error, before):
    proof = args[0]
    asked = [k for k, line in enumerate(proof.lines)
             if type(line.justification).__name__ == "Unknown"]
    c = tracer.counters
    c["kernel.resolve_unknowns.lines"] += len(proof.lines)
    tracer.sizes["kernel.resolve_unknowns"].append(len(proof.lines))
    c["kernel.resolve_unknowns.asked"] += len(asked)
    if result is None:
        return
    c["kernel.resolve_unknowns.resolved"] += len(asked) - len(result.failures)
    if result.proof is not None:
        for k in asked:
            kind = type(result.proof.lines[k].justification).__name__
            c["kernel.just." + {"ProperAxiom": "ax", "Scheme": "scheme",
                                "MP": "mp", "Gen": "gen"}[kind]] += 1


def _scan(tracer, args, kwargs, result, error, before):
    limit = args[0]
    tracer.sizes["goldbach.scan"].append(limit)
    c = tracer.counters
    c["goldbach.scan.evens"] += max(0, (limit - 16) // 2 + 1)
    if result is not None:
        c["goldbach.scan.members"] += len(result.members)
    tracer.sums["goldbach.scan.rss_rise_mb"] += _rss_mb() - before


def _eval_bounded(tracer, args, kwargs, result, error, before):
    tracer.counters["models.eval_bounded.domain_sum"] += kwargs["bound"] + 1
    if result is not None:
        tracer.counters["models.verdicts." + result.truth.value] += 1


# (span name, the attributes it wraps, hook run after each call, hook run before)
SPANS = (
    ("cli.run", ("foarith.cli:run",), None, None),
    ("proofio.parse_proof_file", ("foarith.cli:parse_proof_file",), _parse_proof_file, None),
    ("proofio.format_proof", ("foarith.cli:format_proof",), None, None),
    ("syntax.parse_wff", ("foarith.cli:parse_wff", "foarith.proofio:parse_wff"),
     _parse_wff, None),
    ("syntax.lower", ("foarith.cli:lower", "foarith.proofio:lower"), None, None),
    ("syntax.print_wff", ("foarith.cli:print_wff", "foarith.proofio:print_wff"), None, None),
    ("syntax.free_vars", ("foarith.kernel:free_vars", "foarith.models:free_vars"), None, None),
    ("syntax.is_core", ("foarith.kernel:is_core", "foarith.models:is_core"), None, None),
    ("syntax.match_substitution_result", ("foarith.kernel:match_substitution_result",),
     None, None),
    ("kernel.check_proof", ("foarith.cli:check_proof",), _check_proof, None),
    ("kernel.resolve_unknowns", ("foarith.cli:resolve_unknowns",), _resolve_unknowns, None),
    ("kernel.recognize_scheme", ("foarith.kernel:recognize_scheme",), None, None),
    ("goldbach.scan", ("foarith.cli:scan",), _scan, lambda args, kwargs: _rss_mb()),
    ("goldbach.ScanReport.to_json_dict", ("foarith.goldbach:ScanReport.to_json_dict",),
     None, None),
    ("goldbach.ScanReport.to_csv", ("foarith.goldbach:ScanReport.to_csv",), None, None),
    ("goldbach.partitions", ("foarith.cli:partitions",), None, None),
    ("models.check_axioms", ("foarith.cli:check_axioms",), None, None),
    ("models.eval_bounded", ("foarith.cli:eval_bounded", "foarith.models:eval_bounded"),
     _eval_bounded, None),
    ("arith.goldbach_sentence", ("foarith.cli:goldbach_sentence",), None, None),
)


class Tracer:
    def __init__(self):
        self.names = [name for name, *_ in SPANS]
        self.spans = []
        self.stack = []
        self.request = 0
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counters = Counter()
        self.maxima = {}
        self.sums = defaultdict(float)
        self.sizes = defaultdict(list)
        self._last_recursion_error = None
        self._ids = itertools.count()

    def wrap(self, index, fn, after, before):
        name = self.names[index]
        is_syntax = name.startswith("syntax.")
        clock = time.perf_counter
        stack = self.stack
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = clock()
            state = before(args, kwargs) if before is not None else None
            frame = [0.0, next(ids)]
            stack.append(frame)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += end - start - frame[0]
                parent = stack[-1] if stack else None
                self.spans.append((frame[1], parent[1] if parent else None,
                                   self.request, index, start, end))
                if (is_syntax and isinstance(error, RecursionError)
                        and error is not self._last_recursion_error):
                    self._last_recursion_error = error
                    self.counters["syntax.recursion_errors"] += 1
                if after is not None:
                    after(self, args, kwargs, result, error, state)
                if parent is not None:
                    parent[0] += clock() - enter
        return traced

    def install(self):
        """Replace every traced attribute with its wrapper."""
        for index, (_, targets, after, before) in enumerate(SPANS):
            for target in targets:
                module, path = target.split(":")
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                setattr(owner, attr, self.wrap(index, getattr(owner, attr), after, before))

    def summary(self):
        out = {}
        for name in self.names:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counters)
        out.update(self.maxima)
        out.update(self.sums)
        return out

    def sized_calls(self):
        """{name: [[input size, seconds], ...]} for spans that record a size."""
        out = {}
        for name, sizes in self.sizes.items():
            index = self.names.index(name)
            durations = [end - start for *_, i, start, end in self.spans if i == index]
            out[name] = [list(pair) for pair in zip(sizes, durations)]
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "request", "name", "start", "end"],
                       "names": self.names, "spans": self.spans}, fh)
