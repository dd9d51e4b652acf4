"""Seeded request generators for the two workloads.

``proof`` sends ``parse``, ``check`` and ``discover``: the syntax, proofio
and kernel layers.  ``arith`` sends ``goldbach scan`` (text, JSON, CSV),
``goldbach partitions``, ``model axioms``, ``model eval`` and ``sentence
goldbach``: the goldbach, models and arith layers.  Each workload
bypasses the layers the other one loads, so a change to one side should
leave the other workload's figures unchanged.

A workload's seed gives one set of 100 distinct requests, which the
worker sends again in every round of a run.  Every set has the same
layout of five groups, by expected cost:

    ranks   1-40   small requests of many kinds and sizes
    ranks  41-60   the median group: twenty requests of one kind and size
    ranks  61-84   mid-size requests of several kinds
    ranks  85-95   the 90th-percentile group: eleven of one kind and size
    ranks  96-100  the largest requests, and the inputs that fail today

so the 50th and 90th percentiles (ranks 50 and 90) fall in the middle
of a group of like requests on every seed, instead of on a boundary
between unlike ones.  Seeds change the formulas, proofs, limits and
models (sizes carry a small seeded jitter) but not the layout, so the
share of inputs that fail today is the same on every seed.  The set is
shuffled once.

Each request is a dict with the argv a user would type, the exit code
the program must return, what its stdout must be, and the group it was
built for.  The expected outputs come from the benchmark's own oracles
(fol.py and the sieve below), never from the program.
"""

from __future__ import annotations

import hashlib
import math
import os
import random

import numpy as np

import fol

def ladder(lo, hi, count):
    """count log-spaced values from lo to hi."""
    step = (hi / lo) ** (1 / (count - 1))
    return [lo * step ** k for k in range(count)]


def jitter(rng, value, share):
    return max(1, round(value * rng.uniform(1 - share, 1 + share)))


# ---------------------------------------------------------------------------
# random formulas


def random_term(rng, depth, vars_):
    if depth == 0 or rng.random() < 0.4:
        return rng.choice([fol.ZERO, fol.ONE] + [fol.var(v) for v in vars_])
    kind = rng.randrange(3)
    if kind == 0:
        return fol.succ(random_term(rng, depth - 1, vars_))
    a, b = random_term(rng, depth - 1, vars_), random_term(rng, depth - 1, vars_)
    return fol.plus(a, b) if kind == 1 else fol.times(a, b)


def random_wff(rng, depth, vars_, surface=False):
    if depth == 0 or rng.random() < 0.3:
        return fol.eq(random_term(rng, 1, vars_), random_term(rng, 1, vars_))
    kinds = ("~", "->", "all", "ex", "&", "|", "<->") if surface else ("~", "->", "all", "all")
    kind = rng.choice(kinds)
    if kind == "~":
        return fol.neg(random_wff(rng, depth - 1, vars_, surface))
    if kind in ("all", "ex"):
        return (kind, rng.choice(vars_), random_wff(rng, depth - 1, vars_, surface))
    return (kind, random_wff(rng, depth - 1, vars_, surface),
            random_wff(rng, depth - 1, vars_, surface))


def formula_of_length(rng, length, vars_):
    """A random surface formula whose text is close to ``length`` characters.

    Small random formulas are joined pairwise at random positions, so the
    shape varies while the size stays on its rung.  ``<->`` appears only
    inside the small parts, which keeps the lowered form near the input's
    size.
    """
    parts = []
    total = 0
    while total < length:
        parts.append(random_wff(rng, 2, vars_, surface=True))
        total += len(fol.text(parts[-1])) + 6
    while len(parts) > 1:
        k = rng.randrange(len(parts) - 1)
        joined = (rng.choice(("->", "&", "|")), parts[k], parts[k + 1])
        if rng.random() < 0.2:
            joined = (rng.choice(("all", "ex")), rng.choice(vars_), joined)
        parts[k:k + 2] = [joined]
    return parts[0]


def _with_x1(rng):
    """A formula with x1 free, over x1 and x2, holding small numerals."""
    left = fol.plus(fol.var(1), fol.numeral(rng.randrange(6)))
    right = rng.choice([fol.numeral(rng.randrange(12)), random_term(rng, 1, (1, 2))])
    body = fol.eq(left, right)
    if rng.random() < 0.5:
        body = fol.imp(body, random_wff(rng, 1, (1, 2)))
    return body


def scheme_instance(rng, scheme):
    """A random instance of the scheme, checked with the benchmark's matcher."""
    while True:
        a = random_wff(rng, 2, (2, 3))
        b = random_wff(rng, 1, (2, 3))
        if scheme == "K1":
            w = fol.imp(a, fol.imp(b, a))
        elif scheme == "K2":
            c = random_wff(rng, 1, (2, 3))
            w = fol.imp(fol.imp(a, fol.imp(b, c)),
                        fol.imp(fol.imp(a, b), fol.imp(a, c)))
        elif scheme == "K3":
            w = fol.imp(fol.imp(fol.neg(a), fol.neg(b)), fol.imp(b, a))
        elif scheme == "K4":
            w = fol.imp(fol.forall(1, a), a)
        elif scheme == "K5":
            body = _with_x1(rng)
            t = (fol.numeral(rng.randrange(40)) if rng.random() < 0.7
                 else random_term(rng, 1, (2, 3)))
            w = fol.imp(fol.forall(1, body), fol.subst(body, 1, t))
        elif scheme == "K6":
            body = _with_x1(rng)
            w = fol.imp(fol.forall(1, fol.imp(a, body)), fol.imp(a, fol.forall(1, body)))
        else:
            body = _with_x1(rng)
            step = fol.forall(1, fol.imp(body, fol.subst(body, 1, fol.succ(fol.var(1)))))
            w = fol.imp(fol.subst(body, 1, fol.ZERO), fol.imp(step, fol.forall(1, body)))
        if fol.is_instance(scheme, w):
            return w


# ---------------------------------------------------------------------------
# proofs


EXTRA_AXIOMS = (
    ("refl", fol.forall(1, fol.eq(fol.var(1), fol.var(1)))),
    ("succ-ne", fol.forall(1, fol.neg(fol.eq(fol.succ(fol.var(1)), fol.var(1))))),
)
# Earlier lines longer than this are not reused as MP premises, so nested
# K1 layers cannot double a line's length without limit.
_MAX_PREMISE_CHARS = 500


def random_proof(rng, n_lines):
    """(theory, extension axioms, [(formula, text, justification)]).

    Lines are scheme instances, proper axioms, K1-then-MP layers over an
    earlier line, and generalizations, in the proportions of the kernel's
    own test corpus.  Every justification is valid as stated.
    """
    theory = "K" if rng.random() < 0.25 else "N"
    extras = EXTRA_AXIOMS if rng.random() < 0.3 else ()
    table = fol.THEORY_AXIOMS[theory] + extras
    schemes = fol.THEORY_SCHEMES[theory]
    lines = []
    premises = []

    def add(w, just):
        t = fol.text(w)
        lines.append((w, t, just))
        if len(t) <= _MAX_PREMISE_CHARS:
            premises.append(len(lines))

    while len(lines) < n_lines:
        roll = rng.random()
        if roll < 0.4 or not premises:
            scheme = rng.choice(schemes)
            add(scheme_instance(rng, scheme), scheme)
        elif roll < 0.5 and table:
            name, w = rng.choice(table)
            add(w, f"AX {name}")
        elif roll < 0.85:
            i = rng.choice(premises)
            x = lines[i - 1][0]
            b = random_wff(rng, 1, (2, 3))
            add(fol.imp(x, fol.imp(b, x)), "K1")
            add(fol.imp(b, x), f"MP {i} {len(lines)}")
        else:
            i = rng.choice(premises)
            v = rng.choice((1, 2))
            add(fol.forall(v, lines[i - 1][0]), f"GEN {i} x{v}")
    return theory, extras, lines[:n_lines]


# The cost of checking or searching a proof follows its length in
# characters, which varies several-fold between random proofs with the
# same number of lines.
TYPICAL_OF = 7


def typical_proof(rng, n_lines):
    """The random proof of median text length among TYPICAL_OF draws.

    Like-sized requests then cost alike, so a percentile that falls in a
    group of them does not move with the seed.
    """
    draws = [random_proof(rng, n_lines) for _ in range(TYPICAL_OF)]
    draws.sort(key=lambda proof: sum(len(t) for _, t, _ in proof[2]))
    return draws[TYPICAL_OF // 2]


def proof_file(theory, extras, numbered):
    """File text for lines given as (text, justification) pairs."""
    out = [f"axiom {name}: {fol.text(w)}" for name, w in extras]
    out.append(f"theory: {theory}")
    out.extend(f"{k}. {t} ; {just}" for k, (t, just) in enumerate(numbered, 1))
    return "\n".join(out) + "\n"


def discover_expectation(theory, extras, lines, given):
    """Exit code and stdout of ``foarith discover`` by the first-hit oracle.

    ``given`` holds, per line, the stated justification or "?".
    """
    search = fol.Discovery(theory, extras)
    found = []
    failures = []
    for k, ((w, t, _), just) in enumerate(zip(lines, given), 1):
        if just == "?":
            just = search.justify(w, t)
            if just is None:
                failures.append(f"line {k}: "
                                + (fol.UNJUSTIFIED_FIRST if k == 1 else fol.UNJUSTIFIED))
        found.append((t, just))
        search.add(t)
    if failures:
        return 1, "".join(f + "\n" for f in failures)
    return 0, proof_file(theory, extras, found)


# ---------------------------------------------------------------------------
# request builders


GROUP_SIZES = {"small": 40, "median": 20, "mid": 24, "p90": 11, "top": 5}


class Files:
    """Writes generated inputs under one directory, named by a counter."""

    def __init__(self, root):
        self.root = root
        self.count = 0
        os.makedirs(root, exist_ok=True)

    def write(self, suffix, content):
        self.count += 1
        path = os.path.join(self.root, f"in{self.count:05d}.{suffix}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
        return path


def _text(argv, stdout, exit_code=0):
    return {"argv": argv, "exit": exit_code, "expect": {"kind": "text", "stdout": stdout}}


def _json(argv, fields):
    return {"argv": argv, "exit": 0, "expect": {"kind": "json", "fields": fields}}


def assemble(rng, groups):
    """Label each group's requests, check the layout, and shuffle the set."""
    reqs = []
    for group, members in groups.items():
        if len(members) != GROUP_SIZES[group]:
            raise ValueError(f"group {group} has {len(members)} requests, "
                             f"not {GROUP_SIZES[group]}")
        for request in members:
            request["group"] = group
            reqs.append(request)
    rng.shuffle(reqs)
    return reqs


class CheckRequests:
    """``parse`` of formulas and numeral equations, ``check`` of proofs."""

    def __init__(self, files):
        self.files = files

    def check(self, rng, lines, as_json):
        n = jitter(rng, lines, 0.03)
        theory, extras, proof = typical_proof(rng, n)
        path = self.files.write("proof", proof_file(
            theory, extras, [(t, just) for _, t, just in proof]))
        if as_json:
            return {"argv": ["--json", "check", path], "exit": 0,
                    "expect": {"kind": "check_json", "lines": n,
                               "theory": theory + ("*" if extras else "")}}
        return _text(["check", path], f"accepted ({n} lines)\n")

    def numeral(self, rng, depth):
        left = fol.numeral_text(depth)
        right = fol.numeral_text(rng.randrange(depth - depth // 10, depth + 1))
        return _text(["parse", f"{left} = {right}"], f"({left} = {right})\n")

    def formula(self, rng, length, mode):
        w = formula_of_length(rng, jitter(rng, length, 0.05), (1, 2, 3))
        src, want = fol.text(w), fol.text(fol.lower(w))
        if mode == 0:
            return _text(["parse", src], want + "\n")
        if mode == 1:
            return _text(["parse", "--file", self.files.write("wff", src)], want + "\n")
        return _json(["--json", "parse", src], {"schema": 1, "command": "parse", "wff": want})


class DiscoverRequests:
    """``discover`` on bare or partly annotated proofs."""

    def __init__(self, files):
        self.files = files

    def discover(self, rng, size, partial=False, unjustifiable=False):
        """A proof of about ``size`` lines; ``partial`` keeps about half of
        the justifications, ``unjustifiable`` puts a line no rule justifies
        late in the file, the search's worst case."""
        n = jitter(rng, size, 0.02)
        theory, extras, lines = typical_proof(rng, n)
        if unjustifiable:
            at = rng.randrange(n * 3 // 4, n)
            bad = fol.eq(fol.plus(("c", rng.randrange(3, 10)), random_term(rng, 1, (2,))),
                         random_term(rng, 1, (3,)))
            lines[at] = (bad, fol.text(bad), "?")
        given = [just if partial and rng.random() < 0.5 and just != "?" else "?"
                 for _, _, just in lines]
        path = self.files.write("proof", proof_file(
            theory, extras, [(t, g) for (_, t, _), g in zip(lines, given)]))
        code, stdout = discover_expectation(theory, extras, lines, given)
        return _text(["discover", path], stdout, code)


def members_digest(members):
    return hashlib.sha256(",".join(map(str, members)).encode()).hexdigest()


class Primes:
    """The benchmark's own sieve, with Goldbach verified independently.

    ``verified`` is settled by the minimal-partition method: every
    admissible even up to the limit is removed once some small prime p has
    n - p prime, with no use of partition counts.
    """

    def __init__(self, limit):
        flags = np.ones(limit + 1, dtype=bool)
        flags[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if flags[p]:
                flags[p * p::p] = False
        self.flags = flags
        evens = np.arange(16, limit + 1, 2)
        self.members = evens[~flags[evens // 2] & ~flags[evens - 3]]
        left = self.members
        for p in np.flatnonzero(flags):
            left = left[~flags[left - p]]
            if left.size == 0:
                break
        self.verified = left.size == 0

    def admissible(self, limit):
        return self.members[:np.searchsorted(self.members, limit, side="right")]

    def pairs(self, alpha):
        ps = np.arange(2, alpha // 2 + 1)
        ps = ps[self.flags[ps] & self.flags[alpha - ps]]
        return [(int(p), alpha - int(p)) for p in ps]


SAMPLED_COUNTS = 3


class ScanRequests:
    """``goldbach scan`` (text, ``--json``, ``--csv``) and ``goldbach partitions``."""

    def __init__(self, limit):
        self.primes = Primes(round(limit * 1.03))
        if not self.primes.verified:
            raise ValueError("the benchmark's sieve found an even with no prime pair")

    def scan(self, rng, limit):
        limit = jitter(rng, limit, 0.03)
        count = len(self.primes.admissible(limit))
        return _text(["goldbach", "scan", "--limit", str(limit)],
                     f"limit={limit} members={count} verified=yes\n")

    def serial(self, rng, limit, as_json):
        """A scan report that prints every member, as JSON or CSV."""
        limit = jitter(rng, limit, 0.03)
        members = [int(m) for m in self.primes.admissible(limit)]
        sample = rng.sample(members, min(SAMPLED_COUNTS, len(members)))
        expect = {"kind": "scan_json" if as_json else "scan_csv", "limit": limit,
                  "members": len(members), "digest": members_digest(members),
                  "counts": {str(a): len(self.primes.pairs(a)) for a in sample}}
        argv = (["--json", "goldbach", "scan", "--limit", str(limit)] if as_json
                else ["goldbach", "scan", "--csv", "--limit", str(limit)])
        return {"argv": argv, "exit": 0, "expect": expect}

    def partitions(self, rng, alpha):
        alpha = 2 * jitter(rng, alpha / 2, 0.05)
        pairs = self.primes.pairs(alpha)
        return _text(["goldbach", "partitions", str(alpha)],
                     " ".join(f"({p},{q})" for p, q in pairs) + "\n")


ADMISSIBLE_ALPHAS = (18, 24, 28, 30, 36)
U_VALUES = ("1", "5/4", "3/2", "2")
# Random formulas are kept below this many atom comparisons, so they stay
# among the small requests.
RANDOM_EVAL_ATOMS = 1500


class ModelRequests:
    """``model axioms``, ``model eval`` and ``sentence goldbach``."""

    def __init__(self, files):
        self.files = files
        self.cache = {}

    def _evaluate(self, w, bound, cutoff):
        key = (fol.text(w), bound, cutoff)
        if key not in self.cache:
            self.cache[key] = fol.evaluate(w, {}, bound, cutoff)[0]
        return self.cache[key]

    def _model_args(self, rng):
        return ["--alpha", str(rng.choice(ADMISSIBLE_ALPHAS)), "--u", rng.choice(U_VALUES)]

    def _random_eval(self, rng):
        while True:
            w = random_wff(rng, 4, (1, 2), surface=True)
            core = fol.lower(w)
            env = {v: rng.randrange(10) for v in sorted(fol.free_vars(core))}
            bound = rng.randrange(6, 21)
            cutoff = rng.random() < 0.5
            try:
                result, _ = fol.evaluate(core, env, bound, cutoff, budget=RANDOM_EVAL_ATOMS)
            except fol.OverBudget:
                continue
            return w, core, env, bound, cutoff, result

    def sentence(self, classical):
        return _text(["sentence", "goldbach"] + (["--classical"] if classical else []),
                     fol.text(fol.goldbach_sentence(classical)) + "\n")

    def axioms(self, rng, bound, cutoff):
        bound = jitter(rng, bound, 0.02)
        out = []
        for name, w in fol.N_AXIOMS:
            truth, wit = self._evaluate(w, bound, cutoff)
            if truth == fol.FALSE:
                shown = ", ".join(f"x{i}={n}" for i, n in sorted(wit.items()))
                out.append(f"{name}: FALSE (counterexample {shown})")
            elif truth == fol.TRUE:
                out.append(f"{name}: true")
            else:
                out.append(f"{name}: unknown (no counterexample <= {bound})")
        code = 1 if any(": FALSE" in line for line in out) else 0
        argv = ["model", "axioms", *self._model_args(rng), "--bound", str(bound)]
        return _text(argv + (["--cutoff"] if cutoff else []), "\n".join(out) + "\n", code)

    def goldbach(self, rng, n):
        """The early-exit witness search for the Goldbach instance at n."""
        surface = fol.goldbach_surface(fol.numeral(n))
        bound = n + 2
        result = self._evaluate(fol.lower(surface), bound, True)
        path = self.files.write("wff", fol.text(surface))
        return _text(["model", "eval", *self._model_args(rng), "--bound", str(bound),
                      "--cutoff", "--wff-file", path], fol.verdict_text(result, bound) + "\n")

    def random(self, rng, as_json):
        w, core, env, bound, cutoff, (truth, wit) = self._random_eval(rng)
        model = self._model_args(rng)
        argv = ["model", "eval", *model, "--bound", str(bound), "--wff", fol.text(w)]
        if env:
            argv += ["--env", ",".join(f"x{v}={n}" for v, n in env.items())]
        if cutoff:
            argv.append("--cutoff")
        if not as_json:
            return _text(argv, fol.verdict_text((truth, wit), bound) + "\n")
        return _json(["--json"] + argv, {
            "command": "model-eval", "alpha": int(model[1]), "bound": bound,
            "wff": fol.text(core), "verdict": truth,
            "witness": {f"x{i}": n for i, n in sorted(wit.items())} if wit else None})


# ---------------------------------------------------------------------------
# the workloads


# Sizes of the proof workload.  The median group parses numeral equations,
# the 90th-percentile group runs discovery on bare proofs.  The inputs that
# fail today are numeral equations past the interpreter's default recursion
# limit, where parsing raises RecursionError.
SMALL_FORMULA_CHARS = ladder(40, 1000, 10)
SMALL_NUMERALS = ladder(10, 200, 10)
SMALL_DISCOVER_LINES = ladder(4, 10, 20)
MEDIAN_NUMERAL = 600
MID_FORMULA_CHARS = ladder(6000, 12000, 6)
MID_CHECK_LINES = ladder(30, 50, 8)
MID_DISCOVER_LINES = ladder(26, 36, 10)
UNJUSTIFIABLE_MID = (3, 8)
P90_DISCOVER_LINES = 55
TOP_CHECK_LINES = 250
TOP_DISCOVER_LINES = 90
DEEP_NUMERALS = 3
DEEP_NUMERAL = (1200, 3000)


class Proof:
    name = "proof"

    def __init__(self, files):
        self.checks = CheckRequests(files)
        self.discovers = DiscoverRequests(files)

    def build_set(self, rng):
        c, d = self.checks, self.discovers
        deep = [round(math.exp(rng.uniform(*map(math.log, DEEP_NUMERAL))))
                for _ in range(DEEP_NUMERALS)]
        return assemble(rng, {
            "small": [c.formula(rng, n, k % 3) for k, n in enumerate(SMALL_FORMULA_CHARS)]
                     + [c.numeral(rng, jitter(rng, n, 0.05)) for n in SMALL_NUMERALS]
                     + [d.discover(rng, n, partial=k % 4 == 1)
                        for k, n in enumerate(SMALL_DISCOVER_LINES)],
            "median": [c.numeral(rng, jitter(rng, MEDIAN_NUMERAL, 0.02))
                       for _ in range(GROUP_SIZES["median"])],
            "mid": [c.formula(rng, n, 0) for n in MID_FORMULA_CHARS]
                   + [c.check(rng, n, k % 2 == 1) for k, n in enumerate(MID_CHECK_LINES)]
                   + [d.discover(rng, n, unjustifiable=k in UNJUSTIFIABLE_MID)
                      for k, n in enumerate(MID_DISCOVER_LINES)],
            "p90": [d.discover(rng, P90_DISCOVER_LINES) for _ in range(GROUP_SIZES["p90"])],
            "top": [c.check(rng, TOP_CHECK_LINES, True),
                    d.discover(rng, TOP_DISCOVER_LINES, unjustifiable=True)]
                   + [c.numeral(rng, n) for n in deep],
        })


# Sizes of the arithmetic workload.  The median group scans, the
# 90th-percentile group checks the axioms honestly (without --cutoff).
SMALL_PARTITIONS = ladder(1e3, 1e4, 8)
SMALL_SCANS = ladder(5e3, 1.2e4, 8)
SMALL_SERIAL = ((1e3, False), (1e3, True), (3e3, False), (3e3, True))
SMALL_RANDOM_EVALS = 14
SMALL_AXIOM_BOUNDS = ladder(6, 14, 4)
MEDIAN_SCAN = 3.5e4
MID_SCANS = ladder(5e4, 9e4, 6)
MID_PARTITIONS = ladder(4e4, 6e4, 2)
MID_SERIAL = ((3e4, False), (3e4, True), (5e4, False), (5e4, True))
MID_AXIOM_BOUNDS = ladder(27, 45, 12)
P90_AXIOM_BOUND = 55
TOP_GOLDBACH_EVENS = (18, 24)
TOP_SCAN = 3e5
TOP_SERIAL = (2e5, True)
TOP_AXIOM_BOUND = 80


class Arith:
    name = "arith"

    def __init__(self, files):
        self.scans = ScanRequests(max(TOP_SCAN, TOP_SERIAL[0]))
        self.models = ModelRequests(files)

    def build_set(self, rng):
        g, m = self.scans, self.models
        return assemble(rng, {
            "small": [g.partitions(rng, a) for a in SMALL_PARTITIONS]
                     + [g.scan(rng, n) for n in SMALL_SCANS]
                     + [g.serial(rng, n, j) for n, j in SMALL_SERIAL]
                     + [m.sentence(classical) for classical in (False, True)]
                     + [m.random(rng, k % 3 == 0) for k in range(SMALL_RANDOM_EVALS)]
                     + [m.axioms(rng, b, k % 2 == 1) for k, b in enumerate(SMALL_AXIOM_BOUNDS)],
            "median": [g.scan(rng, MEDIAN_SCAN) for _ in range(GROUP_SIZES["median"])],
            "mid": [g.scan(rng, n) for n in MID_SCANS]
                   + [g.partitions(rng, a) for a in MID_PARTITIONS]
                   + [g.serial(rng, n, j) for n, j in MID_SERIAL]
                   + [m.axioms(rng, b, k % 2 == 1) for k, b in enumerate(MID_AXIOM_BOUNDS)],
            "p90": [m.axioms(rng, P90_AXIOM_BOUND, False) for _ in range(GROUP_SIZES["p90"])],
            "top": [m.goldbach(rng, n) for n in TOP_GOLDBACH_EVENS]
                   + [g.scan(rng, TOP_SCAN), g.serial(rng, *TOP_SERIAL),
                      m.axioms(rng, TOP_AXIOM_BOUND, True)],
        })


WORKLOADS = {w.name: w for w in (Proof, Arith)}


def build(workload, seed, root):
    """Generate the workload's set of requests under ``root``."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](Files(root)).build_set(rng)
