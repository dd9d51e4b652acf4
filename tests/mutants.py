"""Mutation gate: every mutant of the kernel, the abbreviation table, the
formula walks and the numeric routes (the Goldbach scan and the
evaluator) must be killed by the tier-1 tests.

Each mutant replaces one line of a file under ``src/foarith``: the line,
stripped, must occur there exactly once, and its replacement keeps the
indentation.  For each mutant in turn, the runner writes the mutated file
into a temporary copy of the repository's ``src``, ``tests`` and
``perfbench`` and runs ``pytest -x`` there on the tests that ``TESTS``
names for the mutated file, those of the mutated module first.  A mutant is
killed when a test fails; one that passes them all survives.  A run
that takes longer than ``TIMEOUT`` seconds, several times the slowest
run seen, is stopped and reported as TIMEOUT; it counts as killed, since
the mutant made a test run without end where the original code
finishes.  The script exits 1 when a mutant survives, when pytest stops
for another reason (such as a collection error), or when a mutant's
original line is not found once, so a change that moves a mutated line
fails the gate instead of dropping the mutant.

Two mutants that only add work are left out, since no test can kill them
until the tests count work (ROADMAP item 11): in ``goldbach._unresolved``,
``done = left < batch[-1]`` keeps members open through batches that cannot
split them, and in ``models._Compiler._universal``, ``if enclosing:``
memoizes a universal under any enclosing quantifier, which is still
correct because the memo keys on every name the universal reads.

It needs the test dependencies (pytest, hypothesis) but nothing else
beyond the standard library::

    python tests/mutants.py             # every mutant
    python tests/mutants.py 3 17        # the mutants with these numbers
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_KERNEL_TESTS = ["tests/test_kernel.py", "tests/test_syntax.py", "tests/test_models.py",
                 "tests/test_acceptance.py"]
_NUMERIC_TESTS = ["tests/test_goldbach.py", "tests/test_models.py", "tests/test_arith.py",
                  "tests/test_acceptance.py", "tests/test_cli.py"]
# the tests each mutated file is run with
TESTS = {"syntax.py": _KERNEL_TESTS, "kernel.py": _KERNEL_TESTS,
         "goldbach.py": _NUMERIC_TESTS, "models.py": _NUMERIC_TESTS}
TIMEOUT = 120

# (file under src/foarith, original line stripped, replacement, what it breaks)
MUTANTS = [
    ("syntax.py", "return parts.setdefault(shape, w) == w",
     "return parts.setdefault(shape, w) is not None",
     "_bind: a repeated metavariable binds anything"),
    ("syntax.py", "and _bind(shape[2], w.consequent, parts))", ")",
     "_bind: an implication's consequent is not matched"),
    ("syntax.py", "return (isinstance(w, ForAll) and _bind(shape[1], w.var, parts)",
     "return (isinstance(w, ForAll)",
     "_bind: a quantifier's variable is not bound"),
    ("syntax.py", "return ForAll(parts[shape[1]], _built(shape[2], parts))",
     "return ForAll(1, _built(shape[2], parts))",
     "builder: every quantifier of an expansion is on x1"),
    ("syntax.py", 'return _built(shape, dict(zip("AB", parts), var=getattr(w, "var", None)))',
     'return _built(shape, dict(zip("BA", parts), var=getattr(w, "var", None)))',
     "lower: the two sides of an abbreviation are swapped"),
    ("syntax.py", 'Exists: ("~", ("all", "var", ("~", "A"))),',
     'Exists: ("~", ("all", "var", "A")),', "ex: the inner negation is dropped"),
    ("syntax.py", 'Iff: ("~", ("->", ("->", "A", "B"), ("~", ("->", "B", "A")))),',
     'Iff: ("~", ("->", ("->", "B", "A"), ("~", ("->", "A", "B")))),',
     "<->: the mirrored expansion"),
    ("syntax.py", 'And: ("~", ("->", "A", ("~", "B"))),',
     'And: ("~", ("->", "B", ("~", "A"))),', "&: the sides are swapped"),
    ("syntax.py", 'Or: ("->", ("~", "A"), "B"),',
     'Or: ("->", "A", "B"),', "|: the negation is dropped"),
    ("syntax.py", "if new is not node and isinstance(node, _Quantifier) and node.var in binders:",
     "if False:", "substitute: capture goes unnoticed"),
    ("syntax.py", "elif (pair := (id(u), id(v))) in settled or settled.add(pair):  # add() gives None",
     "elif (pair := (id(u), id(v))) in settled:",
     "==: a pair of nodes met again is compared again"),
    ("syntax.py", "settled.add(pair)", "pass",
     "K5's facing walk: a pair of nodes met again is searched again"),
    ("kernel.py", 'SchemeId.K1: ("->", "A", ("->", "B", "A")),',
     'SchemeId.K1: ("->", "A", ("->", "B", "B")),', "K1 shape"),
    ("kernel.py", 'SchemeId.K2: ("->", ("->", "A", ("->", "B", "C")),',
     'SchemeId.K2: ("->", ("->", "A", ("->", "C", "B")),', "K2 shape"),
    ("kernel.py", 'SchemeId.K3: ("->", ("->", ("~", "A"), ("~", "B")), ("->", "B", "A")),',
     'SchemeId.K3: ("->", ("->", ("~", "A"), ("~", "B")), ("->", "A", "B")),', "K3 shape"),
    ("kernel.py", 'SchemeId.K4: ("->", ("all", "var", "A"), "A"),',
     'SchemeId.K4: ("->", ("all", "var", "A"), "B"),', "K4 shape"),
    ("kernel.py", 'SchemeId.K6: ("->", ("all", "var", ("->", "A", "B")), ("->", "A", ("all", "var", "B"))),',
     'SchemeId.K6: ("->", ("all", "var", ("->", "A", "B")), ("->", "B", ("all", "var", "A"))),',
     "K6 shape"),
    ("kernel.py", 'return parts["var"] not in free_vars(parts["A"])', "return True",
     "K4 and K6: the variable may be free in A"),
    ("kernel.py", "SchemeId.K6: _var_not_free_in_a,", "",
     "K6 without its side condition"),
    ("kernel.py", "return m != NO_MATCH", "return True",
     "K5: any A(t), captured or not"),
    ("kernel.py", "return (v == 1 and v in free_vars(a)", "return (v in free_vars(a)",
     "N7: induction on any variable"),
    ("kernel.py", "return (v == 1 and v in free_vars(a)", "return (v == 1",
     "N7: x1 need not be free in A"),
    ("kernel.py", 'and substitute(a, v, succ(_X1)) == parts.pop("A(S(x1))")',
     'and parts.pop("A(S(x1))") is not None', "N7: the step A(S(x1)) is not checked"),
    ("kernel.py", 'and substitute(a, v, ZERO) == parts.pop("A(0)"))',
     'and parts.pop("A(0)") is not None)', "N7: the base A(0) is not checked"),
    ("kernel.py", "if not 1 <= just.i < number:", "if not 1 <= just.i <= number:",
     "GEN may cite its own line"),
    ("kernel.py", "if not 1 <= ref < number:", "if not 1 <= ref <= number:",
     "MP may cite its own line"),
    ("goldbach.py", "start = p * p // 2", "start = p * p // 2 + p",
     "sieve: p * p is not struck out"),
    ("goldbach.py", "for i in range(1, (math.isqrt(limit) - 1) // 2 + 1):",
     "for i in range(1, (math.isqrt(limit) - 1) // 2):",
     "sieve: the last prime up to the square root strikes nothing"),
    ("goldbach.py", "admissible[8:] = composite[6:max(limit // 2 - 1, 6)]         # 2m - 3 for m = 8, 9, ...",
     "admissible[8:] = composite[7:max(limit // 2, 7)]",
     "_admissible: 2m - 1 read for 2m - 3"),
    ("goldbach.py", "odd_halves &= composite[4:4 + odd_halves.size]",
     "odd_halves &= composite[5:5 + odd_halves.size]",
     "_admissible: m + 2 read for an odd half m"),
    ("goldbach.py", "if residual >= 0.25:", "if residual >= 0.5:",
     "_pair_counts: an FFT residual up to 0.5 passes"),
    ("goldbach.py", "counts[2:3] -= 1", "pass", "_pair_counts: 3 + 3 counted twice"),
    ("goldbach.py", "ab *= 2                             # A with B in either order", "pass",
     "_pair_counts: pairs of the two classes counted once"),
    ("goldbach.py", "admissible[i + 1:] &= composite[:h - i - 1]",
     "admissible[i + 2:] &= composite[:h - i - 2]", "_unresolved: the dense slice off by one"),
    ("goldbach.py", "split = ((cells >= batch) & ~composite[cells]).any(axis=1)",
     "split = (~composite[cells]).any(axis=1)",
     "_unresolved: a prime above m splits m, as may a cell that wrapped below 0"),
    ("goldbach.py", "rest, span = np.flatnonzero(~composite[span:h // 2]) + span, h // 2",
     "rest, span = rest, h // 2", "_unresolved: no primes read past the first span"),
    ("goldbach.py", "if not np.array_equal(zero, self._unresolved):", "if False:",
     "ScanReport: FFT counts not checked against the search"),
    ("models.py", "if ta is True and tb is False:", "if tb is False:",
     "_implies: an unknown antecedent and a false consequent give False"),
    ("models.py", "tx, wx = (True, wa) if ta is False else _implies(ta, wa, tb, wb)",
     "tx, wx = _implies(ta, wa, tb, wb)", "_differ: a false A does not make A -> B true"),
    ("models.py", "return _implies(tx, wx, None if tq is None else not tq, wq)",
     "return _implies(tx, wx, tq, wq)", "_differ: ~(B -> A) read as B -> A"),
    ("models.py", 'self.exhausted = "True" if cutoff else "None"', 'self.exhausted = "True"',
     "a universal with no counterexample is True without domain_cutoff"),
    ("models.py", "_MAX_CHAIN = 8", "_MAX_CHAIN = 24",
     "a chain of universals past Python's 20 nested loops is one function"),
    ("models.py", "return {**a, **b} if a and b else a or b", "return a or b",
     "_merge: the second witness is dropped"),
]


def _mutated(text: str, original: str, replacement: str):
    """text with the one line whose stripped text is ``original`` replaced,
    or None unless exactly one line is."""
    lines = text.split("\n")
    found = [k for k, line in enumerate(lines) if line.strip() == original]
    if len(found) != 1:
        return None
    k = found[0]
    lines[k] = lines[k][:len(lines[k]) - len(lines[k].lstrip())] + replacement
    return "\n".join(lines)


def main(chosen) -> int:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    bad = 0
    started = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        skip = shutil.ignore_patterns("__pycache__", ".work")
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / part, Path(tmp, part), ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        for number, (name, original, replacement, what) in enumerate(MUTANTS, 1):
            if chosen and number not in chosen:
                continue
            path = Path(tmp, "src", "foarith", name)
            text = (ROOT / "src" / "foarith" / name).read_text(encoding="utf-8")
            mutated = _mutated(text, original, replacement)
            if mutated is None:
                print(f"{number:2} MISSING  {name}: no single line {original!r}")
                bad += 1
                continue
            path.write_text(mutated, encoding="utf-8")
            t = time.monotonic()
            # the mutated module's own tests first, where a mutant dies soonest
            tests = sorted(TESTS[name], key=lambda test: test != f"tests/test_{path.stem}.py")
            pytest = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
            try:
                done = subprocess.run([*pytest, *tests], cwd=tmp, env=env, capture_output=True,
                                      text=True, timeout=TIMEOUT)
            except subprocess.TimeoutExpired:
                done = None
            path.write_text(text, encoding="utf-8")
            failed = [line.split()[1] for line in done.stdout.splitlines()
                      if line.startswith(("FAILED ", "ERROR "))] if done else []
            if done is None:
                verdict = "TIMEOUT "
            elif done.returncode == 1 and failed:
                verdict = "killed  "
            else:
                verdict = "SURVIVED" if done.returncode == 0 else f"PYTEST {done.returncode}"
                bad += 1
                print(done.stdout[-2000:], done.stderr[-2000:])
            by = f" by {failed[0]}" if failed else ""
            print(f"{number:2} {verdict} {name}: {what} ({time.monotonic() - t:.1f} s{by})",
                  flush=True)
    print(f"{len(chosen or MUTANTS) - bad} of {len(chosen or MUTANTS)} mutants killed "
          f"in {time.monotonic() - started:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main({int(arg) for arg in sys.argv[1:]}))
