"""Mutation gate: every mutant of the kernel and the abbreviation table
must be killed by the tier-1 tests.

Each mutant replaces one line of a file under ``src/foarith``: the line,
stripped, must occur there exactly once, and its replacement keeps the
indentation.  For each mutant in turn, the runner writes the mutated file
into a temporary copy of the repository's ``src``, ``tests`` and
``perfbench`` and runs ``pytest -x`` on the kernel, syntax, models and
acceptance tests there, those of the mutated module first.  A mutant is
killed when a test fails; one that passes them all survives.  A run
that takes longer than ``TIMEOUT`` seconds, several times the slowest
run seen, is stopped and reported as TIMEOUT; it counts as killed, since
the mutant made a test run without end where the original code
finishes.  The script exits 1 when a mutant survives, when pytest stops
for another reason (such as a collection error), or when a mutant's
original line is not found once, so a change that moves a mutated line
fails the gate instead of dropping the mutant.

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
TESTS = ["tests/test_kernel.py", "tests/test_syntax.py", "tests/test_models.py",
         "tests/test_acceptance.py"]
TIMEOUT = 120

# (file under src/foarith, original line stripped, replacement, what it breaks)
MUTANTS = [
    ("syntax.py", "return bound is w or not shared and bound == w", "return True",
     "_bind: a repeated metavariable binds anything"),
    ("syntax.py", "return bound is w or not shared and bound == w",
     "return bound is w or bound == w", "_bind: shared sides may be equal objects built apart"),
    ("syntax.py", "and _bind(shape[2], w.consequent, parts, shared))", ")",
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
            tests = sorted(TESTS, key=lambda test: test != f"tests/test_{path.stem}.py")
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
