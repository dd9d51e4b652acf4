"""Command-line interface.

Subcommands: parse, check, discover, sentence, goldbach scan, goldbach
partitions, model axioms, model eval, model limits.  The global ``--json``
flag switches every subcommand to a single JSON document on stdout with a
top-level ``"schema": 1`` field.  Exit codes: 0 success, 1 domain failure
(rejected proof, false axiom, failed scan), 2 usage, parse or
out-of-memory error with a message on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Optional

from .arith import goldbach_sentence
from .goldbach import partitions, scan
from .kernel import check_proof, resolve_unknowns
from .models import (
    ThreeValued,
    check_axioms,
    coded_model,
    eval_bounded,
    limit_table,
    limit_table_csv,
)
from .proofio import format_justification, format_proof, parse_proof_file
from .syntax import lower, parse_wff, print_wff

__all__ = ["build_parser", "run", "main"]

SCHEMA_VERSION = 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="foarith",
        description="First-order arithmetic workbench: proof checking, "
                    "Goldbach verification, coded interpretations.")
    ap.add_argument("--json", action="store_true",
                    help="emit a single JSON document on stdout")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="echo the canonical core form of a formula")
    p.add_argument("wff", nargs="?", help="formula text")
    p.add_argument("--file", help="read the formula from a file instead")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("check", help="verify an annotated proof file")
    p.add_argument("prooffile")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("discover", help="fill '?' justifications in a proof file")
    p.add_argument("prooffile")
    p.set_defaults(func=_cmd_discover)

    p = sub.add_parser("sentence", help="print a built-in sentence")
    p.add_argument("name", choices=["goldbach"])
    p.add_argument("--classical", action="store_true",
                   help="quantify over all evens greater than 2 instead of "
                        "the admissible evens")
    p.set_defaults(func=_cmd_sentence)

    g = sub.add_parser("goldbach", help="concrete Goldbach verification")
    gsub = g.add_subparsers(dest="goldbach_command", required=True)
    p = gsub.add_parser("scan", help="verify every admissible even up to a limit")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--csv", action="store_true", help="emit alpha,count CSV")
    p.set_defaults(func=_cmd_goldbach_scan)
    p = gsub.add_parser("partitions", help="list the prime pairs summing to alpha")
    p.add_argument("alpha", type=int)
    p.set_defaults(func=_cmd_goldbach_partitions)

    m = sub.add_parser("model", help="coded interpretations")
    msub = m.add_subparsers(dest="model_command", required=True)
    p = msub.add_parser("axioms", help="evaluate N1..N6 in a coded model")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--u", required=True, help="slope parameter, e.g. 2 or 3/2 or 1.5")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--cutoff", action="store_true",
                   help="classical evaluation over the finite segment 0..bound")
    p.set_defaults(func=_cmd_model_axioms)
    p = msub.add_parser("eval", help="evaluate a formula in a coded model")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--wff", help="formula text")
    p.add_argument("--wff-file", help="read the formula from a file instead")
    p.add_argument("--env", default="", help="assignment like x1=3,x2=5")
    p.add_argument("--cutoff", action="store_true",
                   help="classical evaluation over the finite segment 0..bound")
    p.set_defaults(func=_cmd_model_eval)
    p = msub.add_parser("limits", help="deviation table for u approaching 1")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--steps", type=int, required=True,
                   help="emit u = 1 + 2^-k for k = 1..steps, then u = 1")
    p.set_defaults(func=_cmd_model_limits)
    return ap


def _emit_json(command: str, **fields) -> None:
    """The document of one subcommand: schema, command, then ``fields``."""
    print(json.dumps({"schema": SCHEMA_VERSION, "command": command, **fields}, indent=2))


def _read_proof(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_proof_file(fh.read())


def _witness_text(witness: dict) -> str:
    return ", ".join(f"x{i}={n}" for i, n in sorted(witness.items()))


def _read_inline_or_file(inline: Optional[str], path: Optional[str],
                         what: str) -> str:
    if inline is not None and path is not None:
        raise ValueError(f"give the {what} inline or as a file, not both")
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    if inline is None:
        raise ValueError(f"missing {what}")
    return inline


def _parse_env(spec: str) -> dict:
    env: dict = {}
    if not spec:
        return env
    for part in spec.split(","):
        name, sep, value = part.partition("=")
        name = name.strip()
        value = value.strip()
        if not sep or not name.startswith("x") or not name[1:].isdecimal() \
                or int(name[1:]) < 1 or not value.isdecimal():
            raise ValueError(f"bad assignment {part!r}; expected x<i>=<n>")
        index = int(name[1:])
        if index in env:
            raise ValueError(f"repeated assignment {part!r}; x{index} is already assigned")
        env[index] = int(value)
    return env


# ---------------------------------------------------------------------------
# subcommands


def _cmd_parse(ns) -> int:
    text = _read_inline_or_file(ns.wff, ns.file, "formula")
    core = lower(parse_wff(text))
    rendered = print_wff(core)
    if ns.json:
        _emit_json("parse", wff=rendered)
    else:
        print(rendered)
    return 0


def _cmd_check(ns) -> int:
    proof = _read_proof(ns.prooffile)
    verdict = check_proof(proof)
    if ns.json:
        _emit_json("check", file=ns.prooffile, theory=proof.theory.name,
                   accepted=verdict.accepted,
                   lines=[{"line": v.line, "ok": v.ok, "reason": v.reason}
                          for v in verdict.per_line])
    elif verdict.accepted:
        print(f"accepted ({len(proof.lines)} lines)")
    else:
        for v in verdict.failures:
            print(f"line {v.line}: {v.reason}")
        print(f"rejected ({len(verdict.failures)} of {len(proof.lines)} lines failed)")
    return 0 if verdict.accepted else 1


def _cmd_discover(ns) -> int:
    result = resolve_unknowns(_read_proof(ns.prooffile))
    failures = check_proof(result.proof).failures if result.ok else result.failures
    lines = result.proof.lines if result.ok else ()
    if ns.json:
        _emit_json("discover", file=ns.prooffile, accepted=not failures,
                   lines=[{"line": k, "wff": print_wff(line.wff),
                           "justification": format_justification(line.justification)}
                          for k, line in enumerate(lines, 1)],
                   failures=[{"line": f.line, "reason": f.reason} for f in failures])
    elif failures:
        for f in failures:
            print(f"line {f.line}: {f.reason}")
    else:
        print(format_proof(result.proof), end="")
    return 1 if failures else 0


def _cmd_sentence(ns) -> int:
    rendered = print_wff(goldbach_sentence(classical=ns.classical))
    if ns.json:
        _emit_json("sentence", name=ns.name, classical=ns.classical, wff=rendered)
    else:
        print(rendered)
    return 0


def _cmd_goldbach_scan(ns) -> int:
    report = scan(ns.limit)
    if ns.json:
        print(report.to_json({"schema": SCHEMA_VERSION, "command": "goldbach-scan"}))
    elif ns.csv:
        print(report.to_csv(), end="")
    else:
        line = (f"limit={report.limit} members={len(report.members)} "
                f"verified={'yes' if report.verified else 'NO'}")
        if report.first_failure is not None:
            line += f" first_failure={report.first_failure}"
        print(line)
    return 0 if report.verified else 1


def _cmd_goldbach_partitions(ns) -> int:
    pairs = partitions(ns.alpha)
    if ns.json:
        _emit_json("goldbach-partitions", alpha=ns.alpha,
                   partitions=[list(p) for p in pairs])
    else:
        print(" ".join(f"({p},{q})" for p, q in pairs))
    return 0


def _cmd_model_axioms(ns) -> int:
    model = coded_model(ns.alpha, ns.u)
    checks = check_axioms(model, ns.bound, domain_cutoff=ns.cutoff)
    any_false = any(c.result.truth is ThreeValued.FALSE for c in checks)
    if ns.json:
        _emit_json("model-axioms", alpha=ns.alpha, u=str(model.coding.u), bound=ns.bound,
                   report=[c.to_json_dict() for c in checks])
    else:
        for c in checks:
            truth = c.result.truth
            if truth is ThreeValued.FALSE:
                print(f"{c.axiom}: FALSE (counterexample "
                      f"{_witness_text(c.result.witness)})")
            elif truth is ThreeValued.TRUE:
                print(f"{c.axiom}: true")
            else:
                print(f"{c.axiom}: unknown (no counterexample <= {ns.bound})")
    return 1 if any_false else 0


def _cmd_model_eval(ns) -> int:
    text = _read_inline_or_file(ns.wff, ns.wff_file, "formula")
    wff = lower(parse_wff(text))
    model = coded_model(ns.alpha, ns.u)
    env = _parse_env(ns.env)
    result = eval_bounded(model, wff, env, bound=ns.bound, domain_cutoff=ns.cutoff)
    if ns.json:
        _emit_json("model-eval", alpha=ns.alpha, u=str(model.coding.u), bound=ns.bound,
                   wff=print_wff(wff), verdict=result.truth.value,
                   witness=result.witness_json())
    elif result.truth is ThreeValued.TRUE:
        suffix = f", witness {_witness_text(result.witness)}" if result.witness else ""
        print(f"True{suffix}")
    elif result.truth is ThreeValued.FALSE:
        suffix = (f", counterexample {_witness_text(result.witness)}"
                  if result.witness else "")
        print(f"False{suffix}")
    else:
        print(f"Unknown (bound {ns.bound} exhausted)")
    return 0


def _cmd_model_limits(ns) -> int:
    if ns.steps < 1:
        raise ValueError("steps must be >= 1")
    us = [1 + Fraction(1, 2 ** k) for k in range(1, ns.steps + 1)]
    us.append(Fraction(1))
    rows = limit_table(ns.alpha, ns.nmax, us)
    if ns.json:
        _emit_json("model-limits", alpha=ns.alpha,
                   rows=[{"u": str(r.u), "n": r.n, "psi": str(r.psi),
                          "deviation": str(r.deviation)} for r in rows])
    else:
        print(limit_table_csv(rows), end="")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first request, not at import; parse_args keeps no state
    return build_parser()


def run(argv: Optional[list] = None) -> int:
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return ns.func(ns)
    except MemoryError as exc:
        message = str(exc) or "out of memory"
    except (ValueError, OSError) as exc:
        message = str(exc)
    print(f"error: {message}", file=sys.stderr)
    return 2


def main() -> None:
    sys.exit(run())
