"""One fresh worker process: a single client sending requests in a closed loop.

    python3 worker.py SRC --import-only
    python3 worker.py SRC REQUESTS RESULT --seconds S --min-rounds N [--trace SPANS]

The worker times ``import foarith.cli`` from SRC, then sends each request
as the argv a user would type through ``foarith.cli.run`` with stdout and
stderr captured, and checks the output against the expectation the
generator stored with the request.  Checking happens outside the timed
region.  It sends the whole set of requests in rounds, in the same order
each time: at least ``--min-rounds``, then more while another round of
the length of the last one still fits in ``--seconds``.  With
``--trace`` it runs exactly ``--min-rounds`` rounds with spans around the
layer boundaries, so two traced runs of one seed send identical requests.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time


def import_cli(src):
    sys.path.insert(0, src)
    start = time.perf_counter()
    import foarith.cli as cli
    return cli, time.perf_counter() - start


def _digest(members):
    return hashlib.sha256(",".join(map(str, members)).encode()).hexdigest()


def _check_scan_rows(expect, alphas, counts):
    if len(alphas) != expect["members"] or _digest(alphas) != expect["digest"]:
        return "admissible evens differ from the sieve"
    for alpha, count in expect["counts"].items():
        if counts.get(alpha) != count:
            return f"partition count of {alpha} differs"
    return None


def mismatch(expect, stdout):
    """Why stdout disagrees with the expectation, or None when it agrees."""
    kind = expect["kind"]
    if kind == "text":
        return None if stdout == expect["stdout"] else "stdout differs"
    if kind == "json":
        doc = json.loads(stdout)
        bad = [k for k, v in expect["fields"].items() if doc.get(k) != v]
        return f"fields differ: {', '.join(bad)}" if bad else None
    if kind == "check_json":
        doc = json.loads(stdout)
        lines = doc["lines"]
        if (doc["accepted"] is not True or doc["theory"] != expect["theory"]
                or [v["line"] for v in lines] != list(range(1, expect["lines"] + 1))
                or not all(v["ok"] for v in lines)):
            return "check report differs"
        return None
    if kind == "scan_json":
        doc = json.loads(stdout)
        if (doc["limit"] != expect["limit"] or doc["verified"] is not True
                or doc["first_failure"] is not None
                or list(doc["partition_counts"]) != [str(a) for a in doc["members"]]):
            return "scan report differs"
        return _check_scan_rows(expect, doc["members"], doc["partition_counts"])
    if kind == "scan_csv":
        rows = stdout.splitlines()
        if rows[0] != "alpha,count":
            return "csv header differs"
        pairs = [row.split(",") for row in rows[1:]]
        return _check_scan_rows(expect, [int(a) for a, _ in pairs],
                                {a: int(c) for a, c in pairs})
    raise ValueError(f"unknown expectation {kind!r}")


def send(cli, request):
    """Run one request; (seconds, stdout, failure reason or None).

    A reason starts with "crash" when an exception escaped ``cli.run`` and
    with "wrong" when the exit code or the output disagrees with the oracle.
    """
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(request["argv"])
    except Exception as exc:  # an escaping exception is a failed request
        return time.perf_counter() - start, "", f"crash {type(exc).__name__}"
    elapsed = time.perf_counter() - start
    stdout = out.getvalue()
    if code != request["exit"]:
        return elapsed, stdout, f"wrong exit {code}, expected {request['exit']}"
    try:
        reason = mismatch(request["expect"], stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        reason = f"unreadable output: {exc!r}"
    return elapsed, stdout, None if reason is None else f"wrong {reason}"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("src")
    ap.add_argument("requests", nargs="?")
    ap.add_argument("result", nargs="?")
    ap.add_argument("--import-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-rounds", type=int, default=1)
    ap.add_argument("--trace")
    args = ap.parse_args()

    cli, setup_s = import_cli(args.src)
    if args.import_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    with open(args.requests, encoding="utf-8") as fh:
        requests = json.load(fh)
    # The request list is the harness's, not the program's: keep the
    # cyclic collector from walking it during the program's requests.
    gc.collect()
    gc.freeze()
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    rounds = []
    output_bytes = 0
    start = time.perf_counter()
    last = 0.0
    while len(rounds) < args.min_rounds or (
            tracer is None and time.perf_counter() - start + last <= args.seconds):
        began = time.perf_counter()
        times, reasons = [], []
        for index, request in enumerate(requests):
            if tracer is not None:
                tracer.request = index
            elapsed, stdout, reason = send(cli, request)
            output_bytes += len(stdout.encode("utf-8"))
            times.append(elapsed)
            reasons.append(reason)
        rounds.append({"times": times, "reasons": reasons})
        last = time.perf_counter() - began

    result = {
        "setup_s": setup_s,
        "rounds": rounds,
        "wall_s": time.perf_counter() - start,
        "output_bytes": output_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        summary = tracer.summary()
        summary["cli.output_bytes"] = output_bytes
        result["layers"] = summary
        result["sized_calls"] = tracer.sized_calls()
        tracer.write_spans(args.trace)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
