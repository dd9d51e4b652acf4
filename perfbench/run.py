"""foarith benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The seed gives a set of 100
distinct requests, generated before any timing starts.  Every worker is
a fresh, single-threaded Python process that imports ``foarith.cli``
from ``src/`` and sends one request at a time (a closed loop with one
client).  The worker sends the whole set in rounds, at least three and
as many as fit in --seconds, and a request's latency is the fastest of
its rounds.  The host is shared, and other tenants only ever add time to
a request, so the fastest repeat is the steadiest estimate of what the
program itself costs.  Since the program sees each request again in
later rounds, a cache that outlives a request would show here.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  setup_s         median time to import foarith.cli in a fresh process
  throughput_rps  requests answered correctly per second of request
                  time, taking each request at its fastest
  latency_p50_ms, latency_p90_ms
                  nearest-rank percentiles over the 100 requests; a
                  request that failed in any round counts as +inf
  peak_rss_mb     the worker's ru_maxrss at the end of the run
  success_ratio   requests answered correctly / requests in the set

--trace 1 sends the set once in each of three fresh workers, once
untraced and twice traced, and reports the per-layer metrics of
BENCHMARK.json from the traced runs, the tracing overhead, and whether
the two traced runs counted exactly the same work.

The last line of stdout is the result object; the line before it carries
run metadata.  Spans go to perfbench/.work/spans-<workload>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

# A run sends at least this many rounds, however slow the host, and more
# while they fit in --seconds.  A set holds 100 requests, so ten of them
# lie beyond the 90th percentile.
MIN_ROUNDS = 3
SETUP_REPEATS = 15
WORKER_TIMEOUT_S = 150

# Counters that measure time or memory rather than work; all other
# per-layer values must repeat exactly between two traced runs.
MEASURED_SUFFIXES = (".self_s", ".rss_rise_mb")

# ROADMAP item 1 baselines, for a sanity comparison only.  The workloads
# stop short of these sizes, so the traced figures are scaled to them:
# linearly in the scan limit, cubically in the lines of a discovered proof.
ROADMAP_SCAN_S_AT_1E6 = 0.55
ROADMAP_DISCOVER_S_AT_200 = 0.34
SCALED_SCAN_FROM = 2e5
SCALED_DISCOVER_FROM = 50


class BenchError(Exception):
    pass


def git_revision():
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = os.path.join(ROOT, ".git", name)
    if os.path.isfile(loose):
        with open(loose, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == name:
                    return parts[0]
    return None


def source_digest():
    """SHA-256 over src/foarith/*.py, naming the code under test without git."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "foarith")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def worker_env():
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(*args):
    """Run worker.py in a fresh process; returns its stdout."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), SRC, *map(str, args)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def run_loop(requests, tag, *extra):
    result_path = os.path.join(os.path.dirname(requests), f"result-{tag}.json")
    run_worker(requests, result_path, *extra)
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def percentile(values, share):
    """Nearest-rank percentile; math.inf sorts last."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def measure_setup():
    """Median import time over fresh processes, after one warm-up import.

    The warm-up writes the bytecode cache, which an installed program has.
    """
    run_worker("--import-only")
    times = [json.loads(run_worker("--import-only"))["setup_s"]
             for _ in range(SETUP_REPEATS)]
    return statistics.median(times), times


def round_time(res):
    return sum(res["rounds"][0]["times"])


def fastest(res):
    """Per request: (fastest time over the rounds, ok in every round)."""
    rounds = res["rounds"]
    return [(min(r["times"][i] for r in rounds),
             all(r["reasons"][i] is None for r in rounds))
            for i in range(len(rounds[0]["times"]))]


def count_reasons(results):
    reasons = {}
    for res in results:
        for r in res["rounds"]:
            for reason in r["reasons"]:
                if reason is not None:
                    reasons[reason] = reasons.get(reason, 0) + 1
    return reasons


def end_to_end(requests, seconds, meta):
    setup_s, setup_runs = measure_setup()
    res = run_loop(requests, "e2e", "--seconds", seconds, "--min-rounds", MIN_ROUNDS)
    best = fastest(res)
    latencies = [t if ok else math.inf for t, ok in best]
    ok = sum(1 for _, good in best if good)
    reasons = count_reasons([res])
    attempted = len(best) * len(res["rounds"])
    p90 = percentile(latencies, 0.9)
    with open(requests, encoding="utf-8") as fh:
        groups = [r["group"] for r in json.load(fh)]
    meta.update({
        "rounds": len(res["rounds"]), "requests": len(best), "attempted": attempted,
        "failures": reasons, "fail_ratio": (len(best) - ok) / len(best),
        "p90_samples_beyond": len(best) - math.ceil(0.9 * len(best)),
        "round_s": [sum(r["times"]) for r in res["rounds"]],
        "fastest_s": sum(t for t, _ in best), "loop_wall_s": res["wall_s"],
        "group_median_ms": {g: statistics.median(t * 1e3 for (t, _), h in zip(best, groups)
                                                 if h == g)
                            for g in dict.fromkeys(groups)},
        "output_bytes": res["output_bytes"], "setup_runs_s": setup_runs,
        "worker_import_s": res["setup_s"],
    })
    if math.isinf(p90):
        raise BenchError("more than a tenth of the requests failed")
    metrics = {
        "setup_s": setup_s,
        "throughput_rps": ok / sum(t for t, _ in best),
        "latency_p50_ms": percentile(latencies, 0.5) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "peak_rss_mb": res["peak_rss_mb"],
        "success_ratio": ok / len(best),
    }
    return metrics, attempted, sum(reasons.values()), reasons


def _median_rate(calls, lo, hi, scale):
    """Median of seconds * scale(size) over calls whose size is in [lo, hi]."""
    rates = [sec * scale(size) for size, sec in calls if lo <= size <= hi]
    return statistics.median(rates) if rates else None


def per_layer(requests, workload, names, meta):
    spans = os.path.join(WORK, f"spans-{workload}.json")

    def traced_run(tag):
        return run_loop(requests, tag, "--min-rounds", 1, "--trace", spans)

    # The untraced run goes between the traced ones so that drift in the
    # host's speed during the run affects both sides of the overhead alike.
    traced = [traced_run("traced1")]
    plain = run_loop(requests, "untraced", "--min-rounds", 1)
    traced.append(traced_run("traced2"))
    first, second = (t["layers"] for t in traced)
    differing = sorted(k for k in set(first) | set(second)
                       if not k.endswith(MEASURED_SUFFIXES) and first.get(k) != second.get(k))
    traced_busy = statistics.mean(round_time(t) for t in traced)
    asked = first.get("kernel.resolve_unknowns.asked", 0)
    values = {
        "trace.overhead_s": traced_busy - round_time(plain),
        "kernel.resolve_unknowns.resolved_ratio":
            first.get("kernel.resolve_unknowns.resolved", 0) / asked if asked else 0.0,
    }
    for name in names:
        if name in values:
            continue
        if name.endswith(MEASURED_SUFFIXES):
            values[name] = statistics.mean(t["layers"].get(name, 0.0) for t in traced)
        else:
            values[name] = first.get(name, 0)
    sized = traced[0]["sized_calls"]
    meta.update({
        "trace_requests": len(plain["rounds"][0]["times"]),
        "untraced_request_s": round_time(plain), "traced_request_s": traced_busy,
        "counters_identical": not differing, "counters_differing": differing,
        "roadmap_comparison": {
            "goldbach.scan_s_scaled_to_1e6": _median_rate(
                sized.get("goldbach.scan", []), SCALED_SCAN_FROM, math.inf,
                lambda n: 1e6 / n),
            "roadmap_scan_s_at_1e6": ROADMAP_SCAN_S_AT_1E6,
            "kernel.resolve_unknowns_s_scaled_to_200_lines": _median_rate(
                sized.get("kernel.resolve_unknowns", []), SCALED_DISCOVER_FROM, math.inf,
                lambda n: (200 / n) ** 3),
            "roadmap_discover_s_at_200_lines": ROADMAP_DISCOVER_S_AT_200,
        },
    })
    reasons = count_reasons([plain, *traced])
    attempted = 3 * len(plain["rounds"][0]["times"])
    return values, attempted, sum(reasons.values()), reasons, not differing


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "foarith", "cli.py")):
        print(f"error: no foarith sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import numpy
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "git_revision": git_revision(), "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "loadavg_at_start": os.getloadavg(),
    }
    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    try:
        started = time.perf_counter()
        request_set = workloads.build(args.workload, args.seed,
                                      os.path.join(run_dir, "inputs"))
        requests = os.path.join(run_dir, "requests.json")
        with open(requests, "w", encoding="utf-8") as fh:
            json.dump(request_set, fh)
        meta["generate_s"] = time.perf_counter() - started
        if args.trace:
            section = spec["per_layer"]
            values, attempted, failed, reasons, steady = per_layer(
                requests, args.workload, [m["name"] for m in section], meta)
        else:
            section = spec["end_to_end"]
            values, attempted, failed, reasons = end_to_end(requests, args.seconds, meta)
            steady = True
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    # Crashes count as failures; a wrong answer or wrong exit code makes
    # the run incorrect.
    wrong = any(reason.startswith("wrong") for reason in reasons)
    meta["wall_s"] = time.perf_counter() - started
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not wrong and steady,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in section},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
