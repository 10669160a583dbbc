"""qpl benchmark: drives the library as one caller in a closed loop.

    python3 bench/run.py --workload {catalog,enumerate,series} --seed N
                         --seconds S --trace {0,1}

Run it from the root of a source checkout; the library is imported from
``src/`` of that checkout.  One single-threaded process issues each op only
after the previous one returns.  Each pass runs every op of the workload, in
an order permuted by the seed, in a fresh worker process, so the library's
caches start cold.  Passes repeat while another one fits in ``--seconds``
(at least one).  Every op's output is compared with its golden.

End-to-end metrics (``--trace 0``), each the median over the run's passes.
Times are scaled to reference speed (see ``speed.py``), because the host's
speed drifts far more than the changes the benchmark must resolve; the raw
times are in the detail line.  The run and its workers are pinned to one
CPU.

* ``wall_s``: the time of one pass, as the sum of its op latencies;
* ``setup_s``: from process start until ``qpl`` is imported, the median over
  a few import-only processes and the pass processes;
* ``op_p50_ms``, ``op_p90_ms``: per-op latency quantiles within a pass;
* ``peak_rss_mb``: the peak resident memory of the pass process.

The share of ops that raised or whose output differs from the golden
(``fail_ratio``) is ``failed / attempted`` in the result line.

With ``--trace 1`` one untraced pass is followed by traced passes; the
per-layer metrics (see ``layers.py``) are the medians over the traced passes,
with ``self_s`` scaled like the pass, and the tracing overhead is the traced ``wall_s`` minus the untraced one.

The last line of standard output is the result JSON.  The line before it
starts with ``#`` and records the run environment and details; the same
record, and the span records of traced passes, go to ``.bench_out/``.
Extra flags for the self-test: ``--limit K`` runs only the first K ops of
the permuted order, ``--corrupt`` makes the library compute wrong values.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads
from layers import LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
# CPUs available before main() pins the run to one of them.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
RUN_LIMIT_S = 170  # every run must end within 180 s
SETUP_PROBES = 9
END_TO_END = {"wall_s": "s", "setup_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "peak_rss_mb": "MB"}
TIMER_NOTE = (
    "in-process timers only (time.perf_counter_ns, time.monotonic_ns, "
    "resource.getrusage); no system-wide tracing and no page-cache dropping"
)


class BenchError(Exception):
    pass


def _worker(args, deadline):
    """Run worker.py and return its result.  Its set-up time is scaled by
    reference loops run just before it starts and just after its import."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONHOME", None)
    refs = [speed.reference() for _ in range(5)]
    cmd = [sys.executable, str(BENCH / "worker.py"), "--t0", str(time.monotonic_ns()), *args]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_scale"] = speed.REFERENCE_NS / statistics.median(refs + result["setup_refs"])
    return result


def _quantile(values, which):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[which]


def _pass_metrics(result, scaled=True):
    lat = [row[2] if scaled else row[1] for row in result["ops"]]
    return {
        "wall_s": sum(lat) / 1e9,
        "op_p50_ms": statistics.median(lat) / 1e6,
        "op_p90_ms": _quantile(lat, 8) / 1e6,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def _check(workload, result, goldens, full):
    """Indices of the failed ops of one pass, and whole-output problems."""
    failed = []
    outputs = [None] * len(goldens)
    for index, _, _, output, error in result["ops"]:
        outputs[index] = output
        if error is not None or output != goldens[index]:
            failed.append(index)
    problems = []
    if full and workload == "catalog":
        text = workloads.catalog_text(outputs) if None not in outputs else ""
        if hashlib.sha256(text.encode()).hexdigest() != workloads.CATALOG_SHA256:
            problems.append("catalog output differs from the seed's verify --all json")
    return failed, problems


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_sha():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qpl").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment():
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha(),
        "python": platform.python_version(),
        "nproc": NPROC,
        "timers": TIMER_NOTE,
    }


def run(args):
    if not (ROOT / "src" / "qpl" / "__init__.py").is_file():
        raise BenchError(f"no qpl sources under {ROOT / 'src'}; run from a source checkout")
    deadline = time.monotonic() + RUN_LIMIT_S
    goldens = workloads.load_goldens(args.workload)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    _worker(["--setup-only"], deadline)  # writes bytecode caches; not counted
    setups = [_worker(["--setup-only"], deadline) for _ in range(SETUP_PROBES)]

    base = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.limit is not None:
        base += ["--limit", str(args.limit)]
    if args.corrupt:
        base.append("--corrupt")

    untraced, traced = [], []
    loop_start = time.monotonic()
    if args.trace:
        untraced.append(_worker(base, deadline))
    while True:
        pass_start = time.monotonic()
        if args.trace:
            spans = OUT / f"spans-{tag}-pass{len(traced)}.jsonl"
            traced.append(_worker(base + ["--trace", str(spans)], deadline))
        else:
            untraced.append(_worker(base, deadline))
        now = time.monotonic()
        took = now - pass_start
        if now - loop_start + took > args.seconds or now + took > deadline:
            break

    passes = untraced + traced
    attempted = failed = 0
    problems = []
    for result in passes:
        bad, trouble = _check(args.workload, result, goldens, args.limit is None)
        attempted += len(result["ops"])
        failed += len(bad)
        problems += trouble

    per_pass = [_pass_metrics(r) for r in untraced]
    e2e = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    setups += passes
    e2e["setup_s"] = statistics.median(r["setup_s"] * r["setup_scale"] for r in setups)
    raw = [_pass_metrics(r, scaled=False) for r in untraced]
    raw_e2e = {name: statistics.median(p[name] for p in raw) for name in raw[0]}
    raw_e2e["setup_s"] = statistics.median(r["setup_s"] for r in setups)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "ops_per_pass": len(passes[0]["ops"]),
        "fail_ratio": failed / attempted,
        "problems": sorted(set(problems)),
        "untraced": per_pass,
        "untraced_raw": raw,
        "raw_end_to_end": raw_e2e,
        "environment": environment(),
    }
    if args.trace:
        traced_wall = statistics.median(_pass_metrics(r)["wall_s"] for r in traced)
        detail["trace_overhead_s"] = traced_wall - e2e["wall_s"]
        detail["missing_targets"] = traced[0]["missing"]
        detail["spans_recorded"] = [r["spans"] for r in traced]
        detail["spans_dropped"] = [r["dropped_spans"] for r in traced]
        metrics = {}
        scales = [_pass_metrics(r)["wall_s"] / _pass_metrics(r, False)["wall_s"] for r in traced]
        for name, unit, _ in LAYER_METRICS:
            values = [r["layers"][name] for r in traced]
            if name.endswith(".self_s") and None not in values:
                values = [v * k for v, k in zip(values, scales)]
            if None in values:
                metrics[name] = {"value": None, "unit": unit, "missing": True}
            else:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    detail["end_to_end"] = e2e
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1) + "\n")
    print("# " + json.dumps(detail))
    print(json.dumps(result))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="qpl benchmark (see the module docstring)")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--limit", type=int, default=None, help=argparse.SUPPRESS)
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if hasattr(os, "sched_setaffinity"):
        # One CPU for the whole run: the host's CPUs differ in speed, and the
        # speed samples must come from the CPU the ops run on.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
