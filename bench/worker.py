"""One benchmark pass in a fresh process, so the library's caches start cold.

Usage (started by run.py, not by hand):

    python3 bench/worker.py --t0 NS --workload W --seed S [--trace SPANS]
                            [--limit K] [--corrupt] [--setup-only]

``--t0`` is the parent's ``time.monotonic_ns()`` just before it started this
process; set-up time runs from there until ``qpl`` is imported.  The pass
prints one JSON object: set-up time and the reference loop times that follow
it (see speed.py), peak RSS, and per op its index, latency in ns (raw, and
scaled to reference speed), output string and error.
"""

import time

# qpl is imported before anything else, so that set-up time is the
# interpreter's start plus the library's import and nothing of the bench.
import qpl

_IMPORTED_NS = time.monotonic_ns()

import argparse
import json
import random
import resource
import sys
from contextlib import nullcontext
from pathlib import Path

import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _corrupt(workload: str):
    """Make the library compute one wrong value per affected op: the top
    q-coefficient of every dense product, or one excludant size."""
    if workload == "enumerate":
        original = qpl.min_excludant_size

        def wrong(pi, r):
            value = original(pi, r)
            return value + 1 if pi.weight == pi.num_parts else value

        qpl.min_excludant_size = wrong
        return
    series = qpl.series
    original_mul = series.QSeries.__mul__

    def wrong_mul(self, other):
        out = original_mul(self, other)
        coeffs = list(out.coeffs)
        coeffs[-1] += 1
        return series.QSeries._make(coeffs, out.trunc)

    series.QSeries.__mul__ = series.QSeries.__rmul__ = wrong_mul


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--t0", type=int, required=True)
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", default=None, help="write span records to this file")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--corrupt", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    setup_s = (_IMPORTED_NS - args.t0) / 1e9
    setup_refs = [speed.reference() for _ in range(5)]
    src = (ROOT / "src").resolve()
    if src not in Path(qpl.__file__).resolve().parents:
        print(f"qpl was imported from {qpl.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_refs": setup_refs}))
        return 0

    op_list = workloads.ops(args.workload, qpl)
    order = list(range(len(op_list)))
    random.Random(args.seed).shuffle(order)
    if args.limit is not None:
        order = order[: args.limit]
    if args.corrupt:
        _corrupt(args.workload)
    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()

    now = time.perf_counter_ns
    intervals = []  # (start, end) of each op, for its speed scale
    results = []
    with speed.SpeedLog() as log:
        for index in order:
            op = op_list[index]
            error = output = None
            try:
                with tracer.op(op.label) if tracer else nullcontext():
                    start = now()
                    result = op.run()
                    end = now()
            except Exception as exc:  # an op that raises is a failed op, not a crash
                end = now()
                error = f"{type(exc).__name__}: {exc}"
            else:
                output = op.output(result)
                del result
            intervals.append((start, end))
            results.append([index, end - start, None, output, error])
    for row, (start, end) in zip(results, intervals):
        row[2] = (end - start) * log.scale(start, end)

    out = {
        "setup_s": setup_s,
        "setup_refs": setup_refs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": results,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["missing"] = tracer.missing
        out["spans"] = len(tracer.spans)
        out["dropped_spans"] = tracer.dropped_spans
        tracer.write_spans(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
