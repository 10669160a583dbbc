"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Checks, in about a minute:

* BENCHMARK.json names exactly the metrics the benchmark reports;
* the enumerate goldens belong to the current op list;
* the golden stream counts agree with ``overpartition_series``;
* every workload runs a few ops untraced and traced, with every metric
  reported and every op correct;
* a library that computes a wrong coefficient (or statistic) gives a
  ``fail_ratio`` above 0;
* in a directory holding only BENCHMARK.json and the benchmark's files, the
  benchmark exits with a nonzero code and prints no result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads
from layers import LAYER_METRICS
from run import END_TO_END

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
LIMIT = 12

failures = []


def check(ok, message):
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def bench(cwd, *args):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "7", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc.returncode, result, proc.stdout


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END.items()),
          "BENCHMARK.json end_to_end matches the reported metrics")
    check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
          == list(LAYER_METRICS), "BENCHMARK.json per_layer matches layers.LAYER_METRICS")
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json workloads match workloads.WORKLOADS")

    recorded = json.loads(workloads.golden_path("enumerate").read_text())["labels"]
    check(recorded == [op.label for op in workloads.ops("enumerate", None)],
          "enumerate goldens were recorded for the current op list")

    sys.path.insert(0, str(ROOT / "src"))
    import qpl

    expected = qpl.overpartition_series(workloads.TABLE_MAX_N).coeffs
    counts = [int(out.split()[0][len("count="):])
              for out in workloads.load_goldens("enumerate")[: workloads.TABLE_MAX_N + 1]]
    check(counts == list(expected), "golden stream counts equal overpartition_series(28)")

    for name in workloads.WORKLOADS:
        _, result, _ = bench(ROOT, "--workload", name, "--trace", "0", "--limit", str(LIMIT))
        check(result is not None and result["correct"] and result["failed"] == 0
              and result["attempted"] >= LIMIT,
              f"{name}: tiny untraced run is correct")
        check(result is not None and sorted(result["metrics"]) == sorted(END_TO_END)
              and all(m["value"] > 0 for m in result["metrics"].values()),
              f"{name}: every end-to-end metric is reported and positive")
        _, result, _ = bench(ROOT, "--workload", name, "--trace", "1", "--limit", str(LIMIT))
        names = [n for n, _, _ in LAYER_METRICS]
        check(result is not None and result["correct"] and sorted(result["metrics"]) == sorted(names)
              and not any(m.get("missing") for m in result["metrics"].values()),
              f"{name}: tiny traced run reports every per-layer metric")
        _, result, _ = bench(ROOT, "--workload", name, "--trace", "0", "--limit", str(LIMIT),
                             "--corrupt")
        check(result is not None and result["failed"] > 0 and not result["correct"],
              f"{name}: a corrupted library raises fail_ratio above 0")

    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, _, stdout = bench(bare, "--workload", "catalog", "--trace", "0")
    check(code != 0 and not stdout.strip(),
          "without the sources the benchmark fails, printing no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
