"""The benchmark's workloads: their ops and how an op's output is written.

One op is one library call made and timed by the benchmark.  Every op's
output is a string compared exactly with the golden recorded at the seed
commit (see ``record_goldens.py``).

* ``catalog``: the instances that ``qpl verify --all --trunc 25`` runs, one
  ``verify`` call each; the output is the report JSON.
* ``enumerate``: ``overpartitions_of(n)`` with ``min_excludant_size(pi, 2)``
  per object for n = 0..28 (the stream ``qpl table --stat mes --r 2``
  prints), then ``enumerate_class`` for L_k and F_k (k = 1..4, n = 1..20)
  with a ``decompose`` -> ``compose`` round trip on every member.  The
  output is the object count and the sha256 of the written stream.
* ``series``: ``verify_all(300, ("I13", "I14", "I15", "I16", "I17"))``, one
  ``verify`` call per instance; the output is the report JSON.

The catalog and series ops are read from their golden files, which hold the
seed's reports in catalog order, so the parameter grids are the seed's.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDENS = Path(__file__).resolve().parent / "goldens"

WORKLOADS = ("catalog", "enumerate", "series")

# sha256 of the seed's `qpl verify --all --trunc 25 --format json` output.
CATALOG_SHA256 = "a97ad78459a66bdddf0e10ef140423bc8e8491bbc7b49a3e2ae82236eb3778aa"
SERIES_TRUNC = 300
SERIES_IDENTITIES = ("I13", "I14", "I15", "I16", "I17")
TABLE_MAX_N = 28
TABLE_R = 2
CLASS_KS = (1, 2, 3, 4)
CLASS_MAX_N = 20


def report_json(report: dict) -> str:
    """A report in the byte form of ``VerificationReport.to_json``."""
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def catalog_text(outputs) -> str:
    """The CLI's ``--format json`` text for reports given in catalog order."""
    return "[" + ",".join(outputs) + "]\n"


def golden_path(workload: str) -> Path:
    return GOLDENS / f"{workload}.json"


def load_goldens(workload: str) -> list:
    """Expected output of every op, indexed like :func:`ops`."""
    text = golden_path(workload).read_text()
    if workload == "enumerate":
        return json.loads(text)["outputs"]
    return [report_json(r) for r in json.loads(text)]


class Op:
    """One timed library call.  ``run`` does the timed work and returns its
    raw result; ``output`` turns that result into the compared string."""

    __slots__ = ("label", "run", "output")

    def __init__(self, label, run, output):
        self.label = label
        self.run = run
        self.output = output


def ops(workload: str, qpl) -> list:
    """The workload's ops, in golden order.  ``qpl`` is the imported
    package; every call looks its function up on it when the op runs, so a
    tracer installed later sees the call."""
    if workload == "enumerate":
        return _table_ops(qpl) + _class_ops(qpl)
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    reports = json.loads(golden_path(workload).read_text())
    return [_verify_op(qpl, r["identity"], r["params"], r["trunc"]) for r in reports]


def _verify_op(qpl, identity, params, trunc):
    label = f"{identity}[{','.join(f'{k}={v}' for k, v in sorted(params.items()))}]@{trunc}"
    return Op(label, lambda: qpl.verify(identity, params, trunc),
              lambda report: report.to_json())


def _digest(lines) -> str:
    count = 0
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
        count += 1
    return f"count={count} sha256={h.hexdigest()}"


def _table_ops(qpl):
    def make(n):
        def run():
            stat = qpl.min_excludant_size
            pis = list(qpl.overpartitions_of(n))
            return pis, [stat(pi, TABLE_R) for pi in pis]

        def output(result):
            pis, values = result
            return _digest(f"{pi.text()}\t{v}" for pi, v in zip(pis, values))

        return Op(f"table mes r={TABLE_R} n={n}", run, output)

    return [make(n) for n in range(TABLE_MAX_N + 1)]


def _class_ops(qpl):
    def make(family, k, n):
        basis_family = "B" + family

        def run():
            decompose, compose = qpl.decompose, qpl.compose
            members = list(qpl.enumerate_class(n, qpl.ClassTag(family, k)))
            witnesses = [decompose(pi, basis_family, k) for pi in members]
            return members, witnesses, [compose(w) for w in witnesses]

        def output(result):
            members, witnesses, composed = result
            if composed != members:
                return "compose(decompose(pi)) != pi"
            return _digest(
                f"{pi.text()}\t{w.basis.text()}\t{','.join(map(str, w.padding))}"
                for pi, w in zip(members, witnesses)
            )

        return Op(f"class {family}_{k} n={n}", run, output)

    return [make(family, k, n) for family in ("L", "F") for k in CLASS_KS
            for n in range(1, CLASS_MAX_N + 1)]
