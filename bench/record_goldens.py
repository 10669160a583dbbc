"""Record the expected output of every benchmark op.

    python3 bench/record_goldens.py

Goldens are recorded once, at the commit whose outputs are known good, and
never regenerated to make a run pass: the script refuses to overwrite an
existing golden file.  It checks, before writing anything:

* the catalog text is byte-identical to the seed's
  ``qpl verify --all --trunc 25 --format json`` (sha256 below), including the
  documented I2/I4/I6 ``subtracted`` mismatches, which are data;
* every series-workload report passes;
* each ``overpartitions_of(n)`` stream has as many objects as the
  coefficient of q^n in ``overpartition_series``.
"""

import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import qpl  # noqa: E402
from qpl.cli import run as cli_run  # noqa: E402

import workloads  # noqa: E402


def catalog() -> str:
    out = io.StringIO()
    cli_run(["verify", "--all", "--trunc", "25", "--format", "json"], out=out)
    text = out.getvalue()
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != workloads.CATALOG_SHA256:
        raise SystemExit(f"catalog output has sha256 {digest}, not the seed's")
    return text


def series() -> str:
    reports = qpl.verify_all(workloads.SERIES_TRUNC, workloads.SERIES_IDENTITIES)
    failed = [r.identity for r in reports if not r.passed]
    if failed:
        raise SystemExit(f"series reports fail: {failed}")
    return workloads.catalog_text(r.to_json() for r in reports)


def enumerate_() -> str:
    expected = qpl.overpartition_series(workloads.TABLE_MAX_N).coeffs
    labels, outputs = [], []
    for op in workloads.ops("enumerate", qpl):
        output = op.output(op.run())
        if op.label.startswith("table"):
            n = int(op.label.rsplit("=", 1)[1])
            if not output.startswith(f"count={expected[n]} "):
                raise SystemExit(f"{op.label}: {output} but the series says {expected[n]}")
        labels.append(op.label)
        outputs.append(output)
    return json.dumps({"labels": labels, "outputs": outputs}, indent=1) + "\n"


def main() -> int:
    for name, make in (("catalog", catalog), ("series", series), ("enumerate", enumerate_)):
        path = workloads.golden_path(name)
        if path.exists():
            print(f"{path} exists; goldens are never regenerated", file=sys.stderr)
            continue
        path.parent.mkdir(exist_ok=True)
        path.write_text(make())
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
