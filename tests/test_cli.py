import io
import json
import time
from pathlib import Path

import pytest

from qpl.cli import run
from qpl.identities import IDENTITIES, catalog_instances

# `qpl verify --all --trunc 25 --format json` as recorded before any refactor
# of the catalog (sha256 a97ad784...36eb3778aa); read here, never rewritten.
CATALOG_GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "goldens" / "catalog.json"


def _run(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


def test_enum_all_counts():
    code, text = _run(["enum", "--n", "4"])
    assert code == 0
    lines = text.splitlines()
    assert len(lines) == 14
    assert lines == sorted(lines)


def test_enum_classes():
    code, text = _run(["enum", "--n", "4", "--class", "L", "--k", "2"])
    assert code == 0 and len(text.splitlines()) == 12
    code, text = _run(["enum", "--n", "4", "--class", "F", "--k", "2"])
    assert code == 0 and len(text.splitlines()) == 9
    code, _ = _run(["enum", "--n", "4", "--class", "L"])
    assert code == 2  # missing --k


def test_enum_zero():
    code, text = _run(["enum", "--n", "0"])
    assert code == 0 and text == "\n"


def test_stat_values():
    assert _run(["stat", "--parts", "2,2", "--r", "2", "--stat", "mes"]) == (0, "3\n")
    assert _run(["stat", "--parts", "5,1~", "--r", "2", "--stat", "maes"]) == (0, "4\n")
    assert _run(["stat", "--parts", "3,1~", "--stat", "conjugate"]) == (0, "2~,1,1\n")
    assert _run(["stat", "--parts", "1,1,1,1~", "--r", "2", "--stat", "lrs"]) == (0, "1\n")
    assert _run(["stat", "--parts", "4", "--r", "2", "--stat", "sprs"]) == (0, "none\n")
    assert _run(["stat", "--parts", "2,2,2~", "--r", "2", "--stat", "sprs"]) == (0, "2\n")


def test_stat_errors():
    code, _ = _run(["stat", "--parts", "1,2", "--stat", "mes"])
    assert code == 2
    code, _ = _run(["stat", "--parts", "2,1", "--convention", "first",
                    "--stat", "conjugate"])
    assert code == 2
    code, _ = _run(["stat", "--parts", "2,1", "--r", "0", "--stat", "mes"])
    assert code == 2


def test_basis_listing():
    code, text = _run(["basis", "--family", "BL", "--k", "2", "--m", "5"])
    assert code == 0
    assert len(text.splitlines()) == 8
    assert "2,2,2~,1,1" in text.splitlines()
    code, text = _run(["basis", "--family", "BF", "--k", "2", "--m", "5"])
    assert code == 0
    assert text.splitlines() == sorted(text.splitlines())
    assert len(text.splitlines()) == 4


def test_decompose_output():
    code, text = _run(["decompose", "--parts", "4,4,3~,2,1",
                       "--family", "BL", "--k", "2"])
    assert code == 0
    assert text.splitlines() == ["2,2,2~,1,1", "2,2,1,1,0"]
    code, _ = _run(["decompose", "--parts", "3~,1", "--family", "BL", "--k", "2"])
    assert code == 2  # not a class member


def test_table_matches_reference_values():
    code, text = _run(["table", "--stat", "mes", "--r", "2", "--n", "4"])
    assert code == 0
    got = dict(line.split("\t") for line in text.splitlines())
    want = {
        "4": "1", "4~": "1", "3,1": "4", "3~,1": "4", "3,1~": "4", "3~,1~": "4",
        "2,2": "3", "2,2~": "3", "2,1,1": "3", "2~,1,1": "3", "2,1,1~": "3",
        "2~,1,1~": "3", "1,1,1,1": "2", "1,1,1,1~": "2",
    }
    assert got == want


def test_table_maes_positive_subset():
    code, text = _run(["table", "--stat", "maes", "--r", "2", "--n", "6"])
    assert code == 0
    got = dict(line.split("\t") for line in text.splitlines())
    positive = {k: v for k, v in got.items() if v != "0"}
    assert positive == {
        "6": "5", "6~": "5", "5,1": "4", "5~,1": "4", "5,1~": "4", "5~,1~": "4",
        "4,1,1": "3", "4~,1,1": "3", "4,1,1~": "3", "4~,1,1~": "3",
        "3,3": "2", "3,3~": "2",
    }


def test_verify_single_pass_and_fail_exit_codes():
    code, text = _run(["verify", "--identity", "I16", "--trunc", "20"])
    assert code == 0
    assert all(line.endswith("pass") for line in text.splitlines())
    code, text = _run(["verify", "--identity", "I2", "--r", "1",
                       "--form", "subtracted", "--trunc", "12"])
    assert code == 1
    assert "fail" in text and "q^8" in text
    code, _ = _run(["verify", "--identity", "I2", "--r", "1",
                    "--form", "corrected", "--trunc", "12"])
    assert code == 0


def test_verify_json_output():
    code, text = _run(["verify", "--identity", "I17", "--k", "2", "--j", "3",
                       "--trunc", "20", "--format", "json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["identity"] == "I17"
    assert payload["status"] == "pass"
    assert payload["params"] == {"k": 2, "j": 3}
    # byte-identical across runs
    assert _run(["verify", "--identity", "I17", "--k", "2", "--j", "3",
                 "--trunc", "20", "--format", "json"])[1] == text


def test_verify_grid_when_params_partial():
    code, text = _run(["verify", "--identity", "I9", "--r", "2", "--trunc", "15"])
    assert code == 0
    assert len(text.splitlines()) == 8  # the m grid at fixed r
    code, text = _run(["verify", "--identity", "I9", "--r", "2", "--m", "3",
                       "--trunc", "15", "--format", "tsv"])
    assert code == 0
    assert text.splitlines() == ["I9\tm=3,r=2\t15\tpass\t0"]


def test_verify_bound_far_above_the_truncation():
    # Any positive --n is accepted; past the truncation it costs no more.
    start = time.perf_counter()
    code, text = _run(["verify", "--identity", "I6", "--r", "1", "--n", "1000000000",
                       "--trunc", "10", "--format", "tsv"])
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert text.splitlines() == [
        f"I6\tform={form},n=1000000000,r=1\t10\tpass\t0" for form in ("subtracted", "corrected")
    ]


def test_verify_binomial_with_parameters_far_above_the_truncation():
    code, text = _run(["verify", "--identity", "I16", "--A", "1000000", "--B", "500000",
                       "--k", "1", "--trunc", "10", "--format", "tsv"])
    assert code == 0
    assert text.splitlines() == ["I16\tA=1000000,B=500000,k=1\t10\tpass\t0"]


def test_verify_guard_is_usage_error():
    code, _ = _run(["verify", "--identity", "I2", "--trunc", "50"])
    assert code == 2
    code, _ = _run(["verify", "--identity", "I15", "--trunc", "500"])
    assert code == 2


def test_verify_usage_errors():
    assert _run(["verify"])[0] == 2
    assert _run(["verify", "--identity", "I1", "--all"])[0] == 2
    assert _run(["verify", "--identity", "I1", "--m", "3"])[0] == 2
    assert _run(["verify", "--identity", "I2", "--k", "1"])[0] == 2
    assert _run(["verify", "--identity", "I99"])[0] == 2
    assert _run(["bogus"])[0] == 2


def test_verify_dump():
    code, text = _run(["verify", "--identity", "I16", "--A", "2", "--B", "1",
                       "--k", "1", "--trunc", "4", "--dump"])
    assert code == 0
    assert "# I16 equation 1: binomial" in text
    assert "0\t1\n1\t1" in text


def test_trunc_env_override(monkeypatch):
    monkeypatch.setenv("QPL_TRUNC", "6")
    code, text = _run(["verify", "--identity", "I15", "--format", "tsv"])
    assert code == 0
    assert text.splitlines() == ["I15\t\t6\tpass\t0"]
    monkeypatch.setenv("QPL_TRUNC", "oops")
    assert _run(["verify", "--identity", "I15"])[0] == 2


@pytest.mark.parametrize("text", ("1_0", " 10", "+10", "010", "\u0663", "10 ", "1e1", "0x10"))
def test_integer_flags_take_canonical_ascii_text_only(text, monkeypatch):
    assert _run(["verify", "--identity", "I17", "--k", "1", "--j", "1", "--trunc", text])[0] == 2
    assert _run(["verify", "--identity", "I17", "--k", text, "--j", "1", "--trunc", "10"])[0] == 2
    assert _run(["enum", "--n", text])[0] == 2
    assert _run(["table", "--stat", "mes", "--r", text, "--n", "3"])[0] == 2
    monkeypatch.setenv("QPL_TRUNC", text)
    assert _run(["verify", "--identity", "I15"])[0] == 2


def test_integer_flags_take_canonical_text():
    assert _run(["verify", "--identity", "I17", "--k", "1", "--j", "1", "--trunc", "10",
                 "--format", "tsv"]) == (0, "I17\tj=1,k=1\t10\tpass\t0\n")
    assert _run(["enum", "--n", "0"]) == (0, "\n")
    assert _run(["enum", "--n", "-1"])[0] == 2  # canonical, then refused as negative


def test_help_exits_zero():
    assert _run(["--help"])[0] == 0
    assert _run(["verify", "--help"])[0] == 0


def test_catalog_instances_match_the_recorded_catalog():
    recorded = json.loads(CATALOG_GOLDEN.read_text())
    want = [(r["identity"], r["params"], r["trunc"]) for r in recorded]
    assert len(want) == 831
    got = catalog_instances(25)
    # reports carry normalized parameters, defaults filled in
    assert [(i, IDENTITIES[i].normalize(p), n) for i, p, n in got] == want
    # an override reaches only the entries that take it
    only_r1 = catalog_instances(25, ("I2", "I11"), {"r": 1})
    assert only_r1 == [("I2", {"r": 1, "form": "subtracted"}, 25),
                       ("I2", {"r": 1, "form": "corrected"}, 25)] + \
        [("I11", {"k": k}, 25) for k in (1, 2, 3, 4)]
    with pytest.raises(ValueError):
        catalog_instances(25, ("I2",), {"k": 1})


def test_verify_all_json_is_the_recorded_catalog():
    code, text = _run(["verify", "--all", "--trunc", "25", "--format", "json"])
    assert code == 1  # the subtracted partial-sum forms fail, as recorded
    assert text == CATALOG_GOLDEN.read_text()
