import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)


def report(**values) -> bytes:
    doc = {"eigenvalues": [[1.5, -0.015], [2.5, -0.035]], "ok": True, "mode": "paper"}
    doc.update(values)
    return json.dumps(doc, indent=2, sort_keys=True).encode()


def test_numeric_moves_of_a_report():
    moved = report(eigenvalues=[[1.5, -0.0150001], [2.5000002, -0.035]])
    gap, where, rel, rel_where = compare_outputs.numeric_moves("r.json", report(), moved)
    assert where == "eigenvalues[1][0]" and gap == pytest.approx(2e-7)
    assert rel_where == "eigenvalues[0][1]" and rel == pytest.approx(1e-7 / 0.0150001)


def test_numeric_moves_of_a_csv_table():
    gap, where, rel, _ = compare_outputs.numeric_moves(
        "t.csv", b"re,im,mode\n1.5,2,paper\n", b"re,im,mode\n1.5,2.5,paper\n")
    assert (gap, where, rel) == (0.5, "[1][1]", 0.2)


@pytest.mark.parametrize("before, after", [
    (report(), report(ok=False)),
    (report(), report(mode="rederived")),
    (report(), report(eigenvalues=[[1.5, -0.015]])),
    (report(), report(extra=1)),
    # the bytes differ, but no number moved
    (report(), report().replace(b"  ", b"   ")),
    # not JSON on one side
    (report(), report()[:-1]),
])
def test_structural_differences_are_not_numeric_moves(before, after):
    assert compare_outputs.numeric_moves("r.json", before, after) is None


def test_blanked_timestamp_keeps_the_report_json():
    data = report(timestamp="2026-01-01T00:00:00+00:00")
    blanked = compare_outputs.TIMESTAMP.sub(rb"\1null", data, count=1)
    assert json.loads(blanked)["timestamp"] is None


def test_runs_reach_the_default_out_and_a_negative_value_after_a_space():
    runs = dict(compare_outputs.runs("c.cfg"))
    assert runs[compare_outputs.QWEYL_OUT_RUN][0] == "spectrum"
    assert any(argv[i:i + 2] == ["--theta", "-1e-2"]
               for argv in runs.values() for i in range(len(argv)))
