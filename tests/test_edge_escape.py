import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "edge_escape", _ROOT / "tools" / "edge_escape.py")
edge_escape = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(edge_escape)


def test_rows_match_the_readme_table(capsys):
    assert edge_escape.main(["8", "10", "12"]) == 0
    lines = capsys.readouterr().out.splitlines()
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Edge escape", 1)[1].splitlines()
    for n_max in (8, 10, 12):
        row = next(line for line in lines if line.startswith(f"| {n_max} |"))
        assert row in table, row
    # a growing slope has a negative p, printed as one positive exponent
    assert ("θ=0.05 paper: stopped at 3 of 3 cutoffs; "
            "dt_edge/dn_max = 0.117 * n_max^0.127") in lines
    assert "θ=0.05 rederived: stopped at 2 of 3 cutoffs; no fit" in lines
