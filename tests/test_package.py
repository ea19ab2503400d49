"""The package's public names, and the README against the method table."""

import re
from pathlib import Path

import blockgp
from blockgp.model import METHODS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves_and_the_list_is_sorted_and_unique():
    names = blockgp.__all__
    missing = [name for name in names if not hasattr(blockgp, name)]
    assert missing == []
    assert names == sorted(names)
    assert len(set(names)) == len(names)


def _table(header):
    """The README table under header, as {first ticked name: cells}."""
    lines = README.read_text().splitlines()
    rows = {}
    for line in lines[lines.index(header) + 2:]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if _ticked(cells[0]):
            rows[_ticked(cells[0])[0]] = cells
    return rows


def _ticked(cell):
    return re.findall(r"`([^`]+)`", cell)


def test_the_readme_method_table_and_config_rows_match_the_method_table():
    trainable = [name for name, row in METHODS.items() if row.penalty is not None]

    rows = _table(
        "| method | scaling structure | penalty | partition | α | stochastic "
        "| gap scale | collapsed entry point |"
    )
    assert sorted(rows) == sorted(trainable)
    yes = {"yes": True, "no": False}
    for name, cells in rows.items():
        row = METHODS[name]
        assert _ticked(cells[2]) == [f'"{row.penalty}"'], name
        assert cells[3] == row.partition, name
        assert yes[cells[4]] == row.alpha, name
        assert yes[cells[5]] == row.stochastic, name
        assert yes[cells[6]] == row.gap_scale, name

    config = _table("| key | default | meaning |")
    assert _ticked(config["method"][2]) == trainable
    with_alpha = [name for name in trainable if METHODS[name].alpha]
    assert _ticked(config["alpha"][2]) == with_alpha
