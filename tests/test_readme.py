"""The README's library quick start runs as written, its CLI tables are the schema's, and
its mutant count is the mutation table's."""

import contextlib
import importlib.util
import io
import re
from pathlib import Path

from cesaro_lmc import cli

README = Path(__file__).resolve().parent.parent / "README.md"
MUTANTS = Path(__file__).resolve().parent / "test_mutants.py"


def test_quick_start_runs():
    section = README.read_text().split("## Quick start (library)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, "README.md quick start", "exec"), {})
    mse, eps_n_sq = map(float, printed.getvalue().split())
    assert 0.0 < mse < eps_n_sq


def test_the_cli_tables_are_the_schema():
    """The README's family, regime and task rows are the keyed tables of ``cli._SCHEMA``:
    each row names the keys its block may hold (a family's params, required ones in bold)."""
    section = README.read_text().split("## CLI", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 3:
            rows[cells[0].strip("`"), cells[1].strip("`")] = (
                set(re.findall(r"`(\w+)`", cells[2])), set(re.findall(r"\*\*`(\w+)`\*\*", cells[2])))
    expected = {}
    for name, key in [("model", "family"), ("potential", "family"), ("tuning", "regime"),
                      ("oracle", "task")]:
        for value, (table, _) in cli._SCHEMA[name].rows.items():
            keys = table.get("params", {k: v for k, v in table.items() if k != key})
            expected[name, value] = (
                set(keys), {k for k, v in keys.items() if getattr(v, "required", False)})
    assert rows == expected


def test_the_stated_mutant_count_is_the_table_length():
    spec = importlib.util.spec_from_file_location("readme_mutants", MUTANTS)
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    stated = re.search(r"\((\d+) mutants and the control", README.read_text())
    assert int(stated.group(1)) == len(mutants.MUTANTS)
