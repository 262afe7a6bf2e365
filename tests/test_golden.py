"""Golden bytes of the shipped configs: a change that moves an output bit edits ``golden.json``.

``golden.json`` holds the sha256 of ``tune`` and ``verify`` stdout and of each file of the
``run`` artifact set (keyed by file name) for every shipped config a command applies to,
and the numpy version it was recorded with.  The test recomputes every digest in-process.
On another numpy version it skips, naming both; on a mismatch its message prints the
recomputed table, which replaces the file's ``outputs`` once the change is announced.
The test never writes the file.  Its ``workloads`` entry pins the seed-1 output digests of the
benchmark's gated workloads, which ``test_benchmark_hooks.py`` compares.
"""

import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from cesaro_lmc import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"
# config -> the commands whose outputs are pinned
COMMANDS = {
    "ou_smoke": ("tune", "verify", "run"),
    "conjugate_posterior": ("tune", "verify", "run"),
    "conjugate_n_grid": ("tune", "verify", "run"),
    "p_power_verify": ("verify",),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(cfg: dict, command: str, outdir: Path):
    """The sha256 of ``command``'s stdout, or for ``run`` of each artifact by file name."""
    out = io.StringIO()
    if command == "run":
        assert cli.cmd_run(cfg, output_dir=outdir, out=out) == cli.EXIT_OK
        return {p.name: _sha(p.read_bytes()) for p in sorted(outdir.iterdir())}
    code = cli.cmd_tune(cfg, out=out) if command == "tune" else cli.cmd_verify(cfg, out=out)
    assert code == cli.EXIT_OK
    return _sha(out.getvalue().encode("utf-8"))


def recompute(workdir: Path) -> dict:
    """Every digest the table pins, from the configs under ``configs/``."""
    table = {}
    for name, commands in COMMANDS.items():
        cfg = cli.load_config(ROOT / "configs" / f"{name}.json")
        table[name] = {c: _digests(cfg, c, workdir / name) for c in commands}
    return table


def test_shipped_config_outputs_match_the_golden_table(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    if golden["numpy"] != np.__version__:
        pytest.skip(f"golden.json was recorded with numpy {golden['numpy']}, "
                    f"this is numpy {np.__version__}")
    table = recompute(tmp_path)
    assert table == golden["outputs"], ("output bytes moved; the recomputed table is\n"
                                        + json.dumps(table, indent=2, sort_keys=True))
