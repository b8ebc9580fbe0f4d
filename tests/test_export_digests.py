"""Byte identity of the exports and seeded traces of the shipped models.

For the five `models/*.big` and `bench/models/mobile_sink2.big` the test
hashes the PRISM, DOT and JSON exports, the ``--rewards-as-states``
bundle of the two MDP models, and ``bigrs sim`` output for seeds 1-3
(300 steps), and compares each SHA-256 with `data/export_digests.json`.
A refactor leaves every digest unchanged.  A change that alters an
export on purpose regenerates the file with

    PYTHONPATH=src python tests/test_export_digests.py > tests/data/export_digests.json

and says in CHANGES.md why the bytes moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from bigrs.cli import main
from bigrs.export import export_dot, export_json, export_prism
from bigrs.language import load_model
from bigrs.system import build_transition_system

REPO = Path(__file__).resolve().parent.parent
MODELS = {
    p.stem: p
    for p in [
        *sorted((REPO / "models").glob("*.big")),
        REPO / "bench" / "models" / "mobile_sink2.big",
    ]
}
DIGESTS = Path(__file__).resolve().parent / "data" / "export_digests.json"
FIXTURES = {  # the shared closures of conftest
    "wsn": "wsn_ts",
    "send_mdp": "send_mdp_ts",
    "virus": "virus_ts",
    "budding": "budding_ts",
    "mobile_sink2": "sink2_ts",
}
MDPS = ("send_mdp", "mobile_sink")
SEEDS = (1, 2, 3)
STEPS = 300


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(name: str, ts, out_dir: Path) -> dict:
    """SHA-256 of every export and seeded trace of one model, keyed by
    ``<format>/<file name>`` and ``sim/seed<S>``."""
    export_prism(ts, out_dir / "prism", name)
    if name in MDPS:
        export_prism(ts, out_dir / "rewards_as_states", name, rewards_as_states=True)
    export_dot(ts, out_dir / "dot", name)
    export_json(ts, out_dir / "json", name)
    out = {
        f"{f.parent.name}/{f.name}": _sha(f.read_bytes())
        for f in sorted(out_dir.glob("*/*"))
    }
    for seed in SEEDS:
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            rc = main(["sim", str(MODELS[name]), "--steps", str(STEPS),
                       "--seed", str(seed)])
        assert rc == 0
        out[f"sim/seed{seed}"] = _sha(text.getvalue().encode())
    return out


def _build(name: str):
    return build_transition_system(load_model(MODELS[name]))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_exports_and_traces_are_byte_identical(name, request, tmp_path):
    ts = (
        request.getfixturevalue(FIXTURES[name]) if name in FIXTURES
        else _build(name)
    )
    expected = json.loads(DIGESTS.read_text())[name]
    assert digests(name, ts, tmp_path) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {
            name: digests(name, _build(name), Path(tmp) / name)
            for name in sorted(MODELS)
        }
    json.dump(table, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
