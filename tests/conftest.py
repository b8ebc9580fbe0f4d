import hashlib
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

REPO = Path(__file__).resolve().parent.parent
MODELS = REPO / "models"


@pytest.fixture(scope="session")
def models_dir() -> Path:
    return MODELS


def _export_digest(ts) -> str:
    """One SHA-256 over the PRISM, DOT and JSON exports of ts."""
    from bigrs.export import export_dot, export_json, export_prism

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        export_prism(ts, out / "prism", "m")
        export_dot(ts, out / "dot", "m")
        export_json(ts, out / "json", "m")
        h = hashlib.sha256()
        for f in sorted(out.glob("*/*")):
            h.update(f.name.encode() + b"\0" + f.read_bytes())
        return h.hexdigest()


def _shared_closure(path: Path):
    """The closure of the model at `path`, built once per session and
    shared read-only: at the session's end its export digest must be the
    one it had when built."""
    from bigrs.language import load_model
    from bigrs.system import build_transition_system

    ts = build_transition_system(load_model(path))
    before = _export_digest(ts)
    yield ts
    assert _export_digest(ts) == before, f"a test changed the closure of {path.name}"


@pytest.fixture(scope="session")
def wsn_ts():
    yield from _shared_closure(MODELS / "wsn.big")


@pytest.fixture(scope="session")
def send_mdp_ts():
    yield from _shared_closure(MODELS / "send_mdp.big")


@pytest.fixture(scope="session")
def virus_ts():
    yield from _shared_closure(MODELS / "virus.big")


@pytest.fixture(scope="session")
def budding_ts():
    yield from _shared_closure(MODELS / "budding.big")


@pytest.fixture(scope="session")
def sink2_ts():
    yield from _shared_closure(REPO / "bench" / "models" / "mobile_sink2.big")
