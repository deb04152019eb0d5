"""Byte-level snapshot of the command line tool's output.

Every corpus entry and every diagram fixture goes through all six commands,
in both formats, and for homology, w2 and spin through every route choice.
The commands whose output --assert-standard-position can change (report,
and w2 and spin by the y route or all routes) run once more with it, under
keys ending in ":asserted".
Each output is hashed together with its exit code and compared with
tests/cli_digests.json. After a change that is meant to alter some
outputs, rewrite the snapshot with

    PYTHONPATH=src python tests/test_cli_digests.py

which prints each key that changed, appeared or disappeared before it
writes, and name those keys in the change's description.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from corpus import corpus  # noqa: E402
from trihom.cli import run  # noqa: E402
from trihom.surface import Diagram  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures"
SNAPSHOT = Path(__file__).parent / "cli_digests.json"

COMMANDS = ("validate", "homology", "form", "w2", "spin", "report")
ROUTED = ("homology", "w2", "spin")
CHOICES = ("y", "z", "closed", "all")
ASSERTED = (("report", "all"), ("w2", "y"), ("w2", "all"), ("spin", "y"), ("spin", "all"))


def _payload(d: Diagram) -> dict:
    obj = {
        "mode": "class",
        "g": d.sig.g,
        "p": d.sig.p,
        "b": d.sig.b,
        "alpha": [list(c) for c in d.alpha],
        "beta": [list(c) for c in d.beta],
        "gamma": [list(c) for c in d.gamma],
    }
    if d.k is not None:
        obj["k"] = list(d.k)
    if d.arcs is not None:
        obj["arcs"] = [list(d.arcs.column(j)) for j in range(d.arcs.cols)]
    if d.standard_position:
        obj["standard_position_assertion"] = True
    return obj


def _sources() -> dict[str, dict]:
    out = {f"corpus/{e.name}": _payload(e.diagram) for e in corpus()}
    for path in sorted(FIXTURES.glob("*.json")):
        out[f"fixture/{path.stem}"] = json.loads(path.read_text())
    return out


def _runs(source: str):
    """(key, command, route choice, format, assertion) of each output of source."""
    plain = [(c, ch, False) for c in COMMANDS for ch in (CHOICES if c in ROUTED else ("all",))]
    for command, choice, asserted in plain + [(c, ch, True) for c, ch in ASSERTED]:
        for fmt in ("json", "text"):
            key = f"{source}:{command}:{choice}:{fmt}" + (":asserted" if asserted else "")
            yield key, command, choice, fmt, asserted


def _digests(source: str, obj: dict, workdir: Path) -> dict[str, str]:
    path = workdir / "diagram.json"
    path.write_text(json.dumps(obj))
    out = {}
    for key, command, choice, fmt, asserted in _runs(source):
        code, text = run(command, str(path), complex_choice=choice, fmt=fmt,
                         assert_standard=asserted)
        out[key] = hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()
    return out


SOURCES = _sources()


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_outputs_match_snapshot(source: str, tmp_path: Path) -> None:
    want = json.loads(SNAPSHOT.read_text())
    got = _digests(source, SOURCES[source], tmp_path)
    changed = sorted(k for k in got if want.get(k) != got[k])
    assert not changed, changed


def test_snapshot_has_no_stale_key() -> None:
    produced = {key for source in SOURCES for key, *_ in _runs(source)}
    stale = sorted(set(json.loads(SNAPSHOT.read_text())) - produced)
    assert not stale, stale


def _write_snapshot() -> None:
    """Rewrite the snapshot, first printing each key whose digest changed,
    appeared or disappeared."""
    old = json.loads(SNAPSHOT.read_text()) if SNAPSHOT.exists() else {}
    digests: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for source, obj in SOURCES.items():
            digests.update(_digests(source, obj, Path(tmp)))
    for key in sorted(old.keys() | digests.keys()):
        if key not in digests:
            print(f"removed {key}")
        elif key not in old:
            print(f"added {key}")
        elif old[key] != digests[key]:
            print(f"changed {key}")
    SNAPSHOT.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _write_snapshot()
