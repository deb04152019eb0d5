"""The benchmark's tracer wraps trihom functions by name; each must exist.

perfbench/ has its own self-tests, which the tier-1 suite does not collect.
A name listed in the tracer's TARGETS that the program no longer has makes
those self-tests fail and silently drops the benchmark's metrics for it, so
this test reads TARGETS (without importing perfbench as a package or writing
into its directory) and resolves every name in the loaded trihom modules.
"""

import importlib
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_targets() -> dict[str, tuple[str, ...]]:
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module.TARGETS


def test_every_traced_name_resolves() -> None:
    targets = tracer_targets()
    assert targets
    missing = []
    for layer, names in targets.items():
        module = importlib.import_module(f"trihom.{layer}")
        for name in names:
            owner = module
            for part in name.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{layer}.{name}")
    assert not missing, f"perfbench/tracer.py TARGETS names missing from trihom: {missing}"
