"""The benchmark's tracer wraps costsense functions by name.

``perfbench/tracer.py`` lists its targets as ``"<module>.<function>"`` under
the costsense package and patches each one when a traced run starts; a
target that no longer exists breaks every traced run. The tracer is read
here, never changed, so a refactor that deletes or renames a traced
function fails this test instead.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets() -> list[str]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return sorted(tracer.TARGETS)


@pytest.mark.parametrize("target", _targets())
def test_each_traced_target_resolves_in_costsense(target):
    module_name, function_name = target.split(".")
    module = importlib.import_module("costsense." + module_name)
    assert callable(getattr(module, function_name, None)), target
