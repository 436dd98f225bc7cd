"""The benchmark tracer's targets must exist in the package.

``perfbench/tracer.py`` binds every ``(module, function)`` of its ``TARGETS``
with ``getattr`` and no default, so a removed or renamed function breaks
``perfbench --trace 1``.  This reads the table without importing perfbench
as a package and changes nothing there.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_targets_resolve_in_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module, function, _span in tracer.TARGETS:
        mod = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        assert callable(getattr(mod, function, None)), f"{module}.{function} is gone"
