"""Import the package from the ``src`` tree of the checkout this file sits in."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("scenario", "runner", "cli", "dynamics", "graph", "dst", "analysis", "output")


def load() -> SimpleNamespace:
    """Return the package's modules; raise ImportError if the checkout lacks them."""
    src = ROOT / "src"
    if not (src / "ds_consensus" / "__init__.py").is_file():
        raise ImportError(f"no ds_consensus package under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("ds_consensus")
    if Path(package.__file__).resolve().parent != (src / "ds_consensus").resolve():
        raise ImportError(f"ds_consensus imported from {package.__file__}, not {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"ds_consensus.{m}") for m in MODULES})
