"""Shared helpers: locating the checkout's polarfec, definitions, reference keys."""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFINITIONS = Path(__file__).resolve().parent / "definitions.json"
SRC = ROOT / "src"
# Modules the benchmark calls into; cli is not imported by the package itself.
MODULES = ("architecture", "batch", "channel", "cli", "codec", "construction", "quantized", "reed_solomon", "sweep")


class MissingSourceError(RuntimeError):
    """The checkout holds no polarfec sources to benchmark."""


def load_polarfec():
    """Import polarfec from this checkout's src/ and nowhere else.

    An installed copy elsewhere on sys.path would silently benchmark the
    wrong code, so the imported package must live under SRC.
    """
    if not (SRC / "polarfec" / "__init__.py").is_file():
        raise MissingSourceError(f"no polarfec sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("polarfec")
    for name in MODULES:
        importlib.import_module(f"polarfec.{name}")
    if Path(package.__file__).resolve().parent != (SRC / "polarfec").resolve():
        raise MissingSourceError(f"polarfec imported from {package.__file__}, not {SRC}")
    return package


def load_definitions():
    return json.loads(DEFINITIONS.read_text())


def curve_spec(curve):
    """CodeSpec for a polar curve, or None for the RS baseline."""
    if curve["decoder"] == "rs15_11":
        return None
    construction = load_polarfec().construction
    n, k = curve["code"]
    params = construction.ConstructionParams(curve.get("design_z0", 0.5))
    return construction.bhattacharyya_construct(n, k, params)


def ref_key(curve_id, ebn0):
    return f"{curve_id}@{float(ebn0):g}"
