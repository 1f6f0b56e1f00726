"""Method names and parameter grids: the built-in presets and JSON grid files.

A grid file looks like::

    {"methods": [
        {"name": "rbu", "method": "rbu",
         "grid": {"gamma": [0.01, 0.1], "ratio": [1.0]}},
        {"name": "stl", "method": "pipeline",
         "stages": [{"method": "smote", "grid": {"k": [5], "ratio": [1.0]}},
                    {"method": "tomek"}]}
    ]}

Grid axes expand to their cartesian product in declared key order; pipeline
stages expand to the product across stages.  Presets and CLI flags name
their methods through ``METHOD_NAMES`` and expand through the same path.
"""

from __future__ import annotations

import itertools
import json

from .baselines import METHODS, ResampleSpec
from .errors import FormatError, ParameterError

# Report and CLI method names, in ``--method`` choice order, each with the
# library methods it runs: one, or the stages of a pipeline.
METHOD_NAMES = {
    "none": ("none",),
    "rus": ("rus",),
    "ros": ("ros",),
    "smote": ("smote",),
    "enn": ("enn",),
    "renn": ("renn",),
    "tomek": ("tomek",),
    "nm": ("near_miss",),
    "rbu": ("rbu",),
    "stl": ("smote", "tomek"),
    "senn": ("smote", "enn"),
}
DEFAULT_CLEAN_K = METHODS["enn"].params["k"]

FINAL_PRESET = "paper-final"
_RATIOS = [0.5, 0.75, 1.0]
_SMOTE_K = [1, 3, 5, 7, 9]
_NEIGHBORHOOD_K = [1, 3, 5, 7]
# Each preset's method names with the axes of their first stage.
PRESETS = {
    FINAL_PRESET: {
        "none": {},
        "rbu": {"gamma": [0.01, 0.1, 1.0, 10.0], "ratio": _RATIOS},
        "rus": {"ratio": _RATIOS},
        "ros": {"ratio": _RATIOS},
        "smote": {"k": _SMOTE_K, "ratio": _RATIOS},
        "enn": {"k": _NEIGHBORHOOD_K},
        "renn": {"k": _NEIGHBORHOOD_K},
        "tomek": {},
        "nm": {"k": _NEIGHBORHOOD_K, "ratio": [1.0]},
        "stl": {"k": _SMOTE_K, "ratio": _RATIOS},
        "senn": {"k": _SMOTE_K, "ratio": _RATIOS},
    },
    "paper-prelim": {
        "none": {},
        "rbu": {"gamma": [0.001, 0.01, 0.1, 1.0, 10.0, 100.0],
                "ratio": [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]},
    },
}

_ENTRY_KEYS = {"name", "method", "grid"}
_PIPELINE_KEYS = {"name", "method", "stages"}
_STAGE_KEYS = {"method", "grid"}


def expand_grid(method: str, grid: dict | None) -> list[ResampleSpec]:
    """Cartesian product of grid axes, declared key order, earliest first."""
    if grid is not None and not (
        isinstance(grid, dict)
        and all(isinstance(v, (list, tuple)) and v for v in grid.values())
    ):
        raise ParameterError(
            f"grid of {method!r} must be an object of non-empty lists, got {grid!r}"
        )
    if not grid:
        return [ResampleSpec(method)]
    return [
        ResampleSpec(method, dict(zip(grid, combo))) for combo in itertools.product(*grid.values())
    ]


def _entry(entry, keys) -> dict:
    """A grid-file method or stage entry, refused unless it is an object
    holding only ``keys``."""
    if not isinstance(entry, dict):
        raise ParameterError(f"grid-file methods and stages must be objects, got {entry!r}")
    unknown = sorted(set(entry) - keys)
    if unknown:
        raise ParameterError(f"unknown grid-file keys {unknown} in {entry!r}")
    return entry


def expand_pipeline(stage_entries) -> list[ResampleSpec]:
    """Product of per-stage grids, each combination one pipeline spec."""
    per_stage = [
        expand_grid(entry.get("method"), entry.get("grid"))
        for entry in (_entry(stage, _STAGE_KEYS) for stage in stage_entries)
    ]
    return [
        ResampleSpec("pipeline", stages=tuple(combo))
        for combo in itertools.product(*per_stage)
    ]


def named_specs(name: str, axes: dict, clean_k: int) -> list[ResampleSpec]:
    """Specs of a method name: ``axes`` span its first stage, and a later
    stage with a ``k`` parameter takes ``clean_k``."""
    if name not in METHOD_NAMES:
        raise ParameterError(f"unknown method name {name!r}")
    first, *rest = METHOD_NAMES[name]
    if not rest:
        return expand_grid(first, axes)
    cleaners = [
        {"method": m, "grid": {"k": [clean_k]} if "k" in METHODS[m].params else None} for m in rest
    ]
    return expand_pipeline([{"method": first, "grid": axes}, *cleaners])


def load_grid_file(path) -> dict[str, list[ResampleSpec]]:
    with open(path) as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise FormatError(f"grid file is not valid JSON: {exc.msg}", line=exc.lineno) from None
    if not isinstance(doc, dict):
        raise ParameterError(f"grid file must hold a JSON object, got {doc!r}")
    entries = doc.get("methods")
    if not isinstance(entries, list) or not entries:
        raise ParameterError("grid file must carry a non-empty 'methods' list")
    grids: dict[str, list[ResampleSpec]] = {}
    for entry in entries:
        pipeline = isinstance(entry, dict) and entry.get("method") == "pipeline"
        entry = _entry(entry, _PIPELINE_KEYS if pipeline else _ENTRY_KEYS)
        name = entry.get("name", entry.get("method"))
        if not isinstance(name, str):
            raise ParameterError(f"grid-file method names must be strings, got {name!r}")
        if name in grids:
            raise ParameterError(f"duplicate method name {name!r} in grid file")
        if pipeline:
            stages = entry.get("stages")
            if not isinstance(stages, list) or not stages:
                raise ParameterError(f"pipeline entry {name!r} needs a list of stages")
            grids[name] = expand_pipeline(stages)
        else:
            grids[name] = expand_grid(entry.get("method"), entry.get("grid"))
    return grids


def preset_grids(name: str) -> dict[str, list[ResampleSpec]]:
    """Built-in grids for the experiment presets."""
    if name not in PRESETS:
        raise ParameterError(f"unknown preset {name!r}")
    return {
        method: named_specs(method, axes, DEFAULT_CLEAN_K)
        for method, axes in PRESETS[name].items()
    }
