"""Method parameter grids: built-in presets and JSON grid files.

A grid file looks like::

    {"methods": [
        {"name": "rbu", "method": "rbu",
         "grid": {"gamma": [0.01, 0.1], "ratio": [1.0]}},
        {"name": "stl", "method": "pipeline",
         "stages": [{"method": "smote", "grid": {"k": [5], "ratio": [1.0]}},
                    {"method": "tomek"}]}
    ]}

Grid axes expand to their cartesian product in declared key order; pipeline
stages expand to the product across stages.
"""

from __future__ import annotations

import itertools
import json

from .baselines import ResampleSpec, senn_spec, stl_spec
from .errors import FormatError, ParameterError

FINAL_PRESET = "paper-final"
PRELIM_PRESET = "paper-prelim"


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
    keys = list(grid.keys())
    specs = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        specs.append(ResampleSpec(method, dict(zip(keys, combo))))
    return specs


def _entry(entry) -> dict:
    """A grid-file method or stage entry, refused unless it is an object."""
    if not isinstance(entry, dict):
        raise ParameterError(f"grid-file methods and stages must be objects, got {entry!r}")
    return entry


def expand_pipeline(stage_entries) -> list[ResampleSpec]:
    """Product of per-stage grids, each combination one pipeline spec."""
    per_stage = [
        expand_grid(entry["method"], entry.get("grid")) for entry in map(_entry, stage_entries)
    ]
    return [
        ResampleSpec("pipeline", stages=tuple(combo))
        for combo in itertools.product(*per_stage)
    ]


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
    for entry in map(_entry, entries):
        method = entry.get("method")
        name = entry.get("name", method)
        if not isinstance(name, str):
            raise ParameterError(f"grid-file method names must be strings, got {name!r}")
        if name in grids:
            raise ParameterError(f"duplicate method name {name!r} in grid file")
        if method == "pipeline":
            stages = entry.get("stages")
            if not stages:
                raise ParameterError(f"pipeline entry {name!r} needs stages")
            grids[name] = expand_pipeline(stages)
        else:
            grids[name] = expand_grid(method, entry.get("grid"))
    return grids


def preset_grids(name: str) -> dict[str, list[ResampleSpec]]:
    """Built-in grids for the two experiment presets."""
    ratios = [0.5, 0.75, 1.0]
    smote_k = [1, 3, 5, 7, 9]
    neighborhood_k = [1, 3, 5, 7]
    if name == FINAL_PRESET:
        return {
            "none": [ResampleSpec("none")],
            "rbu": expand_grid("rbu", {"gamma": [0.01, 0.1, 1.0, 10.0], "ratio": ratios}),
            "rus": expand_grid("rus", {"ratio": ratios}),
            "ros": expand_grid("ros", {"ratio": ratios}),
            "smote": expand_grid("smote", {"k": smote_k, "ratio": ratios}),
            "enn": expand_grid("enn", {"k": neighborhood_k}),
            "renn": expand_grid("renn", {"k": neighborhood_k}),
            "tomek": [ResampleSpec("tomek")],
            "nm": expand_grid("near_miss", {"k": neighborhood_k, "ratio": [1.0]}),
            "stl": [stl_spec(k, ratio) for k in smote_k for ratio in ratios],
            "senn": [senn_spec(k, ratio) for k in smote_k for ratio in ratios],
        }
    if name == PRELIM_PRESET:
        return {
            "none": [ResampleSpec("none")],
            "rbu": expand_grid(
                "rbu",
                {
                    "gamma": [0.001, 0.01, 0.1, 1.0, 10.0, 100.0],
                    "ratio": [0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
                },
            ),
        }
    raise ParameterError(f"unknown preset {name!r}")
