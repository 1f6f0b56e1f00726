"""Deterministic seed derivation for independent random streams.

Work units (dataset x method x classifier x fold, pipeline stages, grid
points) each get a stream derived from the master seed and their identity,
so results do not depend on execution order or scheduling.
"""

from __future__ import annotations

import hashlib
import numbers

from .errors import ParameterError


def check_seed(seed, name="seed") -> None:
    """Raise ParameterError naming ``name`` unless ``seed`` is None or a
    non-negative integer (a bool is not one)."""
    if seed is not None and (
        isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0
    ):
        raise ParameterError(f"{name} must be None or a non-negative integer, got {seed!r}")


def derive_seed(*parts) -> int:
    """Collapse the master seed and a unit identity into a 63-bit seed."""
    digest = hashlib.sha256("\x1f".join(map(repr, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1
