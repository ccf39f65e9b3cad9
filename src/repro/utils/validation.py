"""Small argument-validation helpers.

These raise ``ValueError``/``TypeError`` with messages that name the
offending parameter, which keeps the dataclass ``__post_init__`` bodies in
:mod:`repro.config` short and uniform.
"""

from __future__ import annotations

from typing import Iterable, TypeVar

import numpy as np

T = TypeVar("T")


def check_finite_array(name: str, values) -> np.ndarray:
    """Require every entry to be finite, naming the first offender.

    Returns the values as a float array for chaining.
    """
    arr = np.asarray(values, dtype=float)
    bad = ~np.isfinite(arr)
    if bad.any():
        idx = int(np.argmax(bad))
        raise ValueError(
            f"{name}[{idx}] is non-finite ({arr.flat[idx]!r}); "
            f"all {name} values must be finite"
        )
    return arr


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0``; return it for chaining."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_nonnegative(name: str, value: float) -> float:
    """Require ``value >= 0``; return it for chaining."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_fraction(name: str, value: float) -> float:
    """Require ``0 <= value <= 1``; return it for chaining."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be within [0, 1], got {value!r}")
    return value


def check_positive_int(name: str, value: int) -> int:
    """Require an integral value strictly greater than zero."""
    if not isinstance(value, (int,)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_in_choices(name: str, value: T, choices: Iterable[T]) -> T:
    """Require ``value`` to be one of ``choices``; return it for chaining."""
    options = tuple(choices)
    if value not in options:
        raise ValueError(f"{name} must be one of {options!r}, got {value!r}")
    return value
