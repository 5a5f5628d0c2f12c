"""Deterministic first-witness search over an enumerated candidate space.

Checkers enumerate candidates in a fixed canonical order, so the reported
witness is always the first failing candidate in that order.
"""

from __future__ import annotations

from typing import Callable, Iterable


def first_witness(candidates: Iterable, check: Callable):
    """Return check(c) for the first candidate where it is not None."""
    for cand in candidates:
        result = check(cand)
        if result is not None:
            return result
    return None
