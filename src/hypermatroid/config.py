"""Process-wide numeric configuration.

The float-backed hyperfields (triangle and phase) compare values up to an
absolute tolerance.  The tolerance defaults to 1e-9 and can be overridden
through the HFM_EPS environment variable or `set_eps`.
"""

from __future__ import annotations

import os

_DEFAULT_EPS = 1e-9

# Exhaustive matroid enumeration is capped to keep accidental blow-ups out.
MAX_GROUND_SIZE = 16


def _eps_from_env() -> float:
    raw = os.environ.get("HFM_EPS")
    if raw is None:
        return _DEFAULT_EPS
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"HFM_EPS must be a number, got {raw!r}") from None
    if not value > 0:
        raise ValueError(f"HFM_EPS must be positive, got {raw!r}")
    return value


_eps = _eps_from_env()


def get_eps() -> float:
    """Absolute tolerance used by all float comparisons."""
    return _eps


def set_eps(value: float) -> None:
    global _eps
    value = float(value)
    if not value > 0:
        raise ValueError("tolerance must be positive")
    _eps = value
