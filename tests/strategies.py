"""Hypothesis strategies shared by the property tests."""

import random

from hypothesis import strategies as st

from hypermatroid import (KRASNER, PHASE, PHASE_PLAIN, RATIONALS, SIGN,
                          TRIANGLE, TROPICAL, gf, sample_element)

ALL_KINDS = [KRASNER, SIGN, TROPICAL, TRIANGLE, PHASE, PHASE_PLAIN, RATIONALS,
             gf(3)]


def units(hf):
    """Units of hf: triangle moduli in [1e-3, 1e3], since much smaller ones
    meet the absolute float tolerance, any phase angle, and the sampler's
    units elsewhere."""
    if hf.kind == "triangle":
        return st.floats(1e-3, 1e3).map(hf.element)
    if hf.kind == "phase":
        return st.floats(0.01, 6.28).map(hf.element)
    return st.integers(0, 2 ** 32).map(
        lambda seed: sample_element(hf, random.Random(seed), nonzero=True))
