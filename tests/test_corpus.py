"""Built-in instances: every expected outcome is re-derived on each run."""

import pytest

from hypermatroid import (CORPUS, InputError, check_gp_strong, check_gp_weak,
                          circuits_from_gp, classify, corpus_entries,
                          get_entry, run_demo)

EXPECTED_NAMES = {
    "triangle-weak-not-strong", "phase-weak-not-strong", "krasner-u24",
    "krasner-k4", "sign-u13", "sign-u24", "sign-k4", "gf3-u24",
    "rational-u24", "rational-k4", "tropical-u24", "tropical-k4-padic",
    "phase-u24-real", "sign-flipped-u24", "not-a-matroid"}


def test_corpus_names():
    assert {e.name for e in corpus_entries()} == EXPECTED_NAMES


def test_every_demo_meets_expectations():
    for entry in corpus_entries():
        report = run_demo(entry.name)
        assert report["ok"], (entry.name,
                              [c for c in report["checks"] if not c["ok"]])


def test_unknown_entry():
    with pytest.raises(InputError):
        get_entry("no-such-entry")


def test_triangle_entry_values():
    phi = CORPUS["triangle-weak-not-strong"].build()
    assert phi.evaluate((1, 5, 6)).value == 4.0
    assert phi.evaluate((1, 2, 5)).value == 2.0
    assert phi.evaluate((1, 2, 6)).value == 2.0
    assert phi.evaluate((2, 3, 4)).value == 1.0
    assert phi.evaluate((4, 5, 6)).value == 1.0
    assert len(phi.values) == 20, "no vanishing minors: underlying U(3,6)"


def test_triangle_weak_holds_everywhere():
    phi = CORPUS["triangle-weak-not-strong"].build()
    assert check_gp_weak(phi) is None
    witness = check_gp_strong(phi)
    assert sorted(witness["I"]) == [1, 2, 3, 4]
    assert sorted(witness["J"]) == [5, 6]


def test_phase_entry_weak_not_strong():
    phi = CORPUS["phase-weak-not-strong"].build()
    assert check_gp_weak(phi) is None
    witness = check_gp_strong(phi)
    assert set(witness["I"]) == {"x", "y", "z", "t"}
    assert set(witness["J"]) == {"l", "m"}


def test_weak_only_classifications():
    for name in ("triangle-weak-not-strong", "phase-weak-not-strong"):
        sig = circuits_from_gp(CORPUS[name].build())
        assert classify(sig).verdict == "WeakOnly", name


def test_strong_classifications():
    for name in ("krasner-u24", "sign-u13", "sign-u24", "gf3-u24",
                 "rational-u24", "tropical-u24", "phase-u24-real"):
        phi = CORPUS[name].build()
        assert check_gp_strong(phi) is None, name
        assert classify(circuits_from_gp(phi)).verdict == "Strong", name
