"""Random weak-valid generation and the perfection sweep."""

import random

import pytest

from hypermatroid import (KRASNER, PHASE, PHASE_PLAIN, RATIONALS, SIGN,
                          TRIANGLE, TROPICAL, ExperimentConfig, InputError,
                          check_gp_weak, config_from_json, gf, random_weak_gp,
                          run_perfection_experiment)
from hypermatroid import experiments

from strategies import ALL_KINDS


def test_sampler_output_is_weak_valid():
    for hf in (SIGN, TROPICAL, TRIANGLE, PHASE, KRASNER, RATIONALS, gf(3)):
        rng = random.Random(90)
        for _ in range(8):
            phi = random_weak_gp(hf, rng)
            assert phi.hyperfield == hf
            assert check_gp_weak(phi) is None, str(hf)


def test_sampler_respects_bounds():
    rng = random.Random(91)
    for _ in range(20):
        phi = random_weak_gp(SIGN, rng, max_rank=2, max_ground=4)
        assert phi.rank <= 2 and len(phi.ground) <= 4


def test_config_validation():
    cfg = config_from_json({"hyperfield": "tropical", "samples": 5})
    assert cfg.samples == 5 and cfg.seed == 0
    for bad in ({}, {"hyperfield": "sign", "max_rank": 9},
                {"hyperfield": "sign", "samples": 0},
                {"hyperfield": "sign", "unknown": 1},
                {"hyperfield": "sign", "seed": True}):
        with pytest.raises(InputError):
            config_from_json(bad)


def test_sweep_determinism():
    cfg = ExperimentConfig(SIGN, samples=10, seed=12)
    from hypermatroid import serialize
    a = serialize(run_perfection_experiment(cfg))
    b = serialize(run_perfection_experiment(cfg))
    assert a == b


def test_sweep_doubly_distributive_all_strong():
    for hf in (SIGN, TROPICAL, gf(3)):
        report = run_perfection_experiment(
            ExperimentConfig(hf, samples=15, seed=6))
        assert report["strong"] == report["samples"], str(hf)
        assert not report["weak_only"] and not report["contract_violation"]
        assert not report["orthogonality_failures"]


def test_sweep_runs_the_full_relation_scan(monkeypatch):
    """The sweep tests the theorem that lets check_gp_strong stop at the
    weak check over sign, so it must decide strength itself: a circuit and
    a cocircuit meeting in 4 or more elements that are not orthogonal
    there make a contract violation, named by their relation."""
    family = type(SIGN)
    zero_in_dot = family.zero_in_dot

    def wide_pairs_fail(self, left, row):
        left = list(left)
        return zero_in_dot(self, left, row) and \
            sum(row[i] is not None for i, _ in left) < 4

    monkeypatch.setattr(family, "zero_in_dot", wide_pairs_fail)
    report = run_perfection_experiment(
        ExperimentConfig(SIGN, max_ground=7, samples=5, seed=2))
    assert report["weak_only"] and report["contract_violation"] is True
    for find in report["weak_only"]:
        terms = find["witness"]["terms"]
        assert find["witness"]["axiom"] == "GP3"
        assert sum(not term.is_zero for term in terms) >= 4


def test_sweep_triangle_records_weak_only():
    report = run_perfection_experiment(
        ExperimentConfig(TRIANGLE, samples=6, seed=1))
    assert report["weak_only"], "the seeded instance must be recorded"
    assert report["weak_only"][0]["sample"] == 0
    assert not report["contract_violation"], \
        "triangle coefficients are exempt from the all-strong contract"


def test_sweep_bounded_orthogonality_level_three_always_passes():
    for hf, n in ((TRIANGLE, 6), (PHASE, 5), (SIGN, 10)):
        report = run_perfection_experiment(
            ExperimentConfig(hf, samples=n, seed=4))
        level3 = report["bounded_orthogonality"]["3"]
        assert level3["passed"] == level3["of"], str(hf)


@pytest.mark.parametrize("hf", [TRIANGLE, PHASE, PHASE_PLAIN], ids=str)
def test_sweep_records_weak_only_over_every_weak_only_family(hf):
    """The family's weak-only function leads the samples over hf itself,
    phase[identity] included."""
    report = run_perfection_experiment(ExperimentConfig(hf, samples=10, seed=0))
    assert report["weak_only"] and report["weak_only"][0]["sample"] == 0


@pytest.mark.parametrize("hf", ALL_KINDS + [gf(2)], ids=str)
def test_matrix_seeded_functions_are_weak(hf):
    """A realizable function pushed forward along a hyperfield
    homomorphism is a GP function, so the sampler keeps it unchecked."""
    rng = random.Random(41)
    for _ in range(30):
        rank = rng.randint(1, 4)
        labels = tuple(range(1, rng.randint(rank + 1, 9) + 1))
        phi = experiments._matrix_seeded(hf, rng, rank, labels)
        assert phi is None or check_gp_weak(phi) is None
