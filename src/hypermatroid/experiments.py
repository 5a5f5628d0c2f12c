"""Randomized weak-valid instance generation and the perfection sweep.

The sampler produces alternating functions that pass the weak relation
check, drawn two ways.  At sizes where the three-term relation family is
small, values are drawn independently (signs, dyadic magnitudes, angles)
and rejection-sampled on the weak check.  At larger sizes blind
rejection is hopeless (the pass probability decays like 0.75 to the
number of relations), so a random integer matrix seeds an exact
realizable instance.  Its push-forward into the hyperfield is weak
without a check, since pushing a realizable function forward along a
hyperfield homomorphism gives a GP function (Baker-Bowler); it is then
perturbed by single-value mutations that are kept only when the weak
check still passes.  Over fields the
matrix instance is used as drawn: a random assignment over a field is
never weak-valid, and every weak-valid function there is realizable
anyway.

The perfection sweep samples weak-valid functions and records which are
strong.  Over the doubly distributive hyperfields (Krasner, sign,
tropical, finite fields, the rationals) a weak-only find is a
contract violation, reported as such.  The sweep is an empirical test
of the theorem that `check_gp_strong` relies on there, so it decides
strength itself, over every hyperfield: each sample's circuits and
cocircuits come packed from its relation table (`gp._dual_pair`), and
one run of the pair loop `gp._first_nonorthogonal` over every overlap
finds the first non-orthogonal pair of least overlap.  That (I, J)
relation is the witness of a weak-only sample, and its overlap gives the
bounded-overlap orthogonality levels: level k passes when every pair
meeting in at most k elements is orthogonal.  Triangle, phase and
phase[identity] runs seed the sample list with the family's weak-only
corpus function, its payloads over the swept hyperfield
(`corpus.weak_only_function`), so those runs always record at least one
weak-only find.  On strong samples the sweep also filters random
candidates to vectors and covectors and tests every vector/covector pair
for orthogonality.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional

from .circuits import CircuitSignature
from .corpus import gp_from_matrix, weak_only_function
from .errors import InputError
from .gp import (GPFunction, _dual_pair, _first_nonorthogonal, _pack, _witness,
                 check_gp_weak, circuits_from_gp, three_term_pairs)
from .hyperfields import Hyperfield, sample_element
from .vectors import FVector, GroundSet

_REJECTION_TRIES = 20000


def _matrix_seeded(hf: Hyperfield, rng: random.Random, rank: int,
                   labels: tuple) -> Optional[GPFunction]:
    """An exact realizable instance from a random integer matrix, pushed
    into the hyperfield; None when every r-minor vanishes there.  The
    push-forward of a realizable function along a hyperfield homomorphism
    is a GP function (Baker-Bowler), so it is weak without a check."""
    columns = [tuple(Fraction(rng.randint(-4, 4)) for _ in range(rank))
               for _ in labels]
    try:
        return gp_from_matrix(hf, labels, columns)
    except InputError:  # identically zero
        return None


def _mutate(phi: GPFunction, rng: random.Random, rounds: int) -> GPFunction:
    """Random single-value rewrites, each kept only if still weak-valid."""
    current = phi
    keys = sorted(current.values)
    for _ in range(rounds):
        key = keys[rng.randrange(len(keys))]
        values = dict(current.values)
        values[key] = current.hyperfield.random_unit(rng)
        candidate = GPFunction(current.hyperfield, current.ground,
                               current.rank, values)
        if check_gp_weak(candidate) is None:
            current = candidate
    return current


def random_weak_gp(hf: Hyperfield, rng: random.Random, max_rank: int = 3,
                   max_ground: int = 6) -> GPFunction:
    """A random alternating function passing the weak relation check."""
    sizes = [(r, m) for r in range(1, max_rank + 1)
             for m in range(r + 1, max_ground + 1)]
    if not sizes:
        raise InputError("no feasible (rank, size) pairs under the bounds")
    rank, m = sizes[rng.randrange(len(sizes))]
    labels = tuple(range(1, m + 1))
    pairs = three_term_pairs(rank, m)
    if hf.perturbable and pairs <= 24:
        ground = GroundSet(labels)
        for _ in range(_REJECTION_TRIES):
            values = {key: hf.random_unit(rng)
                      for key in combinations(labels, rank)}
            phi = GPFunction(hf, ground, rank, values)
            if check_gp_weak(phi) is None:
                return phi
    for _ in range(200):
        phi = _matrix_seeded(hf, rng, rank, labels)
        if phi is None:
            continue
        if not hf.perturbable:
            return phi
        return _mutate(phi, rng, rounds=rng.randint(1, 3))
    raise InputError(f"could not sample a weak-valid instance over {hf}")


def random_weak_signature(hf: Hyperfield, rng: random.Random,
                          max_rank: int = 3,
                          max_ground: int = 6) -> CircuitSignature:
    """Circuits of a random weak-valid alternating function."""
    return circuits_from_gp(random_weak_gp(hf, rng, max_rank, max_ground))


# -- the perfection sweep ----------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    hyperfield: Hyperfield
    max_rank: int = 3
    max_ground: int = 6
    samples: int = 50
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.max_rank <= 3:
            raise InputError("max_rank must be between 1 and 3")
        if not 2 <= self.max_ground <= 7:
            raise InputError("max_ground must be between 2 and 7")
        if not 1 <= self.samples <= 5000:
            raise InputError("samples must be between 1 and 5000")


def config_from_json(raw, where: str = "config") -> ExperimentConfig:
    from .serialization import hyperfield_from_id

    if not isinstance(raw, dict) or "hyperfield" not in raw:
        raise InputError(f"{where}: expected an object with a 'hyperfield' field")
    known = {"hyperfield", "max_rank", "max_ground", "samples", "seed"}
    for key in raw:
        if key not in known:
            raise InputError(f"{where}.{key}: unknown field")
    hf = hyperfield_from_id(raw["hyperfield"], f"{where}.hyperfield")
    ints = {}
    for key in ("max_rank", "max_ground", "samples", "seed"):
        if key in raw:
            value = raw[key]
            if isinstance(value, bool) or not isinstance(value, int):
                raise InputError(f"{where}.{key}: expected an integer")
            ints[key] = value
    return ExperimentConfig(hf, **ints)


def _random_candidate(hf: Hyperfield, ground: GroundSet,
                      rng: random.Random) -> FVector:
    return FVector(hf, ground, {label: sample_element(hf, rng, nonzero=True)
                                for label in ground if rng.random() < 0.5})


def run_perfection_experiment(cfg: ExperimentConfig) -> dict:
    """Sample weak-valid functions and test them for strength, bounded
    orthogonality levels, and vector/covector pairings.  See the module
    docstring for the exact protocol."""
    rng = random.Random(cfg.seed)
    hf = cfg.hyperfield
    strict = hf.doubly_distributive
    # the known weak-only function over hf leads the sample list
    instances = [] if hf.weak_only_example is None else [weak_only_function(hf)]
    while len(instances) < cfg.samples:
        instances.append(random_weak_gp(hf, rng, cfg.max_rank, cfg.max_ground))
    instances = instances[:cfg.samples]

    strong_count = 0
    weak_only: List[dict] = []
    hierarchy: Dict[int, int] = {}
    hierarchy_total: Dict[int, int] = {}
    pairs_checked = 0
    orthogonality_failures: List[dict] = []

    for index, phi in enumerate(instances):
        xs, ys = _dual_pair(phi)
        every = range(1, len(phi.ground) + 1)
        pair = _first_nonorthogonal(xs, ys, hf, every)
        if pair is None:
            strong_count += 1
        else:
            weak_only.append({"sample": index, "gp": phi,
                              "witness": _witness(phi, "GP3", pair[1], pair[2])})
        for k in range(3, len(phi.ground) + 1):
            hierarchy_total[k] = hierarchy_total.get(k, 0) + 1
            if pair is None or pair[0] > k:
                hierarchy[k] = hierarchy.get(k, 0) + 1
        if pair is None:
            # every circuit and cocircuit passes its filter, so a failing
            # pair below is two candidates, named by their vectors
            candidates = [_random_candidate(hf, phi.ground, rng)
                          for _ in range(12)]
            vectors = [v for v in xs + _pack(candidates) if v[1] and
                       _first_nonorthogonal([v], ys, hf, every) is None]
            covectors = [w for w in ys + _pack(candidates, dual=True) if w[1]
                         and _first_nonorthogonal(xs, [w], hf, every) is None]
            for v in vectors:
                for w in covectors:
                    pairs_checked += 1
                    if _first_nonorthogonal([v], [w], hf, every):
                        orthogonality_failures.append(
                            {"sample": index, "vector": v[0], "covector": w[0]})

    report = {
        "hyperfield": str(hf),
        "samples": len(instances),
        "strong": strong_count,
        "weak_only": weak_only,
        "contract_violation": strict and bool(weak_only),
        "bounded_orthogonality": {
            str(k): {"passed": hierarchy.get(k, 0), "of": hierarchy_total[k]}
            for k in sorted(hierarchy_total)},
        "vector_covector_pairs_checked": pairs_checked,
        "orthogonality_failures": orthogonality_failures,
    }
    return report
