"""Self-checks for the hyperfield axioms.

Finite hyperfields are checked exhaustively; infinite ones are sampled with
a seeded generator.  The report also records whether multiplication
distributes over hypersums of hypersums (double distributivity), which
separates the perfect hyperfields from the triangle and phase ones.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Optional

from .hyperfields import (
    Hyperfield,
    eq,
    fold_sum,
    inv,
    mul,
    neg,
    sample_element,
    zero_in_sum,
)


@dataclass
class AxiomCheck:
    name: str
    passed: bool
    witness: Optional[dict] = None


@dataclass
class AxiomReport:
    hyperfield: Hyperfield
    exhaustive: bool
    checks: list = field(default_factory=list)
    doubly_distributive: bool = True
    dd_witness: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_json(self) -> dict:
        return {
            "hyperfield": str(self.hyperfield),
            "exhaustive": self.exhaustive,
            "axioms": [{"name": c.name, "passed": c.passed, "witness": c.witness}
                       for c in self.checks],
            "doubly_distributive": self.doubly_distributive,
            "dd_witness": self.dd_witness,
            "ok": self.ok,
        }


def _pool(hf: Hyperfield, rng: random.Random, budget: int) -> list:
    if hf.is_finite:
        return hf.elements()
    seen = [hf.zero(), hf.one(), neg(hf.one())]
    for _ in range(budget * 50):
        if len(seen) >= budget:
            break
        x = sample_element(hf, rng)
        if not any(eq(x, y) for y in seen):
            seen.append(x)
    return seen


def check_hyperfield_axioms(hf: Hyperfield, sample_budget: int = 24,
                            seed: int = 0) -> AxiomReport:
    """Verify the hypergroup/hyperring axioms and probe double distributivity."""
    rng = random.Random(seed)
    report = AxiomReport(hf, exhaustive=hf.is_finite)
    pool = _pool(hf, rng, sample_budget)
    nonzero = [x for x in pool if not x.is_zero]
    zero = hf.zero()

    def run(name, failures):
        report.checks.append(AxiomCheck(name, not failures, failures[0] if failures else None))

    # zero is the additive identity: 0 + x = {x}
    fails = []
    for x in pool:
        s = fold_sum([zero, x])
        if not (s.contains(x) and not any(
                s.contains(y) for y in pool if not eq(y, x))):
            fails.append({"x": repr(x)})
    run("additive-identity", fails)

    # unique hyperinverse
    fails = []
    for x in pool:
        if not zero_in_sum([x, neg(x)]):
            fails.append({"x": repr(x), "problem": "0 not in x + (-x)"})
            continue
        others = [y for y in pool if not eq(y, neg(x)) and zero_in_sum([x, y])]
        if others:
            fails.append({"x": repr(x), "second_inverse": repr(others[0])})
    run("unique-hyperinverse", fails)

    # reversibility: x in y + z iff z in x + (-y)
    fails = []
    triples = (itertools.product(pool, repeat=3) if hf.is_finite
               else ((rng.choice(pool), rng.choice(pool), rng.choice(pool))
                     for _ in range(sample_budget * 12)))
    for x, y, z in triples:
        lhs = fold_sum([y, z]).contains(x)
        rhs = fold_sum([x, neg(y)]).contains(z)
        if lhs != rhs:
            fails.append({"x": repr(x), "y": repr(y), "z": repr(z)})
    run("reversibility", fails)

    # commutativity of the hypersum
    fails = []
    pairs = (itertools.product(pool, repeat=2) if hf.is_finite
             else ((rng.choice(pool), rng.choice(pool)) for _ in range(sample_budget * 8)))
    for x, y in pairs:
        if not fold_sum([x, y]).equals(fold_sum([y, x])):
            fails.append({"x": repr(x), "y": repr(y)})
    run("commutativity", fails)

    # associativity on triples: the fold is permutation independent
    fails = []
    triples = (itertools.product(pool, repeat=3) if hf.is_finite
               else ((rng.choice(pool), rng.choice(pool), rng.choice(pool))
                     for _ in range(sample_budget * 8)))
    for x, y, z in triples:
        base = fold_sum([x, y, z])
        if not all(base.equals(fold_sum(list(p)))
                   for p in itertools.permutations([x, y, z])):
            fails.append({"x": repr(x), "y": repr(y), "z": repr(z)})
    run("associativity", fails)

    # multiplication: commutative group on nonzero elements, absorbing zero
    fails = []
    for x in nonzero[:12]:
        if not eq(mul(x, inv(x)), hf.one()):
            fails.append({"x": repr(x), "problem": "x * inv(x) != 1"})
    for x in pool[:12]:
        if not mul(zero, x).is_zero:
            fails.append({"x": repr(x), "problem": "0 * x != 0"})
        if not eq(mul(hf.one(), x), x):
            fails.append({"x": repr(x), "problem": "1 * x != x"})
    pairs = (itertools.product(nonzero, repeat=2) if hf.is_finite
             else ((rng.choice(nonzero), rng.choice(nonzero)) for _ in range(sample_budget * 4)))
    for x, y in pairs:
        if not eq(mul(x, y), mul(y, x)):
            fails.append({"x": repr(x), "y": repr(y), "problem": "commutativity"})
    run("multiplicative-group", fails)

    # distributivity: a * (x + y) = a*x + a*y
    fails = []
    triples = (itertools.product(nonzero, pool, pool) if hf.is_finite
               else ((rng.choice(nonzero), rng.choice(pool), rng.choice(pool))
                     for _ in range(sample_budget * 8)))
    for a, x, y in triples:
        lhs = fold_sum([x, y]).scale(a)
        rhs = fold_sum([mul(a, x), mul(a, y)])
        if not lhs.equals(rhs):
            fails.append({"a": repr(a), "x": repr(x), "y": repr(y)})
    run("distributivity", fails)

    found, witness = double_distributivity_witness(hf, seed=seed)
    report.doubly_distributive = not found
    report.dd_witness = witness
    return report


def double_distributivity_witness(hf: Hyperfield, seed: int = 0,
                                  tries: int = 1000):
    """Search for x, y, z, t with (x+y)(z+t) != xz + xt + yz + yt.

    Returns (found, witness).  The witness records the quadruple and a
    member of the right-hand side missing from the left (the product of
    hypersums is always contained in the four-term hypersum, so a
    difference shows up on that side).
    """
    rng = random.Random(seed)
    quads = []
    for raw in hf.dd_presets:
        quads.append(tuple(hf.element(v) for v in raw))
    while len(quads) < tries:
        quads.append(tuple(sample_element(hf, rng) for _ in range(4)))
    for x, y, z, t in quads:
        lhs = fold_sum([x, y]).mul(fold_sum([z, t]))
        rhs = fold_sum([mul(x, z), mul(x, t), mul(y, z), mul(y, t)])
        if lhs.equals(rhs):
            continue
        found, payload = rhs.difference_sample(lhs)
        if not found:
            found, payload = lhs.difference_sample(rhs)
            side = "lhs-only" if found else "unsampled"
        else:
            side = "rhs-only"
        return True, {
            "quadruple": [repr(v) for v in (x, y, z, t)],
            "lhs": lhs.describe(),
            "rhs": rhs.describe(),
            "separating_point": repr(payload),
            "side": side,
        }
    return False, None
