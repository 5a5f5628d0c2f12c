"""Self-checks of a hyperfield family's arithmetic, on its payload operations.

Matroids over a hyperfield depend only on its null set, the formal sums
x1 + ... + xk that contain 0 (Baker and Bowler, "Matroids over partial
hyperstructures", where a group with a null set is a tract), and every
verdict of the checkers is decided by a family's null-set kernel
`zero_in_dot`.  So the checks ask the operations the checkers run
(`product`, `inverse`, `negative`, `equal`, and `zero_in`, which is the
kernel against the payload of 1) the tract axioms:

  multiplicative-group  the units form a commutative group with 1, and a
                        product of units is never 0
  zero-terms            0 alone is null, and a 0 term changes no verdict
  no-null-unit          no unit alone is null
  unique-negative       0 lies in x + y iff y is negative(x), which is
                        negative(1) * x
  scaling               scaling every term by a unit changes no verdict
  concatenation         two null sums written one after the other are null
  order                 the verdict does not depend on the order of terms

A family with at most `sample_budget` elements is checked on all of them:
on every pair and triple of them, every sum of two or three of them and
every two null sums among those.  Otherwise the pool is `sample_budget`
distinct elements, 0, 1 and -1 and then seeded samples, and each of
these is `sample_budget * 8` seeded draws from the pool.  The sums also
hold every x + negative(x), and each is scaled by every unit, or when
sampled by one drawn unit.

The report states the family's `doubly_distributive` flag, on which the
checkers branch; the tests check the flag against a search for
(x + y)(z + t) != xz + xt + yz + yt on the symbolic hypersums.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from typing import Optional

from .hyperfields import HFElement, Hyperfield, eq


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

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_json(self) -> dict:
        return {
            "hyperfield": str(self.hyperfield),
            "exhaustive": self.exhaustive,
            "axioms": [{"name": c.name, "passed": c.passed, "witness": c.witness}
                       for c in self.checks],
            "doubly_distributive": self.hyperfield.doubly_distributive,
            "ok": self.ok,
        }


def _same(hf: Hyperfield, a, b) -> bool:
    """Whether two payloads, zero allowed, are the same element."""
    return eq(HFElement(hf, a), HFElement(hf, b))


def _pool(hf: Hyperfield, rng: random.Random, budget: int) -> tuple:
    """(payloads, exhaustive): every element's when the family has at most
    `budget`, else `budget` distinct ones, 0, 1 and -1 first."""
    if hf.size <= budget:
        return [x.value for x in hf.elements()], True
    pool: list = []
    one = hf.one().value
    draws = (hf.sample(rng).value for _ in range(budget * 50))
    for i, a in enumerate(itertools.chain((hf.zero_payload, one, hf.negative(one)), draws)):
        if i >= 3 and len(pool) >= budget:
            break
        if not any(_same(hf, a, b) for b in pool):
            pool.append(a)
    return pool, False


def check_hyperfield_axioms(hf: Hyperfield, sample_budget: int = 24,
                            seed: int = 0) -> AxiomReport:
    """Check the tract axioms (see the module docstring) on the family's
    payload operations; each check names its first failure."""
    if sample_budget < 1:
        raise ValueError(f"the sample budget must be at least 1, got {sample_budget}")
    rng = random.Random(seed)
    pool, exhaustive = _pool(hf, rng, sample_budget)
    report = AxiomReport(hf, exhaustive)
    zero, one = hf.zero_payload, hf.one().value
    units = [a for a in pool if a != zero]
    product, negative, zero_in = hf.product, hf.negative, hf.zero_in
    epsilon = negative(one)

    same = functools.partial(_same, hf)

    def draws(items: list, k: int) -> list:
        return [tuple(rng.choice(items) for _ in range(k))
                for _ in range(sample_budget * 8)]

    def tuples(items: list, k: int) -> list:
        return list(itertools.product(items, repeat=k)) if exhaustive else draws(items, k)

    def multisets(items: list, k: int) -> list:
        """As `tuples`, for checks that reorder the tuple themselves."""
        return (list(itertools.combinations_with_replacement(items, k)) if exhaustive
                else draws(items, k))

    def scaled(u, terms) -> list:
        return [a if a == zero else product(u, a) for a in terms]

    def fail(problem: str, *payloads) -> dict:
        return {"problem": problem, "payloads": [hf.encode(a) for a in payloads]}

    def run(name: str, failures) -> None:
        witness = next(failures, None)
        report.checks.append(AxiomCheck(name, witness is None, witness))

    def group():
        for x in units:
            if not same(product(one, x), x):
                yield fail("1 * x != x", x)
            if not same(product(x, hf.inverse(x)), one):
                yield fail("x * inverse(x) != 1", x)
        for x, y in tuples(units, 2):
            if same(product(x, y), zero):
                yield fail("x * y is 0", x, y)
            elif not same(product(x, y), product(y, x)):
                yield fail("x * y != y * x", x, y)
        for x, y, w in tuples(units, 3):
            if not same(product(product(x, y), w), product(x, product(y, w))):
                yield fail("(x * y) * w != x * (y * w)", x, y, w)

    sums = [(x, negative(x)) for x in units] + multisets(pool, 2) + multisets(pool, 3)

    def zero_terms():
        if not zero_in([zero]):
            yield fail("0 alone is not null", zero)
        for terms in sums:
            if zero_in([*terms, zero]) != zero_in(list(terms)):
                yield fail("a 0 term changes the verdict", *terms)

    def no_null_unit():
        for x in units:
            if zero_in([x]):
                yield fail("x alone is null", x)

    def unique_negative():
        for x in units:
            if not same(negative(x), product(epsilon, x)):
                yield fail("negative(x) != negative(1) * x", x)
        for x, y in itertools.chain(((one, y) for y in units), tuples(units, 2)):
            if zero_in([x, y]) != same(y, negative(x)):
                yield fail("0 in x + y is not y == negative(x)", x, y)

    def scaling():
        for terms in sums:
            verdict = zero_in(list(terms))
            for u in units if exhaustive else [rng.choice(units)]:
                if zero_in(scaled(u, terms)) != verdict:
                    yield fail("scaling the terms by the first changes the verdict",
                               u, *terms)

    def concatenation():
        null = [terms for terms in sums if zero_in(list(terms))]
        for s, t in multisets(null, 2) if null else ():
            if not zero_in([*s, *t]):
                yield fail("two null sums concatenated are not null", *s, *t)

    def order():
        for terms in sums:
            verdict = zero_in(list(terms))
            for shuffled in itertools.permutations(terms):
                if zero_in(list(shuffled)) != verdict:
                    yield fail("reordering the terms changes the verdict", *shuffled)

    run("multiplicative-group", group())
    run("zero-terms", zero_terms())
    run("no-null-unit", no_null_unit())
    run("unique-negative", unique_negative())
    run("scaling", scaling())
    run("concatenation", concatenation())
    run("order", order())
    return report
