"""Classical matroid layer: circuit axioms, rank, bases, duality."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermatroid import (ClassicalMatroid, GPFunction, GroundSet, InputError,
                          corpus_entries, validate_circuits)
from hypermatroid.matroids import modular_family

import oracles

U24 = oracles.matroid_of(
    GroundSet((1, 2, 3, 4)),
    [frozenset(c) for c in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))])

# cycle matroid of the complete graph on four vertices, edges named by
# their endpoints
K4_EDGES = ("ab", "ac", "ad", "bc", "bd", "cd")
K4_CIRCUITS = [frozenset(c) for c in (
    ("ab", "bc", "ac"), ("ab", "bd", "ad"), ("ac", "cd", "ad"),
    ("bc", "cd", "bd"), ("ab", "bc", "cd", "ad"), ("ab", "bd", "cd", "ac"),
    ("ac", "bc", "bd", "ad"))]
K4 = oracles.matroid_of(GroundSet(K4_EDGES), K4_CIRCUITS)


def test_validate_circuits_accepts_uniform():
    assert validate_circuits(U24.ground, U24.circuits) is None


def test_validate_circuits_rejects_nested():
    g = GroundSet((1, 2, 3))
    violation = validate_circuits(g, [frozenset({1, 2}), frozenset({1, 2, 3})])
    assert violation is not None and violation.as_json()


def test_validate_circuits_rejects_empty_circuit():
    g = GroundSet((1, 2))
    assert validate_circuits(g, [frozenset()]) is not None


def test_validate_circuits_rejects_broken_elimination():
    g = GroundSet((1, 2, 3, 4))
    bad = [frozenset({1, 2}), frozenset({2, 3, 4})]
    # elimination of 2 would need a circuit inside {1, 3, 4}
    assert validate_circuits(g, bad) is not None


def test_rank_and_independence():
    assert U24.rank() == 2
    assert oracles.independent(U24, (1, 4))
    assert not oracles.independent(U24, (1, 2, 3))
    assert U24.rank((1,)) == 1 and U24.nullity((1, 2, 3)) == 1
    assert K4.rank() == 3
    assert oracles.independent(K4, ("ab", "ac", "ad"))
    assert not oracles.independent(K4, ("ab", "bc", "ac"))


def test_bases():
    assert len(U24.bases()) == 6
    assert len(K4.bases()) == 16, "spanning trees of the complete graph"


def test_max_independent_and_extension():
    assert oracles.greedy(U24, (1, 2, 3)) == (1, 2)
    basis = oracles.greedy(U24, U24.ground, (3,))
    assert basis[0] == 3 and len(basis) == 2
    assert not oracles.independent(K4, ("ab", "bc", "ac"))


def test_dual_and_cocircuits():
    dual = U24.dual()
    assert dual.rank() == 2
    assert dual.circuits == U24.circuits, "uniform U(2,4) is self-dual"
    assert oracles.cocircuits(U24) == U24.circuits
    k4_cocircuits = oracles.cocircuits(K4)
    assert len(k4_cocircuits) == 7
    assert frozenset({"ab", "ac", "ad"}) in k4_cocircuits, \
        "the star of a vertex is a cocircuit"
    assert K4.dual().dual() == K4


def test_fundamental_circuit():
    basis = ("ab", "ac", "ad")
    circuit = K4.fundamental_circuit(basis, "bc")
    assert circuit == frozenset({"bc", "ab", "ac"})
    cocircuit = oracles.fundamental_cocircuit(K4, basis, "ab")
    assert "ab" in cocircuit and not (cocircuit - {"ab"}) & set(basis)


def test_modular_pairs():
    c1 = frozenset({"ab", "bc", "ac"})
    c2 = frozenset({"ab", "bd", "ad"})
    assert modular_family(K4, [c1, c2]), "two triangles sharing an edge"
    q1 = frozenset({"ab", "bc", "cd", "ad"})
    q2 = frozenset({"ab", "bd", "cd", "ac"})
    assert not modular_family(K4, [q1, q2]), \
        "the two quadrilaterals cover all six edges (nullity three)"


def test_union_lattice_height():
    c1 = frozenset({"ab", "bc", "ac"})
    c2 = frozenset({"ab", "bd", "ad"})
    assert oracles.union_lattice_height(K4.circuits, c1) == 1
    assert oracles.union_lattice_height(K4.circuits, c1 | c2) == 2


def test_modular_family_matches_union_lattice_height():
    """A family of circuits is modular exactly when its union sits at
    height |F| in the lattice of circuit unions, on every family of two
    and of three K4 circuits; both outcomes occur at both sizes."""
    outcomes = set()
    for size in (2, 3):
        for family in combinations(K4_CIRCUITS, size):
            union = frozenset().union(*family)
            modular = modular_family(K4, family)
            assert modular == (
                oracles.union_lattice_height(K4.circuits, union) == size)
            outcomes.add((size, modular))
    assert outcomes == {(2, True), (2, False), (3, True), (3, False)}


def test_from_bases_roundtrip():
    rebuilt = ClassicalMatroid.from_bases(U24.ground, U24.bases())
    assert rebuilt == U24
    with pytest.raises(InputError):
        ClassicalMatroid.from_bases(U24.ground, [frozenset({1, 2}),
                                                 frozenset({3})])


def test_not_a_matroid_constructor():
    g = GroundSet((1, 2, 3, 4))
    with pytest.raises(InputError):
        ClassicalMatroid(g, [0b0111, 0b1011])


def test_from_bases_rejects_two_disjoint_pairs():
    # the circuits derived from {12, 34} give back exactly these bases,
    # so only circuit validation tells that they are no matroid's
    with pytest.raises(InputError):
        ClassicalMatroid.from_bases(U24.ground, [frozenset({1, 2}),
                                                 frozenset({3, 4})])


# -- the mask implementation against the frozenset scans -------------------


@st.composite
def circuit_families(draw):
    """(n, family) over labels 1..n: random lists of sets, families of
    equal-size sets, circuits of binary matroids of rank at most 3, and
    such circuits with one dropped or one set added."""
    n = draw(st.integers(1, 7))
    nonempty = st.frozensets(st.integers(1, n), min_size=1, max_size=n)
    mode = draw(st.sampled_from(["list", "antichain", "binary", "perturbed"]))
    if mode == "list":
        return n, draw(st.lists(nonempty, min_size=2, max_size=8))
    if mode == "antichain":
        k = draw(st.integers(1, n))
        same_size = st.frozensets(st.integers(1, n), min_size=k, max_size=k)
        return n, list(draw(st.sets(same_size, min_size=1, max_size=12)))
    columns = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))
    family = [frozenset(i + 1 for i in c)
              for c in oracles.binary_matroid_circuits(columns)]
    family = draw(st.permutations(family))
    if mode == "perturbed":
        if family and draw(st.booleans()):
            family = family[1:]
        else:
            family = family + [draw(st.one_of(nonempty, st.just(frozenset())))]
    return n, family


@settings(max_examples=400, deadline=None)
@given(circuit_families())
def test_validate_circuits_matches_the_scan(case):
    n, family = case
    violation = validate_circuits(GroundSet(range(1, n + 1)), family)
    expected = oracles.circuit_violation(range(1, n + 1), family)
    if expected is None:
        assert violation is None
    else:
        assert violation is not None
        assert (violation.rule, violation.detail) == expected


def _corpus_matroids():
    found = [("U24", U24), ("K4", K4)]
    for entry in corpus_entries():
        obj = entry.build()
        try:
            found.append((entry.name, oracles.gp_matroid(obj)
                          if isinstance(obj, GPFunction) else obj.underlying_matroid()))
        except InputError:
            pass  # not-a-matroid
    return found


@pytest.mark.parametrize("name, m", _corpus_matroids(),
                         ids=[name for name, _ in _corpus_matroids()])
def test_derived_data_matches_the_scans(name, m):
    for basis in m.bases():
        for e in m.ground:
            if e in basis:
                continue
            scan = [c for c in m.circuits if c <= basis | {e}]
            assert [m.fundamental_circuit(basis, e)] == scan, (basis, e)
    pos = m.ground.index
    ordered = sorted(m.bases(), key=lambda b: sorted(map(pos, b)))
    for circuit in m.circuits:
        for x in circuit:
            partial = circuit - {x}
            scan = [m.ground.sort(b) for b in ordered if partial <= b]
            assert list(oracles.bases_containing(m, partial)) == scan, partial
    dual = m.dual()
    assert validate_circuits(m.ground, dual.circuits) is None
    assert oracles.circuit_violation(m.ground, dual.circuits) is None
    assert dual.dual() == m
    assert ClassicalMatroid.from_bases(m.ground, dual.bases()) == dual
