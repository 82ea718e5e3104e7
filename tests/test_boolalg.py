import functools
import itertools
import operator
import random

import pytest

from contact_duality.boolalg import (
    MAX_ATOMS_ENV,
    FiniteBooleanAlgebra,
    atom_join,
    atom_unions,
    subset_joins,
)
from contact_duality.errors import StructureError


@pytest.fixture
def pq():
    return FiniteBooleanAlgebra.of("p", "q")


def test_join_meet_of_disjoint_atoms(pq):
    p, q = pq.element_of_names(["p"]), pq.element_of_names(["q"])
    assert p | q == pq.top
    assert p & q == 0
    assert pq.names_of(p | q) == ("p", "q")


def test_complement_of_top_is_bottom(pq):
    assert pq.complement(pq.top) == 0
    assert pq.complement(0) == pq.top


def test_big_join_of_atoms_is_top():
    for n in range(1, 5):
        alg = FiniteBooleanAlgebra(tuple(f"a{i}" for i in range(n)))
        atoms = [alg.element_of_names([name]) for name in alg.atom_names]
        assert functools.reduce(operator.or_, atoms) == alg.top
        assert functools.reduce(operator.and_, alg.elements()) == 0


def test_atoms_of_examples():
    alg = FiniteBooleanAlgebra.of("p", "q", "r")
    assert alg.atoms_of(0) == []
    assert alg.atoms_of(alg.top) == [0, 1, 2]
    assert alg.atoms_of(alg.element_of_names(["q"])) == [1]


def test_le_iff_meet_is_self_exhaustive():
    for n in range(1, 5):
        alg = FiniteBooleanAlgebra(tuple(f"a{i}" for i in range(n)))
        for a in alg.elements():
            for b in alg.elements():
                assert alg.le(a, b) == (a & b == a)


def test_boolean_laws_exhaustive_up_to_four_atoms():
    for n in range(1, 5):
        alg = FiniteBooleanAlgebra(tuple(f"a{i}" for i in range(n)))
        for a in alg.elements():
            assert alg.complement(alg.complement(a)) == a
            for b in alg.elements():
                assert alg.complement(a | b) == alg.complement(a) & alg.complement(b)
                assert alg.complement(a & b) == alg.complement(a) | alg.complement(b)
                for c in alg.elements():
                    assert a & (b | c) == (a & b) | (a & c)
                    assert a | (b & c) == (a | b) & (a | c)


def test_width_mismatch_is_structural(pq):
    big = FiniteBooleanAlgebra.of("p", "q", "r")
    with pytest.raises(StructureError):
        pq.check_element(big.top)
    with pytest.raises(StructureError):
        pq.le(0b100, 0)
    with pytest.raises(StructureError):
        pq.check_element(-1)


def test_bool_is_not_an_element(pq):
    from contact_duality.localcontact import BoundedIdeal
    for flag in (True, False):
        with pytest.raises(StructureError):
            pq.check_element(flag)
        with pytest.raises(StructureError):
            pq.le(flag, 0)
        with pytest.raises(StructureError):
            BoundedIdeal(pq, flag)


def test_sizes_stay_out_of_equality_and_repr(pq):
    fresh = FiniteBooleanAlgebra.of("p", "q")
    assert (pq.atom_count, pq.size, pq.top) == (2, 4, 3)
    assert fresh == pq and hash(fresh) == hash(pq)
    assert repr(fresh) == repr(pq) == "FiniteBooleanAlgebra(atom_names=('p', 'q'))"


def test_names_round_trip(pq):
    for a in pq.elements():
        assert pq.element_of_names(pq.names_of(a)) == a
    with pytest.raises(StructureError):
        pq.element_of_names(["z"])


def test_construction_rejects_bad_atom_lists():
    with pytest.raises(StructureError):
        FiniteBooleanAlgebra(())
    with pytest.raises(StructureError):
        FiniteBooleanAlgebra(("p", "p"))


def test_atom_cap_and_env_override(monkeypatch):
    too_many = tuple(f"a{i}" for i in range(25))
    with pytest.raises(StructureError):
        FiniteBooleanAlgebra(too_many)
    monkeypatch.setenv(MAX_ATOMS_ENV, "30")
    assert FiniteBooleanAlgebra(too_many).atom_count == 25
    monkeypatch.setenv(MAX_ATOMS_ENV, "bogus")
    with pytest.raises(StructureError):
        FiniteBooleanAlgebra(too_many)


def test_atom_unions_equal_atom_join_on_seeded_values():
    rng = random.Random(20)
    for n in range(9):
        for _ in range(4):
            values = [rng.getrandbits(10) for _ in range(n)]
            table = atom_unions(values)
            assert len(table) == 1 << n
            for a in range(1 << n):
                expected = 0
                for i in range(n):
                    if a >> i & 1:
                        expected |= values[i]
                assert table[a] == atom_join(values, a) == expected, (values, a)


def brute_subset_joins(table):
    """For every c, the join of table[b] over every b below c, by the submask test."""
    out = []
    for c in range(len(table)):
        join = 0
        for b in range(len(table)):
            if b | c == c:
                join |= table[b]
        out.append(join)
    return out


def test_subset_joins_equal_the_submask_join_on_every_table_up_to_two_atoms():
    tables = 0
    for n in (0, 1, 2):
        for table in itertools.product(range(4), repeat=1 << n):
            assert subset_joins(table) == brute_subset_joins(table), table
            tables += 1
    assert tables == 4 + 16 + 256


def test_subset_joins_equal_the_submask_join_on_seeded_tables():
    rng = random.Random(1912)
    for n in range(7):
        for _ in range(6):
            table = tuple(rng.getrandbits(n + 3) if rng.random() < 0.3 else 0
                          for _ in range(1 << n))
            assert subset_joins(table) == brute_subset_joins(table), (n, table)


def test_atom_index_refuses_unknown_and_unhashable_names(pq):
    assert [pq.atom_index(x) for x in ("p", "q")] == [0, 1]
    for name in ("r", ["p"], {"q": 1}, 1):
        with pytest.raises(StructureError) as caught:
            pq.atom_index(name)
        assert str(caught.value) == f"unknown atom {name!r}"
