import random

import pytest
from hypothesis import given, settings

from guardres import (
    AtomTable,
    Clause,
    Program,
    all_interpretations,
    format_interpretation,
    interpretation,
    satisfies_clause,
)

from corpus import direct_clause_value, interpretation_key, small_programs


def test_intern_first_insertion():
    table = AtomTable()
    assert table.intern("p") == 0
    assert table.name(0) == "p"


def test_intern_idempotent():
    table = AtomTable()
    assert table.intern("p") == table.intern("p") == 0
    assert len(table) == 1


def test_intern_dense_ids():
    table = AtomTable()
    table.intern("p")
    assert table.intern("q") == 1


def test_intern_rejects_invalid_names():
    table = AtomTable()
    for bad in ("", "9x", "a-b", "a b", "p."):
        with pytest.raises(ValueError):
            table.intern(bad)


def test_intern_name_roundtrip():
    table = AtomTable()
    for name in ("p", "q0", "_under", "CamelCase", "x_1_y"):
        assert table.name(table.intern(name)) == name


def test_frozen_table_rejects_new_names():
    table = AtomTable(["p"])
    table.freeze()
    assert table.intern("p") == 0
    with pytest.raises(ValueError):
        table.intern("q")


def _clause(table, head, pos=(), neg=()):
    ids = lambda names: frozenset(table.intern(n) for n in names)
    return Clause(table.intern(head), ids(pos), ids(neg))


def test_satisfies_clause_examples():
    table = AtomTable(["p", "q", "r", "t"])
    fact = _clause(table, "t")
    assert satisfies_clause(interpretation(table, ["t"]), fact)
    neg_only = _clause(table, "p", neg=["r"])
    assert not satisfies_clause(frozenset(), neg_only)
    blocked = _clause(table, "p", pos=["t"], neg=["q"])
    assert satisfies_clause(interpretation(table, ["p", "q", "t"]), blocked)


def test_satisfies_clause_truth_table():
    # Every clause shape over three atoms, against the direct disjunction.
    table = AtomTable(["a", "b", "c"])
    subsets = list(all_interpretations(3))
    for head in range(3):
        for pos in subsets:
            for neg in subsets:
                clause = Clause(head, pos, neg)
                for members in subsets:
                    assert satisfies_clause(members, clause) == \
                        direct_clause_value(members, clause)


def test_program_dedup_preserves_order():
    table = AtomTable(["a", "b"])
    c1 = Clause(0, frozenset(), frozenset([1]))
    c2 = Clause(1, frozenset(), frozenset())
    program = Program(table, [c1, c2, c1])
    assert program.clauses == (c1, c2)


def test_program_rejects_unregistered_atoms():
    table = AtomTable(["a"])
    with pytest.raises(ValueError):
        Program(table, [Clause(0, frozenset([3]), frozenset())])


def test_program_freezes_table():
    table = AtomTable(["a"])
    Program(table, [])
    with pytest.raises(ValueError):
        table.intern("b")


def test_overlapping_body_clause_is_kept():
    table = AtomTable(["p"])
    clause = Clause(0, frozenset([0]), frozenset([0]))
    program = Program(table, [clause])
    assert program.clauses == (clause,)


@settings(max_examples=200, deadline=None)
@given(small_programs())
def test_clauses_using_lists_each_clause_once_per_positive_body_atom(program):
    for atom in range(len(program.atoms)):
        assert program.clauses_using(atom) == tuple(
            idx for idx, clause in enumerate(program.clauses) if atom in clause.pos_body)


def test_format_interpretation_sorted_by_name():
    table = AtomTable(["z", "a"])
    table.freeze()
    assert format_interpretation(table, frozenset([0, 1])) == "{a, z}"
    assert format_interpretation(table, frozenset()) == "{}"


def test_all_interpretations_bitmask_order():
    subsets = list(all_interpretations(2))
    assert subsets == [frozenset(), frozenset([0]), frozenset([1]), frozenset([0, 1])]
    keys = [interpretation_key(m) for m in subsets]
    assert keys == sorted(keys)


def test_interpretation_key_random_agreement():
    rng = random.Random(7)
    for _ in range(50):
        members = frozenset(rng.sample(range(10), k=rng.randint(0, 10)))
        assert interpretation_key(members) == sum(1 << a for a in members)
