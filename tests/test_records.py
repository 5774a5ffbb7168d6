"""Value semantics of the package's records: equality, hashing, repr, immutability.

Each record compares equal only to a record of the same type with the
same fields, hashes by those fields, prints as `Type(field=value, ...)`
and refuses assignment; `SolveStats` is the one mutable record.
"""

import copy
import pickle

import pytest

from guardres import (
    AtomTable,
    Clause,
    Equation,
    Program,
    ProofError,
    ProofTree,
    SolveStats,
    SourceSpan,
    gl_reduct,
    guarded_resolve,
    verify_proof,
)

from corpus import example_program


def _records():
    """Per record type: its id, fields, two equal builds, an unequal one, and the repr."""
    program = example_program()
    a, b = frozenset([1]), frozenset([2])
    leaf = Clause(3, frozenset(), frozenset())
    reduct = gl_reduct(program, frozenset())
    return [
        ("Clause", ("head", "pos_body", "neg_body"), lambda: Clause(0, a, b), Clause(0, b, a),
         "Clause(head=0, pos_body=frozenset({1}), neg_body=frozenset({2}))"),
        # Guarded clauses, guarded atoms and reduct clauses are all Clauses.
        # A guarded atom `p : S` is the clause `p :- not S`.
        ("GuardedAtom", ("head", "pos_body", "neg_body"), lambda: Clause(0, frozenset(), a),
         Clause(0, frozenset(), b),
         "Clause(head=0, pos_body=frozenset(), neg_body=frozenset({1}))"),
        # A resolvent with a positive body left.
        ("GuardedClause", ("head", "pos_body", "neg_body"),
         lambda: guarded_resolve(Clause(0, a | {3}, b), Clause(3, frozenset(), frozenset())),
         guarded_resolve(Clause(0, a | {3}, b), Clause(3, frozenset(), a)),
         "Clause(head=0, pos_body=frozenset({1}), neg_body=frozenset({2}))"),
        ("ProofTree", ("label", "clause_parent", "atom_parent"),
         lambda: ProofTree.resolve(ProofTree(Clause(0, frozenset([3]), a)), ProofTree(leaf)),
         ProofTree(Clause(0, frozenset(), a)),
         "ProofTree(Clause(head=0, pos_body=frozenset(), neg_body=frozenset({1})), size=3)"),
        ("SourceSpan", ("line", "column"), lambda: SourceSpan(1, 2), SourceSpan(2, 1),
         "SourceSpan(line=1, column=2)"),
        # A clause of a reduct has an empty negative body: `p :- t, not q` gives `p :- t`.
        ("HornClause", ("head", "pos_body", "neg_body"),
         lambda: gl_reduct(program, frozenset()).clauses[0], reduct.clauses[1],
         "Clause(head=0, pos_body=frozenset({1}), neg_body=frozenset())"),
        ("Equation", ("atom", "supports", "proofs"),
         lambda: Equation(0, (a,), (ProofTree(leaf),)), Equation(0, (a,)),
         "Equation(atom=0, supports=(frozenset({1}),), proofs=(ProofTree("
         "Clause(head=3, pos_body=frozenset(), neg_body=frozenset()), size=1),))"),
    ]


RECORDS = [pytest.param(*record, id=name) for name, *record in _records()]


def _only(*names):
    return [record for record in RECORDS if record.id in names]


@pytest.mark.parametrize("fields, build, other, expected", RECORDS)
def test_record_equality_and_hash(fields, build, other, expected):
    one, two = build(), build()
    assert one is not two
    assert one == two and not one != two
    assert hash(one) == hash(two)
    assert one != other and other != one
    assert one != tuple(getattr(one, name) for name in fields)
    assert len({one, two, other}) == 2


# ProofTree hashes by shape, not by its fields.
@pytest.mark.parametrize("fields, build, other, expected", _only(
    "Clause", "GuardedAtom", "GuardedClause", "SourceSpan", "HornClause",
    "Equation"))
def test_record_hash_is_the_field_tuple_hash(fields, build, other, expected):
    # So a set of records iterates in the same order as it always has.
    record = build()
    assert hash(record) == hash(tuple(getattr(record, name) for name in fields))


@pytest.mark.parametrize("fields, build, other, expected", RECORDS)
def test_record_repr_is_dataclass_style(fields, build, other, expected):
    assert repr(build()) == expected


@pytest.mark.parametrize("fields, build, other, expected", RECORDS)
def test_record_fields_are_read_only(fields, build, other, expected):
    record = build()
    for name in fields:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value


@pytest.mark.parametrize("fields, build, other, expected", RECORDS)
def test_record_copy_and_pickle_round_trip(fields, build, other, expected):
    record = build()
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_same_fields_different_type_are_unequal():
    assert SourceSpan(1, 2) != (1, 2)


def test_solve_stats_is_mutable_and_unhashable():
    stats = SolveStats()
    assert repr(stats) == ("SolveStats(program_size=0, candidates_checked=0, "
                           "models_emitted=0, peak_candidate_state=0, "
                           "max_certificate_size=0)")
    assert stats == SolveStats()
    stats.candidates_checked += 2
    assert stats.candidates_checked == 2
    assert stats != SolveStats() and stats == SolveStats(candidates_checked=2)
    assert SolveStats(1, 2, 3, 4, 5) == SolveStats(
        program_size=1, candidates_checked=2, models_emitted=3,
        peak_candidate_state=4, max_certificate_size=5)
    with pytest.raises(TypeError):
        hash(stats)


def test_bad_leaf_message_embeds_label_repr():
    program = example_program()
    p = program.atoms.id_of("p")
    with pytest.raises(ProofError) as caught:
        verify_proof(ProofTree(Clause(p, frozenset(), frozenset([4]))), program)
    assert str(caught.value) == (
        "leaf Clause(head=0, pos_body=frozenset(), neg_body=frozenset({4})) "
        "is not the image of a program clause")
    clause = Clause(p, frozenset([4]), frozenset())
    with pytest.raises(ProofError) as caught:
        verify_proof(ProofTree(clause), program)
    assert str(caught.value) == (
        "leaf Clause(head=0, pos_body=frozenset({4}), neg_body=frozenset()) "
        "is not the image of a program clause")


def test_program_dedupes_equal_clauses():
    table = AtomTable(["a", "b"])
    clauses = [Clause(0, frozenset(), frozenset([1])) for _ in range(3)]
    assert Program(table, clauses).clauses == (clauses[0],)
