import random

import pytest
from hypothesis import example, given, settings, strategies as st

from guardres import (
    AtomTable,
    CnfTheory,
    Equation,
    all_interpretations,
    dpll_solve,
    enumerate_models,
    export_dimacs,
    parse_dimacs,
    program_to_cnf,
)
from guardres.sat import _assign, _compile, clause_satisfied, equation_to_cnf, make_clause

from corpus import (
    example_program,
    minimal_family,
    random_cnf,
    reference_enumerate_models,
    truth_table_models,
)


def _clause_name_sets(theory):
    name = theory.atoms.name
    return {
        frozenset((name(a), pol) for a, pol in clause)
        for clause in theory.clauses
    }


def test_program_to_cnf_worked_example():
    program = example_program()
    theory = program_to_cnf(program)
    assert _clause_name_sets(theory) == {
        frozenset({("t", False), ("q", True), ("p", True)}),
        frozenset({("r", True), ("p", True)}),
        frozenset({("s", True), ("q", True)}),
        frozenset({("t", True)}),
    }
    assert len(theory.clauses) == 4
    assert len(theory.atoms) == 5


def test_make_clause_drops_tautologies():
    assert make_clause([(0, True), (0, False)]) is None
    assert make_clause([(0, True), (1, False)]) is not None


def test_theory_dedups_clauses():
    table = AtomTable(["p", "q"])
    theory = CnfTheory.from_literals(
        table, [[(0, True)], [(0, True)], [(0, True), (0, False)]])
    assert len(theory.clauses) == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5), st.frozensets(st.integers(0, 5)))
@example(0, frozenset())
@example(0, frozenset([0]))
@example(3, frozenset([0, 3, 5]))
def test_equation_to_cnf_narrowed_shapes(atom, guard):
    # The lists, in order, behind the DIMACS text of `-p`, `p.` and `p <-> -S`.
    assert equation_to_cnf(atom, (), 6) == [frozenset([(atom, False)])]
    expected = [frozenset([(atom, False), (r, False)]) for r in sorted(guard)]
    expected.append(frozenset([(atom, True)] + [(r, True) for r in guard]))
    assert equation_to_cnf(atom, (guard,), 6) == expected


def test_equation_to_cnf_self_guard_is_unsat():
    theory = CnfTheory(AtomTable(["p"]), equation_to_cnf(0, (frozenset([0]),), 1))
    assert dpll_solve(theory) is None


@st.composite
def _antichain_equations(draw):
    """An atom among 6 and an antichain of at most 5 guards over them."""
    guards = draw(st.lists(st.frozensets(st.integers(0, 5), min_size=1), max_size=5))
    return Equation(draw(st.integers(0, 5)), tuple(sorted(minimal_family(guards), key=sorted)))


@settings(max_examples=300, deadline=None)
@given(_antichain_equations())
@example(Equation(0, ()))
@example(Equation(0, (frozenset(),)))
@example(Equation(0, (frozenset([0]), frozenset([1]))))
def test_equation_to_cnf_chain_matches_equation(equation):
    """Projected onto the 6 atoms, the chain encoding's models are the
    interpretations where the equation holds, each extends to exactly one
    chain assignment, and unit propagation alone fixes that chain."""
    n = 6
    supports = equation.supports
    k = len(supports)
    clauses = equation_to_cnf(equation.atom, supports, n)
    if k:
        assert len(clauses) == \
            k + sum(len(s) + 2 for s in supports[:-1]) + len(supports[-1])
    else:
        assert len(clauses) == 1
    assert all(make_clause(c) is not None for c in clauses)
    theory = CnfTheory(AtomTable(f"x{i}" for i in range(n + max(k - 1, 0))), clauses)
    full = truth_table_models(theory)
    projected = {model & frozenset(range(n)) for model in full}
    assert len(projected) == len(full)
    assert projected == {m for m in all_interpretations(n) if equation.holds_in(m)}
    falsified_by, units, empty = _compile(len(theory.atoms), theory.clauses)
    assert units == [next(iter(clause)) for clause in theory.clauses if len(clause) == 1]
    assert not empty
    for model in full:
        values = [None] * len(theory.atoms)
        trail = []
        for atom in range(n):
            if values[atom] is None:
                assert _assign(atom, atom in model, theory.clauses, falsified_by, values, trail)
        assert values == [atom in model for atom in range(len(theory.atoms))]


def _candidate_theory(program, chosen):
    """Program CNF plus subequation clauses for the worked example."""
    clauses = list(program_to_cnf(program).clauses)
    for name, guard_names in chosen.items():
        atom = program.atoms.id_of(name)
        supports = () if guard_names is None else (frozenset(
            program.atoms.id_of(g) for g in guard_names),)
        clauses.extend(equation_to_cnf(atom, supports, len(program.atoms)))
    return CnfTheory(program.atoms, clauses)


def test_dpll_worked_example_candidates():
    program = example_program()
    inconsistent = _candidate_theory(program, {
        "p": None, "q": frozenset({"s"}), "t": frozenset(), "r": None, "s": None,
    })
    assert dpll_solve(inconsistent) is None

    consistent = _candidate_theory(program, {
        "p": frozenset({"r"}), "q": frozenset({"s"}),
        "t": frozenset(), "r": None, "s": None,
    })
    assignment = dpll_solve(consistent)
    assert assignment is not None
    model = frozenset(a for a, v in assignment.items() if v)
    assert model == frozenset(program.atoms.id_of(n) for n in "pqt")
    assert enumerate_models(consistent) == [model]


def test_dpll_empty_theory_is_all_false():
    table = AtomTable(["a", "b"])
    theory = CnfTheory(table, [])
    assert dpll_solve(theory) == {0: False, 1: False}


def test_dpll_respects_assumptions():
    table = AtomTable(["a", "b"])
    theory = CnfTheory.from_literals(table, [[(0, True), (1, True)]])
    assignment = dpll_solve(theory, {0: False})
    assert assignment == {0: False, 1: True}
    unit = CnfTheory.from_literals(table, [[(0, True)]])
    assert dpll_solve(unit, {0: False}) is None
    # One assumption forces the other atom through `-a | b`, and the
    # other assumption denies it, in either order.
    implied = CnfTheory.from_literals(table, [[(0, False), (1, True)]])
    assert dpll_solve(implied, {0: True, 1: False}) is None
    assert dpll_solve(implied, {1: False, 0: True}) is None


def test_enumerate_models_examples():
    table = AtomTable(["p", "q"])
    unit_p = CnfTheory.from_literals(table, [[(0, True)]])
    assert enumerate_models(unit_p) == [frozenset([0]), frozenset([0, 1])]

    exactly_one = CnfTheory.from_literals(
        table, [[(0, True), (1, True)], [(0, False), (1, False)]])
    assert enumerate_models(exactly_one) == [frozenset([0]), frozenset([1])]


def test_unit_propagation_closure():
    table = AtomTable(["a", "b", "c", "d", "e"])
    theory = CnfTheory.from_literals(
        table, [[(0, True)], [(0, False), (1, True)], [(1, False), (2, True)],
                [(2, False), (3, True), (4, True)]])
    clauses = theory.clauses
    falsified_by, units, empty = _compile(len(table), clauses)
    assert units == [(0, True)] and not empty
    values = [None] * len(table)
    trail = []
    assert _assign(0, True, clauses, falsified_by, values, trail)
    assert values == [True, True, True, None, None]
    assert trail == [0, 1, 2]
    # After closure no clause is unit or falsified under the assignment.
    for clause in theory.clauses:
        undecided = [lit for lit in clause if values[lit[0]] is None]
        satisfied = any(values[a] == pol for a, pol in clause)
        assert satisfied or len(undecided) > 1
    # Deciding d false leaves e as the last open literal of its clause.
    assert _assign(3, False, clauses, falsified_by, values, trail)
    assert values == [True, True, True, False, True]
    # b and -b both following from a is a conflict.
    clauses = CnfTheory.from_literals(
        AtomTable(["a", "b"]), [[(0, False), (1, True)], [(0, False), (1, False)]]).clauses
    falsified_by, units, empty = _compile(2, clauses)
    assert units == [] and not empty
    assert not _assign(0, True, clauses, falsified_by, [None, None], [])


def test_dpll_agrees_with_truth_tables():
    rng = random.Random(60601)
    for _ in range(300):
        theory = random_cnf(rng)
        expected = truth_table_models(theory)
        found = enumerate_models(theory)
        assert found == expected
        assignment = dpll_solve(theory)
        if expected:
            assert assignment is not None
            model = frozenset(a for a, v in assignment.items() if v)
            assert all(clause_satisfied(c, model) for c in theory.clauses)
        else:
            assert assignment is None


def _lex_first(models, n):
    """The model DPLL reaches first: lowest atom id decides, false first."""
    return min(models, key=lambda m: [a in m for a in range(n)])


@st.composite
def _cnf_theories(draw):
    n = draw(st.integers(0, 8))
    literal = st.tuples(st.integers(0, n - 1), st.booleans()) if n else st.nothing()
    clause = st.lists(literal, max_size=4) if n else st.just([])
    clause_lists = draw(st.lists(clause, max_size=14))
    return CnfTheory.from_literals(AtomTable(f"x{i}" for i in range(n)), clause_lists)


@st.composite
def _cnf_with_assumptions(draw):
    theory = draw(_cnf_theories())
    n = len(theory.atoms)
    assumptions = draw(st.dictionaries(st.integers(0, n - 1), st.booleans())
                       if n else st.just({}))
    return theory, assumptions


@settings(max_examples=300, deadline=None)
@given(_cnf_with_assumptions())
@example((CnfTheory(AtomTable([]), []), {}))
@example((CnfTheory.from_literals(AtomTable([]), [[]]), {}))
# Two root units that clash, directly and through propagation: no model.
@example((CnfTheory.from_literals(AtomTable(["a"]), [[(0, True)], [(0, False)]]), {}))
@example((CnfTheory.from_literals(AtomTable(["a", "b"]),
                                  [[(0, True)], [(0, False), (1, True)], [(1, False)]]), {}))
def test_search_matches_truth_tables(case):
    theory, assumptions = case
    n = len(theory.atoms)
    expected = truth_table_models(theory)
    assert enumerate_models(theory) == expected
    for given_values in ({}, assumptions):
        allowed = [m for m in expected
                   if all((a in m) == v for a, v in given_values.items())]
        assignment = dpll_solve(theory, given_values)
        if allowed:
            first = _lex_first(allowed, n)
            assert assignment == {a: a in first for a in range(n)}
        else:
            assert assignment is None


@settings(max_examples=300, deadline=None)
@given(_cnf_with_assumptions())
def test_assumptions_are_unit_clauses(case):
    # Unit propagation reaches one closure in any order, so the first model is the same.
    theory, assumptions = case
    units = [[(atom, value)] for atom, value in assumptions.items()]
    with_units = CnfTheory.from_literals(theory.atoms, [*theory.clauses, *units])
    assert dpll_solve(theory, assumptions) == dpll_solve(with_units)


@st.composite
def _random_cnfs(draw):
    """1 to 10 atoms, n to n + 6 distinct clauses of 1 to 3 literals: few
    enough models for the blocking-clause reference, which is cubic in them."""
    n = draw(st.integers(1, 10))
    literal = st.tuples(st.integers(0, n - 1), st.booleans())
    clause = st.lists(literal, min_size=1, max_size=3, unique_by=lambda lit: lit[0])
    clause_lists = draw(st.lists(clause, min_size=n, max_size=n + 6, unique_by=frozenset))
    return CnfTheory.from_literals(AtomTable(f"x{i}" for i in range(n)), clause_lists)


@settings(max_examples=200, deadline=None)
@given(_random_cnfs())
def test_enumerate_models_matches_reference(theory):
    # Branching from the highest id down meets the models in bitmask order, unsorted.
    assert enumerate_models(theory) == reference_enumerate_models(theory)


@settings(max_examples=300, deadline=None)
@given(_cnf_theories().flatmap(
    lambda theory: st.tuples(st.just(theory), st.permutations(range(len(theory.atoms))))))
def test_enumerate_models_follows_branching_order(case):
    theory, order = case
    expected = sorted(truth_table_models(theory), key=lambda m: [a in m for a in order])
    assert enumerate_models(theory, order) == expected


def test_search_is_not_recursive():
    # x_i -> x_{i+1} and x_i -> -x_{i+1}: every x_i but the last is false,
    # which the false-first search finds only after 3,000 decisions.
    n = 3000
    clause_lists = []
    for i in range(n - 1):
        clause_lists.append([(i, False), (i + 1, True)])
        clause_lists.append([(i, False), (i + 1, False)])
    theory = CnfTheory.from_literals(AtomTable(f"x{i}" for i in range(n)), clause_lists)
    assert dpll_solve(theory) == {a: False for a in range(n)}
    assert enumerate_models(theory) == [frozenset(), frozenset([n - 1])]


def test_search_rejects_atoms_outside_theory():
    table = AtomTable(["a"])
    with pytest.raises(ValueError):
        dpll_solve(CnfTheory(table, []), {1: True})
    for atom in (1, -1):
        theory = CnfTheory.from_literals(table, [[(atom, True)]])
        with pytest.raises(ValueError):
            enumerate_models(theory)
        with pytest.raises(ValueError):
            dpll_solve(theory)
    theory = CnfTheory(AtomTable(["a", "b"]), [])
    for order in ([0], [1, 1], [0, 2], [1, 0, 2]):
        with pytest.raises(ValueError):
            enumerate_models(theory, order)


def test_out_of_range_errors_come_before_the_empty_clause():
    # An empty clause means "no model" only once every literal and every
    # assumption is known to lie inside the theory.
    with_bad_literal = CnfTheory(AtomTable(["a"]), [frozenset(), frozenset({(3, True)})])
    with pytest.raises(ValueError, match="literal on atom id 3"):
        enumerate_models(with_bad_literal)
    with pytest.raises(ValueError, match="literal on atom id 3"):
        dpll_solve(with_bad_literal)
    # `dpll_solve` checks its assumptions before the search compiles the clauses.
    with pytest.raises(ValueError, match="assumption on atom id 7"):
        dpll_solve(with_bad_literal, {7: True})
    empty = CnfTheory(AtomTable(["a"]), [frozenset()])
    with pytest.raises(ValueError, match="assumption on atom id 7"):
        dpll_solve(empty, {7: True})
    assert dpll_solve(empty) is None
    assert enumerate_models(empty) == []


def test_export_dimacs_offset_rule():
    table = AtomTable(["a", "b", "c", "t", "e"])
    theory = CnfTheory.from_literals(table, [[(3, True)]])
    text = export_dimacs(theory)
    assert "p cnf 5 1\n4 0\n" in text
    assert "c 4 t" in text


def test_export_dimacs_empty_theory():
    table = AtomTable(["a", "b", "c"])
    assert export_dimacs(CnfTheory(table, [])).endswith("p cnf 3 0\n")


def test_export_dimacs_worked_example():
    theory = program_to_cnf(example_program())
    text = export_dimacs(theory)
    assert text == (
        "c 1 p\nc 2 t\nc 3 q\nc 4 r\nc 5 s\n"
        "p cnf 5 4\n"
        "1 -2 3 0\n"
        "1 4 0\n"
        "3 5 0\n"
        "2 0\n"
    )


def test_dimacs_roundtrip_preserves_models():
    rng = random.Random(11)
    for _ in range(50):
        theory = random_cnf(rng, max_vars=8)
        back = parse_dimacs(export_dimacs(theory))
        assert back.atoms.names == theory.atoms.names
        assert enumerate_models(back) == enumerate_models(theory)


@settings(max_examples=300, deadline=None)
@given(_cnf_theories())
def test_dimacs_roundtrip_property(theory):
    back = parse_dimacs(export_dimacs(theory))
    assert back.atoms.names == theory.atoms.names
    assert back.clauses == theory.clauses


@pytest.mark.parametrize("text", [
    "p cnf 2 1\n1 5 0\n",
    "p cnf 2 1\n-3 0\n",
    "p cnf -1 0\n",
    # Fewer clause lines than the header says, and a second header.
    "p cnf 2 5\n1 0\n",
    "p cnf 1 1\np cnf 3 0\n1 0\n3 0\n",
    # Name comments for variable 0 and for one past the variable count.
    "c 0 x\nc 7 y\np cnf 1 1\n1 0\n",
    "c 2 y\np cnf 1 1\n1 0\n",
    # A 0 inside a clause line.
    "p cnf 2 1\n1 0 2 0\n",
])
def test_parse_dimacs_rejects_out_of_range(text):
    with pytest.raises(ValueError):
        parse_dimacs(text)


@pytest.mark.parametrize("text, name", [
    ("c 1 x\nc 2 x\np cnf 2 1\n1 2 0\n", "x"),
    # A named variable may not take the default name of an unnamed one.
    ("c 1 v2\np cnf 2 1\n1 2 0\n", "v2"),
])
def test_parse_dimacs_rejects_repeated_names(text, name):
    with pytest.raises(ValueError, match=f"atom name '{name}' names two DIMACS variables"):
        parse_dimacs(text)


def test_parse_dimacs_counts_lines_before_dedup():
    # Three clause lines match the header; the repeat and the tautology go.
    theory = parse_dimacs("p cnf 2 3\n1 0\n1 0\n1 -1 0\n")
    assert theory.clauses == (frozenset([(0, True)]),)


@pytest.mark.parametrize("text, message", [
    ("p cnf 3\n", "malformed DIMACS header: 'p cnf 3'"),
    ("p cnf 1 1\n1\n", "clause line does not end with 0: '1'"),
    ("1 0\n", "missing DIMACS header"),
])
def test_parse_dimacs_rejects_malformed_text(text, message):
    with pytest.raises(ValueError) as caught:
        parse_dimacs(text)
    assert str(caught.value) == message


def test_parse_dimacs_skips_plain_comments():
    plain = parse_dimacs("p cnf 1 1\n1 0\n")
    # Blank and whitespace-only lines are skipped like comments.
    commented = parse_dimacs("c hello\n\np cnf 1 1\n \t\n1 0\n\n")
    assert commented.atoms.names == plain.atoms.names
    assert commented.clauses == plain.clauses == (frozenset([(0, True)]),)
