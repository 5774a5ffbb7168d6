import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings

from guardres import (
    AtomTable,
    Program,
    all_interpretations,
    brute_force_stable,
    build_completion,
    dung_transform,
    equivalent,
    format_equation,
    format_equations,
    models_of_completion,
    render_program,
    saturate_supports,
    solve_stable,
)

from corpus import (
    all_supports,
    example_program,
    interpretation_key,
    members_of,
    prog,
    random_program,
    small_programs,
)


def _equation_map(program, equations):
    name = program.atoms.name
    return {
        name(eq.atom): {frozenset(name(a) for a in s) for s in eq.supports}
        for eq in equations
    }


def test_build_completion_worked_example():
    program = example_program()
    assert _equation_map(program, build_completion(program)) == {
        "p": {frozenset({"q"}), frozenset({"r"})},
        "t": {frozenset()},
        "q": {frozenset({"s"})},
        "r": set(),
        "s": set(),
    }


def test_build_completion_self_guard():
    program = prog("p :- not p.")
    equations = build_completion(program)
    assert _equation_map(program, equations) == {
        "p": {frozenset({"p"})},
    }
    assert models_of_completion(program, equations) == []
    assert brute_force_stable(program) == []


def test_build_completion_unclaused_atom_is_negative():
    table = AtomTable(["a"])
    program = Program(table, [])
    equations = build_completion(program)
    assert _equation_map(program, equations) == {"a": set()}
    assert models_of_completion(program, equations) == [frozenset()]


def test_completion_format_golden():
    program = example_program()
    assert format_equations(build_completion(program), program.atoms) == (
        "p <-> -q | -r\n"
        "t.\n"
        "q <-> -s\n"
        "-r.\n"
        "-s.\n"
    )


def test_models_of_completion_worked_example():
    program = example_program()
    equations = build_completion(program)
    assert models_of_completion(program, equations) == [members_of(program, "p", "q", "t")]


def test_models_of_completion_single_fact():
    program = prog("t.")
    assert models_of_completion(program, build_completion(program)) == [frozenset([0])]


@settings(max_examples=300, deadline=None)
@given(small_programs())
def test_models_of_completion_is_brute_force_in_order(program):
    # Equal as lists: the ordered search yields the projections in bitmask order.
    assert models_of_completion(program, build_completion(program)) == brute_force_stable(program)


def _choice_pairs_text(pairs: int) -> str:
    return "".join(f"a{i} :- not b{i}.\nb{i} :- not a{i}.\n" for i in range(pairs))


def test_models_of_completion_past_atom_count_of_brute_force():
    # 22 atoms, past brute force's 20-atom oracle cap: one model per choice.
    program = prog(_choice_pairs_text(11))
    expected = sorted(
        (frozenset(program.atoms.id_of(f"{'ab'[pick]}{i}") for i, pick in enumerate(picks))
         for picks in product((0, 1), repeat=11)),
        key=interpretation_key)
    assert len(expected) == 2 ** 11
    assert models_of_completion(program, build_completion(program)) == expected


@pytest.mark.parametrize("text", [
    # 45 two-atom supports over 10 atoms: 2^45 clauses by distribution.
    "".join(f"p :- not x{i}, not x{j}.\n" for i, j in combinations(range(10), 2)),
    # 6 disjoint 8-atom supports, 49 atoms: 8^6 clauses by distribution.
    "".join("p :- " + ", ".join(f"not x{j}_{i}" for i in range(8)) + ".\n"
            for j in range(6)),
], ids=["45-two-atom-supports", "6-disjoint-8-atom-supports"])
def test_models_of_completion_many_supports_match_candidate_engine(text):
    program = prog(text)
    models = models_of_completion(program, build_completion(program))
    assert models == [members_of(program, "p")]
    assert models == [model for model, _ in solve_stable(program)]


def test_models_of_completion_atom_names_like_chain_names():
    # The equations of `_` and `___1` have two supports each, so each gets
    # a chain atom, and the program's own names are underscores and digits.
    program = prog("_ :- not __0, not ___1.\n"
                   "_ :- not ___0.\n"
                   "__0 :- not ___0.\n"
                   "___0 :- not __0.\n"
                   "___1 :- not _.\n"
                   "___1 :- not __0.\n")
    equations = build_completion(program)
    assert all(len(eq.supports) == 2 for eq in equations
               if program.atoms.name(eq.atom) in ("_", "___1"))
    assert models_of_completion(program, equations) == brute_force_stable(program)
    assert {model for model, _ in solve_stable(program)} == \
        set(models_of_completion(program, equations))


def test_dung_transform_worked_example():
    program = example_program()
    negative = dung_transform(program)
    assert render_program(negative) == (
        "p :- not q.\n"
        "p :- not r.\n"
        "t.\n"
        "q :- not s.\n"
    )
    assert all(not c.pos_body for c in negative.clauses)


def test_dung_transform_self_blocker_is_fixed_point():
    program = prog("p :- not p.")
    assert render_program(dung_transform(program)) == "p :- not p.\n"


def test_dung_transform_purely_negative_keeps_stable_models():
    program = prog("a :- not b.\na :- not b, not c.\nb :- not a.")
    negative = dung_transform(program)
    assert all(not c.pos_body for c in negative.clauses)
    assert equivalent(program, negative)
    # Dominated clause {b, c} collapses into {b}.
    assert len(negative.clauses) < len(program.clauses) + 1


def test_equivalent_examples():
    program = example_program()
    assert equivalent(program, dung_transform(program))
    assert equivalent(program, program)
    assert not equivalent(prog("p :- not q."), prog("q :- not p."))


def test_completion_matches_oracle_on_random_corpus():
    rng = random.Random(1717)
    for _ in range(60):
        program = random_program(rng, max_atoms=6, max_clauses=10)
        equations = build_completion(program)
        assert models_of_completion(program, equations) == brute_force_stable(program)


def test_minimal_antichain_equations_match_full_support_equations():
    # Subsumption soundness: using every derivable support instead of the
    # minimal antichain never changes which interpretations satisfy E_P.
    rng = random.Random(2718)
    for _ in range(60):
        program = random_program(rng, max_atoms=6, max_clauses=9)
        equations = build_completion(program)
        full = all_supports(program)
        n = len(program.atoms)
        for members in all_interpretations(n):
            minimal_ok = all(eq.holds_in(members) for eq in equations)
            full_ok = all(
                (atom in members) == any(not (s & members) for s in full[atom])
                for atom in range(n))
            assert minimal_ok == full_ok


def test_shape_law_on_random_corpus():
    rng = random.Random(31415)
    for _ in range(60):
        program = random_program(rng, max_atoms=6, max_clauses=9)
        table = saturate_supports(program)
        for eq in build_completion(program):
            supports = table.supports(eq.atom)
            assert eq.supports == supports
            # The empty guard is the whole antichain, and prints as `p.`.
            name = program.atoms.name(eq.atom)
            text = format_equation(eq, program.atoms)
            assert (text == f"{name}.") == (frozenset() in supports) == (
                supports == (frozenset(),))
            assert (text == f"-{name}.") == (not supports)


def test_same_support_tables_implies_equivalent():
    # Sufficient direction, exercised constructively via the transform.
    rng = random.Random(161803)
    for _ in range(40):
        program = random_program(rng, max_atoms=6, max_clauses=9)
        negative = dung_transform(program)
        assert saturate_supports(program).by_name() == \
            saturate_supports(negative).by_name()
        assert equivalent(program, negative)
