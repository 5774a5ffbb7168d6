import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guardres import (
    AtomTable,
    Clause,
    Equation,
    Program,
    ProofError,
    ProofTree,
    SolveStats,
    brute_force_stable,
    build_completion,
    candidate_cnf,
    candidate_theories,
    candidate_theory,
    check_candidate,
    enumerate_models,
    format_certificate,
    models_of_completion,
    program_to_cnf,
    saturate_supports,
    solve_stable,
    verify_proof,
)
from guardres.solver import STATE_BOUND_FACTOR, support_subequation

from corpus import (
    FOUR_PAIRS_TEXT,
    checked_candidates,
    example_program,
    ladder_text,
    members_of,
    names_of,
    prog,
    random_program,
    reference_choices,
    reference_model_certificate,
    reference_one_search,
    reference_prunable,
    reference_solve_stable,
    reversed_chain_text,
    small_programs,
)


def _choice_names(program, candidate):
    name = program.atoms.name
    chosen = {}
    for se in candidate:
        chosen[name(se.atom)] = (None if not se.supports
                                 else frozenset(name(a) for a in se.supports[0]))
    return chosen


def test_candidate_counts_worked_example():
    program = example_program()
    candidates = list(candidate_theories(program))
    assert len(candidates) == 12  # 3 * 2 * 2 * 1 * 1 per-atom choices
    per_atom = {}
    for candidate in candidates:
        for se in candidate:
            per_atom.setdefault(se.atom, set()).add(se.supports)
    name = program.atoms.name
    counts = {name(a): len(guards) for a, guards in per_atom.items()}
    assert counts == {"p": 3, "q": 2, "t": 2, "r": 1, "s": 1}


def test_candidate_choices_negative_first_then_enumeration_order():
    program = example_program()
    first = next(iter(candidate_theories(program)))
    assert all(not se.supports for se in first
               if program.atoms.name(se.atom) in ("p", "q"))
    p = program.atoms.id_of("p")
    orders = []
    for candidate in candidate_theories(program):
        supports = candidate[p].supports
        if supports not in orders:
            orders.append(supports)
    assert [None if not s else names_of(program, s[0]) for s in orders] == [
        None, {"q"}, {"r"},
    ]


def test_candidate_theory_decodes_index_worked_example():
    program = example_program()
    candidates = list(candidate_theories(program))
    for index, expected in enumerate(candidates):
        assert candidate_theory(program, index) == expected
    for index in (len(candidates), -1):
        with pytest.raises(IndexError):
            candidate_theory(program, index)


def test_candidate_equality_ignores_the_base_object():
    program = example_program()
    decoded, walked = candidate_theory(program, 0), next(candidate_theories(program))
    assert decoded == walked and hash(decoded) == hash(walked)
    assert candidate_theory(program, 1) != candidate_theory(program, 2)
    candidates = list(candidate_theories(program))
    assert len(set(candidates)) == len(candidates)
    assert set(candidates) == {candidate_theory(program, i) for i in range(len(candidates))}


def test_candidate_rejects_multi_support_equation():
    program = example_program()
    first = candidate_theory(program, 0)
    p = program.atoms.id_of("p")
    table = saturate_supports(program)
    equations = list(first)
    equations[p] = Equation(p, table.supports(p))
    with pytest.raises(ValueError):
        candidate_cnf(program_to_cnf(program), tuple(equations))
    with pytest.raises(ValueError):
        check_candidate(program, program_to_cnf(program), tuple(equations))


def test_check_candidate_only_reads_the_clause_table():
    # Every option is in a solve's table before its walk, so a missing one is an error.
    program = example_program()
    encoded = {}
    with pytest.raises(KeyError):
        check_candidate(program, program_to_cnf(program), candidate_theory(program, 0),
                        encoded=encoded)
    assert encoded == {}


def test_candidates_single_fact():
    program = prog("t.")
    base = program_to_cnf(program)
    candidates = list(candidate_theories(program))
    assert len(candidates) == 2
    assert check_candidate(program, base, candidates[0]) == []    # -t contradicts t
    assert check_candidate(program, base, candidates[1]) == [frozenset([0])]


def test_candidates_empty_program_over_one_atom():
    table = AtomTable(["a"])
    program = Program(table, [])
    candidates = list(candidate_theories(program))
    assert len(candidates) == 1
    assert check_candidate(program, program_to_cnf(program), candidates[0]) == [frozenset()]


def test_check_candidate_worked_example():
    program = example_program()
    base = program_to_cnf(program)
    outcomes = {}
    for candidate in candidate_theories(program):
        chosen = _choice_names(program, candidate)
        if chosen["t"] is None or chosen["q"] != frozenset({"s"}):
            continue
        key = chosen["p"]
        outcomes[key] = check_candidate(program, base, candidate)
    assert outcomes[None] == []                    # the inconsistent candidate
    assert outcomes[frozenset({"q"})] == []        # admits nothing: q is in the model
    assert outcomes[frozenset({"r"})] == [members_of(program, "p", "q", "t")]


def test_solve_worked_example_certificate():
    program = example_program()
    results = solve_stable(program)
    assert [m for m, _ in results] == [members_of(program, "p", "q", "t")]
    model, candidate = results[0]
    assert _choice_names(program, candidate) == {
        "p": frozenset({"r"}),
        "t": frozenset(),
        "q": frozenset({"s"}),
        "r": None,
        "s": None,
    }
    text = format_certificate(program, model, candidate)
    assert text.splitlines()[0] == "model {p, q, t}"
    assert "p <-> -r" in text
    assert "q <-> -s" in text
    for se in candidate:
        for guard, proof in zip(se.supports, se.proofs):
            assert verify_proof(proof, program) == Clause(se.atom, frozenset(), guard)


def test_solve_two_stable_models():
    program = prog("p :- not q.\nq :- not p.")
    models = {m for m, _ in solve_stable(program)}
    assert models == {members_of(program, "p"), members_of(program, "q")}


def test_solve_odd_loop_has_no_models():
    assert solve_stable(prog("p :- not p.")) == []


def test_solve_respects_limit():
    program = prog("p :- not q.\nq :- not p.")
    assert len(solve_stable(program, limit=1)) == 1
    assert solve_stable(program, 0) == []
    assert solve_stable(example_program(), 0) == []


def test_solve_empty_program_has_one_empty_candidate():
    # No atoms: one candidate, the empty tuple, whose one model is the empty set.
    stats = SolveStats()
    assert solve_stable(prog(""), stats=stats) == [(frozenset(), ())]
    assert stats == SolveStats(0, 1, 1, 0, 0)


def test_solve_limit_zero_checks_no_candidate():
    stats = SolveStats()
    assert solve_stable(example_program(), 0, stats=stats) == []
    assert stats.candidates_checked == 0
    assert stats.program_size == example_program().size()


def test_support_subequation_rejects_mismatched_proof():
    program = example_program()
    q, s = program.atoms.id_of("q"), program.atoms.id_of("s")
    proof = ProofTree(Clause(q, frozenset(), frozenset([s])))
    with pytest.raises(ProofError):
        support_subequation(program, q, frozenset(), proof)
    with pytest.raises(ProofError):
        support_subequation(program, s, frozenset([s]), proof)


def test_solve_matches_oracle_on_random_corpus():
    rng = random.Random(515)
    for _ in range(40):
        program = random_program(rng, max_atoms=6, max_clauses=9)
        found = {m for m, _ in solve_stable(program)}
        assert found == set(brute_force_stable(program))


def test_solve_deterministic_order():
    rng = random.Random(99)
    for _ in range(10):
        program = random_program(rng, max_atoms=6, max_clauses=9)
        first = [m for m, _ in solve_stable(program)]
        second = [m for m, _ in solve_stable(program)]
        assert first == second


def test_candidates_that_only_repeat_models_are_skipped():
    # `b <-> -a` beside the fact `a.` is prunable: 4 candidates, 3 checked.
    program = prog("a.\nb :- not a.")
    assert len(list(candidate_theories(program))) == 4
    stats = SolveStats()
    assert [m for m, _ in solve_stable(program, stats=stats)] == [members_of(program, "a")]
    assert stats.candidates_checked == 3


def _unprunable(program) -> list:
    return [c for c in candidate_theories(program) if not reference_prunable(c)]


def test_walk_checks_the_product_minus_prunable_candidates():
    empty = prog("")
    assert checked_candidates(empty) == _unprunable(empty) == [()]
    pairs = prog(FOUR_PAIRS_TEXT)
    checked = checked_candidates(pairs)
    assert checked == _unprunable(pairs)
    assert len(checked) == 1024


@settings(max_examples=150, deadline=None)
@given(small_programs())
def test_walk_checks_the_product_minus_prunable_candidates_property(program):
    assert checked_candidates(program) == _unprunable(program)


@settings(max_examples=150, deadline=None)
@given(small_programs())
def test_engines_agree_property(program):
    found = {m for m, _ in solve_stable(program)}
    assert found == set(models_of_completion(program, build_completion(program)))
    assert found == set(brute_force_stable(program))


@settings(max_examples=150, deadline=None)
@given(small_programs())
def test_certificate_is_a_function_of_its_model_property(program):
    choices = reference_choices(program)
    for model, candidate in solve_stable(program):
        assert candidate == reference_model_certificate(choices, model)


@settings(max_examples=100, deadline=None)
@given(small_programs())
def test_solve_matches_unpruned_reference_property(program):
    for limit in (None, 1, 2):
        expected = [format_certificate(program, model, candidate)
                    for model, candidate in reference_solve_stable(program, limit)]
        assert [format_certificate(program, model, candidate)
                for model, candidate in solve_stable(program, limit)] == expected


def _assert_one_search_matches_solve(program):
    for limit in (None, 1, 2):
        assert reference_one_search(program, limit) == solve_stable(program, limit)


@settings(max_examples=150, deadline=None)
@given(small_programs())
def test_one_search_matches_solve_property(program):
    _assert_one_search_matches_solve(program)


def test_one_search_matches_solve_on_random_corpus():
    rng = random.Random(2027)
    for _ in range(500):
        _assert_one_search_matches_solve(random_program(rng))


@pytest.mark.parametrize("text", [FOUR_PAIRS_TEXT, ladder_text(4, False), ladder_text(4, True),
                                  reversed_chain_text(8)],
                         ids=["four-pairs", "ladder", "ladder-rung-first", "definite-chain"])
def test_one_search_matches_solve_on_families(text):
    _assert_one_search_matches_solve(prog(text))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_check_candidate_matches_candidate_cnf_models_property(seed):
    program = random_program(random.Random(seed), max_atoms=6, max_clauses=9)
    base = program_to_cnf(program)
    for candidate in candidate_theories(program):
        assert check_candidate(program, base, candidate) == \
            enumerate_models(candidate_cnf(base, candidate))


def test_space_instrumentation_within_documented_bound():
    rng = random.Random(1009)
    for _ in range(25):
        program = random_program(rng, max_atoms=6, max_clauses=9)
        stats = SolveStats()
        solve_stable(program, stats=stats)
        assert stats.candidates_checked > 0
        bound = STATE_BOUND_FACTOR * (stats.program_size + stats.max_certificate_size)
        assert stats.peak_candidate_state <= bound
