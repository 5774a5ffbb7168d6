"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
All checks are exact; corpora are seeded and regenerated identically on
every run.
"""

import random
from contextlib import contextmanager
from itertools import islice

import pytest

from guardres import (
    AtomTable,
    Clause,
    CnfTheory,
    SolveStats,
    all_interpretations,
    brute_force_stable,
    build_completion,
    candidate_cnf,
    candidate_theories,
    candidate_theory,
    check_candidate,
    compute_levels,
    dpll_solve,
    dung_transform,
    enumerate_models,
    enumerate_supports,
    equivalent,
    format_certificate,
    gl_operator,
    is_stable,
    is_supported,
    is_tight_on,
    models_of_completion,
    program_to_cnf,
    saturate_supports,
    solve_stable,
    verify_proof,
)
from guardres.cli import run as cli_run
from guardres.sat import clause_satisfied, equation_to_cnf
from guardres.solver import STATE_BOUND_FACTOR

from corpus import (
    EXAMPLE_TEXT,
    check_guarded_layer,
    checked_candidates,
    example_program,
    interpretation_key,
    members_of,
    random_cnf,
    random_program,
    random_tight_program,
    reference_choices,
    reference_dpll_solve,
    reference_enumerate_models,
    reference_equation_to_cnf,
    reference_model_certificate,
    reference_prunable,
    reference_solve_stable,
    truth_table_models,
)

CORPUS_SEED = 20260810
CORPUS_SIZE = 500
TIGHT_CORPUS_SIZE = 200
CNF_CORPUS_SIZE = 1000


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(CORPUS_SEED)
    return [random_program(rng, max_atoms=8, max_clauses=12)
            for _ in range(CORPUS_SIZE)]


@pytest.fixture(scope="module")
def tight_corpus():
    rng = random.Random(CORPUS_SEED + 1)
    return [random_tight_program(rng, max_atoms=8, max_clauses=12)
            for _ in range(TIGHT_CORPUS_SIZE)]


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} ({title}): FAIL")
        raise
    print(f"criterion {number:02d} ({title}): PASS")


def test_criterion_01_worked_example(tmp_path, capsys):
    with criterion(1, "worked example, exact reproduction"):
        program = example_program()
        name = program.atoms.name

        table = saturate_supports(program)
        supports = {
            name(atom): {frozenset(name(a) for a in s) for s in chain}
            for atom, chain in table.items()
        }
        assert supports == {
            "p": {frozenset({"q"}), frozenset({"r"})},
            "q": {frozenset({"s"})},
            "t": {frozenset()},
        }

        model = members_of(program, "p", "q", "t")
        assert models_of_completion(program, build_completion(program)) == [model]

        by_choice = {}
        for candidate in candidate_theories(program):
            chosen = {name(se.atom): se.supports for se in candidate}
            if chosen[name(program.atoms.id_of("q"))] != (members_of(program, "s"),):
                continue
            if chosen["t"] != (frozenset(),):
                continue
            by_choice[chosen["p"]] = candidate
        unsat_candidate = by_choice[()]
        sat_candidate = by_choice[(members_of(program, "r"),)]
        base = program_to_cnf(program)
        assert dpll_solve(candidate_cnf(base, unsat_candidate)) is None
        assert check_candidate(program, base, sat_candidate) == [model]

        path = tmp_path / "example.lp"
        path.write_text(EXAMPLE_TEXT)
        for engine in ("candidate", "completion", "brute"):
            capsys.readouterr()
            assert cli_run(["solve", str(path), "--engine", engine]) == 0
            assert capsys.readouterr().out == "{p, q, t}\n"


def test_criterion_02_supports_characterize_reduct_operator(corpus):
    with criterion(2, "admitted supports equal the reduct operator"):
        for program in corpus:
            table = saturate_supports(program)
            for members in all_interpretations(len(program.atoms)):
                assert table.admitted_atoms(members) == gl_operator(program, members)


def test_criterion_03_completion_models_are_stable_models(corpus):
    with criterion(3, "defining-equation models equal stable models"):
        for program in corpus:
            assert models_of_completion(program, build_completion(program)) == \
                brute_force_stable(program)


def test_criterion_03_equation_clauses_match_reference(corpus):
    """Projected onto the program atoms, the chain encoding of every
    equation has the seed encoder's models, and each of them extends to
    exactly one assignment of the chain atoms."""
    for program in corpus:
        names = program.atoms.names
        program_atoms = frozenset(range(len(names)))
        for equation in build_completion(program):
            expected = truth_table_models(CnfTheory(
                program.atoms, reference_equation_to_cnf(equation.atom, equation.supports)))
            chain = [f"chain{i}" for i in range(len(equation.supports) - 1)]
            full = truth_table_models(CnfTheory(
                AtomTable([*names, *chain]),
                equation_to_cnf(equation.atom, equation.supports, len(names))))
            projected = [model & program_atoms for model in full]
            assert len(set(projected)) == len(full)
            assert sorted(projected, key=interpretation_key) == expected


def test_criterion_04_candidate_search_sound_and_complete(corpus):
    with criterion(4, "candidate theories sound and complete"):
        for program in corpus:
            base = program_to_cnf(program)
            found = set()
            for candidate in candidate_theories(program):
                models = check_candidate(program, base, candidate)
                for members in models:
                    assert is_stable(program, members)
                found.update(models)
            assert found == set(brute_force_stable(program))


def test_criterion_04_search_of_built_clauses_matches_candidate_cnf(corpus):
    """The search of a candidate's clause list, duplicates kept, meets the
    models of the deduplicated theory `to-dimacs` prints, in order."""
    with_duplicates = 0
    for program in corpus:
        base = program_to_cnf(program)
        n = len(program.atoms)
        for candidate in candidate_theories(program):
            theory = candidate_cnf(base, candidate)
            assert check_candidate(program, base, candidate) == enumerate_models(theory)
            built = len(base.clauses) + sum(
                len(equation_to_cnf(eq.atom, eq.supports, n)) for eq in candidate)
            with_duplicates += built > len(theory.clauses)
    assert with_duplicates > 0


def test_criterion_04_certificates_match_unpruned_reference(corpus):
    """Skipping prunable candidates keeps every certificate block and its order."""
    for program in corpus:
        for limit in (None, 1, 2):
            expected = [format_certificate(program, model, candidate)
                        for model, candidate in reference_solve_stable(program, limit)]
            assert [format_certificate(program, model, candidate)
                    for model, candidate in solve_stable(program, limit)] == expected


def test_criterion_04_walk_checks_the_product_minus_prunable_candidates(corpus):
    """The prefix cuts leave exactly the candidates the leaf rule keeps, in order."""
    cut = 0
    for program in corpus:
        candidates = list(candidate_theories(program))
        kept = [c for c in candidates if not reference_prunable(c)]
        assert checked_candidates(program) == kept
        cut += len(candidates) - len(kept)
    assert cut > 0


def test_criterion_04_certificate_is_a_function_of_its_model(corpus):
    """Each model's certificate is fixed atom by atom: `-p` off the model,
    and on it the first reference guard the model avoids, with its proof."""
    checked = 0
    for program in corpus:
        choices = reference_choices(program)
        for model, candidate in solve_stable(program):
            assert candidate == reference_model_certificate(choices, model)
            checked += 1
    assert checked > 0


def test_candidate_theory_indexes_the_product(corpus):
    """Decoding an index gives the product's candidate at that index, and
    the product's size is exactly where IndexError starts."""
    checked = 0
    for program in corpus:
        candidates = list(islice(candidate_theories(program), 201))
        if len(candidates) > 200:
            continue
        for index, expected in enumerate(candidates):
            assert candidate_theory(program, index) == expected
        with pytest.raises(IndexError):
            candidate_theory(program, len(candidates))
        checked += 1
    assert checked > 0


def test_criterion_05_stability_iff_levels(corpus):
    with criterion(5, "stability equals having levels"):
        for program in corpus:
            for members in all_interpretations(len(program.atoms)):
                assert is_stable(program, members) == \
                    (compute_levels(program, members) is not None)


def test_criterion_06_tight_programs_supported_equals_stable(tight_corpus):
    with criterion(6, "tight programs: supported = stable"):
        for program in tight_corpus:
            supported = [m for m in all_interpretations(len(program.atoms))
                         if is_supported(program, m)]
            assert supported == brute_force_stable(program)


def test_criterion_07_supported_and_tight_on_implies_stable(corpus):
    with criterion(7, "supported + tight-on implies stable"):
        for program in corpus:
            for members in all_interpretations(len(program.atoms)):
                if is_supported(program, members) and \
                        is_tight_on(program, members) is not None:
                    assert is_stable(program, members)


def test_criterion_08_purely_negative_transform(corpus):
    with criterion(8, "purely negative transform is equivalent"):
        for program in corpus:
            negative = dung_transform(program)
            assert all(not c.pos_body for c in negative.clauses)
            assert equivalent(program, negative)


def test_criterion_09_proof_certificates_reverify(corpus):
    with criterion(9, "every emitted proof re-verifies"):
        checked = 0
        for program in corpus[:60]:
            for atom in range(len(program.atoms)):
                for guard, tree in enumerate_supports(program, atom):
                    root = verify_proof(tree, program)
                    assert root == Clause(atom, frozenset(), guard)
                    leaf_union = frozenset()
                    for leaf in tree.leaves():
                        leaf_union |= leaf.label.neg_body
                    assert root.neg_body == leaf_union
                    checked += 1
            table = saturate_supports(program)
            for atom, chain in table.items():
                for guard in chain:
                    root = verify_proof(table.certificate(atom, guard), program)
                    assert root == Clause(atom, frozenset(), guard)
                    checked += 1
            for _, candidate in solve_stable(program):
                for se in candidate:
                    for guard, proof in zip(se.supports, se.proofs):
                        assert verify_proof(proof, program) == \
                            Clause(se.atom, frozenset(), guard)
                        checked += 1
        assert checked > 0


def test_criterion_09_guarded_layer_matches_reference(corpus):
    """Semi-naive saturation and the explicit-stack search give the naive
    loop's tables and the recursive generators' exact streams."""
    for program in corpus:
        check_guarded_layer(program)


def test_criterion_10_sat_layer_matches_truth_tables():
    with criterion(10, "DPLL agrees with truth tables"):
        rng = random.Random(CORPUS_SEED + 2)
        for _ in range(CNF_CORPUS_SIZE):
            theory = random_cnf(rng)
            expected = truth_table_models(theory)
            assert enumerate_models(theory) == expected
            assignment = dpll_solve(theory)
            if expected:
                model = frozenset(a for a, v in assignment.items() if v)
                assert all(clause_satisfied(c, model) for c in theory.clauses)
            else:
                assert assignment is None


def test_criterion_10_corpus_matches_reference_dpll():
    """The continuing search gives the recursive, restarting DPLL's exact answers."""
    rng = random.Random(CORPUS_SEED + 2)
    for _ in range(CNF_CORPUS_SIZE):
        theory = random_cnf(rng)
        assert dpll_solve(theory) == reference_dpll_solve(theory)
        assert enumerate_models(theory) == reference_enumerate_models(theory)


def test_criterion_11_space_instrumentation(corpus):
    with criterion(11, "per-candidate state within documented bound"):
        for program in corpus[:150]:
            stats = SolveStats()
            solve_stable(program, stats=stats)
            bound = STATE_BOUND_FACTOR * (
                stats.program_size + stats.max_certificate_size)
            assert stats.peak_candidate_state <= bound
