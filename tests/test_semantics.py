import random

import pytest
from hypothesis import given, settings

from guardres import (
    AtomTable,
    Clause,
    Program,
    ResourceLimitError,
    all_interpretations,
    brute_force_stable,
    check_levels,
    compute_levels,
    gl_operator,
    gl_reduct,
    is_stable,
    is_supported,
    is_tight,
    is_tight_on,
    least_model,
    satisfies_program,
)
from guardres import semantics
from guardres.semantics import derivation_levels

from corpus import (
    example_program,
    members_of,
    prog,
    random_program,
    random_tight_program,
    small_programs,
    unfounded_set_stable,
    well_founded_bracket,
)


def _horn_signature(horn):
    name = horn.atoms.name
    return {(name(c.head), frozenset(name(a) for a in c.pos_body)) for c in horn.clauses}


def test_reduct_worked_example():
    program = example_program()
    reduct = gl_reduct(program, members_of(program, "p", "q", "t"))
    assert _horn_signature(reduct) == {
        ("p", frozenset()),   # p :- not r survives, stripped
        ("q", frozenset()),
        ("t", frozenset()),
    }


def test_reduct_of_empty_interpretation_keeps_everything():
    program = example_program()
    reduct = gl_reduct(program, frozenset())
    assert len(reduct.clauses) == len(program.clauses)
    assert all(not c.neg_body for c in reduct.clauses)
    assert _horn_signature(reduct) == {
        ("p", frozenset({"t"})),
        ("p", frozenset()),
        ("q", frozenset()),
        ("t", frozenset()),
    }


def test_reduct_drops_self_blocking_clause():
    program = prog("p :- not p.")
    assert gl_reduct(program, members_of(program, "p")).clauses == ()


def test_least_model_of_facts():
    table = AtomTable(["p", "q", "t"])
    horn = Program(table, [Clause(i, frozenset(), frozenset()) for i in range(3)])
    assert least_model(horn) == frozenset({0, 1, 2})


def test_least_model_empty_program():
    assert least_model(Program(AtomTable(), [])) == frozenset()


def test_least_model_positive_loop_unproductive():
    table = AtomTable(["a", "b"])
    horn = Program(table, [Clause(0, frozenset([1]), frozenset()),
                           Clause(1, frozenset([0]), frozenset())])
    assert least_model(horn) == frozenset()


def test_derivation_levels_chain():
    table = AtomTable(["a", "b", "c"])
    horn = Program(table, [
        Clause(0, frozenset(), frozenset()),
        Clause(1, frozenset([0]), frozenset()),
        Clause(2, frozenset([0, 1]), frozenset()),
    ])
    assert derivation_levels(horn) == {0: 0, 1: 1, 2: 2}
    # Under `members`, a clause whose negative body meets them never fires.
    program = prog("a.\nb :- a, not c.\nc :- a.\nd :- b.")
    assert derivation_levels(program) == {0: 0, 1: 1, 2: 1, 3: 2}
    assert derivation_levels(program, members_of(program, "c")) == {0: 0, 2: 1}


def test_gl_operator_examples():
    program = example_program()
    model = members_of(program, "p", "q", "t")
    assert gl_operator(program, model) == model

    odd = prog("p :- not p.")
    assert gl_operator(odd, frozenset()) == members_of(odd, "p")
    assert gl_operator(odd, members_of(odd, "p")) == frozenset()


def test_is_stable_examples():
    program = example_program()
    assert is_stable(program, members_of(program, "p", "q", "t"))
    assert not is_stable(program, frozenset())

    odd = prog("p :- not p.")
    assert not is_stable(odd, frozenset())
    assert not is_stable(odd, members_of(odd, "p"))


def test_brute_force_worked_example():
    program = example_program()
    assert brute_force_stable(program) == [members_of(program, "p", "q", "t")]


def test_brute_force_empty_program():
    assert brute_force_stable(Program(AtomTable(), [])) == [frozenset()]


def test_brute_force_two_models_in_bitmask_order():
    program = prog("p :- not q.\nq :- not p.")
    assert brute_force_stable(program) == [
        members_of(program, "p"),
        members_of(program, "q"),
    ]


def test_brute_force_cap_refusal(monkeypatch):
    table = AtomTable(f"a{i}" for i in range(21))
    program = Program(table, [])
    with pytest.raises(ResourceLimitError):
        brute_force_stable(program)
    # The cap is read at call time, in both directions.
    small = Program(AtomTable(["a", "b", "c"]), [])
    monkeypatch.setattr(semantics, "BRUTE_FORCE_CAP", 2)
    with pytest.raises(ResourceLimitError):
        brute_force_stable(small)
    monkeypatch.setattr(semantics, "BRUTE_FORCE_CAP", 3)
    assert brute_force_stable(small) == [frozenset()]


def test_is_supported_examples():
    program = example_program()
    assert is_supported(program, members_of(program, "p", "q", "t"))

    self_loop = prog("p :- p.")
    # Supported but not stable: the classic separating witness.
    assert is_supported(self_loop, members_of(self_loop, "p"))
    assert not is_stable(self_loop, members_of(self_loop, "p"))

    constraintish = prog("a :- not b.")
    assert not is_supported(constraintish, frozenset())  # not even a model
    assert is_supported(prog("a :- b."), frozenset())


def test_compute_levels_worked_example():
    program = example_program()
    model = members_of(program, "p", "q", "t")
    ranks = compute_levels(program, model)
    assert ranks == {a: 0 for a in model}  # all three are facts of the reduct
    assert check_levels(program, model, ranks)


def test_check_levels_rejects_each_bad_certificate():
    program = prog("a.\nb :- a.")
    a, b = program.atoms.id_of("a"), program.atoms.id_of("b")
    model = frozenset([a, b])
    assert check_levels(program, model, {a: 0, b: 1})
    assert not check_levels(program, frozenset([a]), {a: 0})  # not a model
    assert not check_levels(program, model, {a: 0})  # b unranked
    assert not check_levels(program, model, {a: 1, b: 1})  # body atom a not below b
    assert not check_levels(program, model, {a: 2, b: 1})


def test_compute_levels_absent_for_self_support():
    program = prog("p :- p.")
    assert compute_levels(program, members_of(program, "p")) is None


def test_compute_levels_empty_model():
    program = prog("a :- b.")
    assert compute_levels(program, frozenset()) == {}


def test_levels_iff_stable_on_random_corpus():
    rng = random.Random(99)
    for _ in range(60):
        program = random_program(rng, max_atoms=6, max_clauses=10)
        for members in all_interpretations(len(program.atoms)):
            stable = is_stable(program, members)
            ranks = compute_levels(program, members)
            assert stable == (ranks is not None)
            if ranks is not None:
                assert check_levels(program, members, ranks)


def test_is_tight_worked_example():
    program = example_program()
    ranks = is_tight(program)
    name = program.atoms.name
    assert ranks is not None
    assert {name(a): r for a, r in ranks.items()} == {
        "p": 1, "t": 0, "q": 0, "r": 0, "s": 0,
    }


def test_is_tight_self_loop_absent():
    assert is_tight(prog("p :- p.")) is None


def test_purely_negative_programs_are_tight_with_zero_ranks():
    program = prog("a :- not b.\nb :- not c.\nc :- not a.")
    ranks = is_tight(program)
    assert ranks == {a: 0 for a in range(3)}


def test_is_tight_on_worked_example():
    program = example_program()
    model = members_of(program, "p", "q", "t")
    ranks = is_tight_on(program, model)
    assert ranks is not None
    assert set(ranks) == set(model)


def test_is_tight_on_rejects_satisfied_self_loop():
    program = prog("p :- p.\np.")
    model = members_of(program, "p")
    # The self-loop clause has a satisfied body, so no rank exists.
    assert is_tight_on(program, model) is None


def test_is_tight_on_skips_unsatisfied_body():
    program = prog("p :- q.")
    model = members_of(program, "p")
    assert is_tight_on(program, model) == {0: 0}


def test_is_tight_on_empty_interpretation():
    assert is_tight_on(example_program(), frozenset()) == {}


def test_gl_operator_antimonotone_on_random_corpus():
    rng = random.Random(4242)
    for _ in range(80):
        program = random_program(rng)
        n = len(program.atoms)
        larger = frozenset(rng.sample(range(n), k=rng.randint(0, n)))
        smaller = frozenset(a for a in larger if rng.random() < 0.5)
        assert gl_operator(program, larger) <= gl_operator(program, smaller)


def test_stable_models_are_supported_on_random_corpus():
    rng = random.Random(333)
    for _ in range(60):
        program = random_program(rng, max_atoms=6, max_clauses=10)
        for members in brute_force_stable(program):
            assert is_supported(program, members)


def test_fages_on_random_tight_programs():
    rng = random.Random(777)
    for _ in range(60):
        program = random_tight_program(rng, max_atoms=6, max_clauses=10)
        assert is_tight(program) is not None
        supported = [m for m in all_interpretations(len(program.atoms))
                     if is_supported(program, m)]
        assert supported == brute_force_stable(program)


def test_tight_on_supported_implies_stable_on_random_corpus():
    rng = random.Random(555)
    for _ in range(60):
        program = random_program(rng, max_atoms=6, max_clauses=10)
        for members in all_interpretations(len(program.atoms)):
            if is_supported(program, members) and \
                    is_tight_on(program, members) is not None:
                assert is_stable(program, members)


def test_is_stable_builds_no_program(monkeypatch):
    program = example_program()
    model = members_of(program, "p", "q", "t")
    built = []
    init = Program.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Program, "__init__", counting_init)
    assert is_stable(program, model)
    assert not is_stable(program, frozenset())
    assert gl_operator(program, model) == model
    assert compute_levels(program, model) is not None
    assert built == []
    gl_reduct(program, model)  # the public reading still builds one
    assert len(built) == 1


@settings(max_examples=200, deadline=None)
@given(small_programs())
def test_gl_operator_is_least_model_of_reduct(program):
    for members in all_interpretations(len(program.atoms)):
        assert gl_operator(program, members) == least_model(gl_reduct(program, members))


@settings(max_examples=200, deadline=None)
@given(small_programs())
def test_compute_levels_are_the_reducts_audited_levels(program):
    for members in all_interpretations(len(program.atoms)):
        levels = derivation_levels(gl_reduct(program, members))
        audited = (satisfies_program(members, program)
                   and frozenset(levels) == members
                   and check_levels(program, members, levels))
        assert compute_levels(program, members) == (levels if audited else None)


def test_unfounded_set_oracle_worked_examples():
    program = example_program()
    assert unfounded_set_stable(program, members_of(program, "p", "q", "t"))
    assert not unfounded_set_stable(program, members_of(program, "p", "t"))
    loop = prog("p :- q.\nq :- p.")
    assert not unfounded_set_stable(loop, members_of(loop, "p", "q"))
    assert unfounded_set_stable(loop, frozenset())


def test_unfounded_set_oracle_matches_is_stable_up_to_8_atoms():
    rng = random.Random(8)
    for _ in range(200):
        program = random_program(rng, max_atoms=8, max_clauses=12)
        for members in all_interpretations(len(program.atoms)):
            assert unfounded_set_stable(program, members) == is_stable(program, members)


@settings(max_examples=200, deadline=None)
@given(small_programs())
def test_unfounded_set_oracle_agrees_with_is_stable(program):
    for members in all_interpretations(len(program.atoms)):
        assert unfounded_set_stable(program, members) == is_stable(program, members)


def test_well_founded_bracket_worked_examples():
    pair = prog("p :- not q.\nq :- not p.")
    assert well_founded_bracket(pair) == (frozenset(), members_of(pair, "p", "q"))
    program = example_program()
    model = members_of(program, "p", "q", "t")
    assert well_founded_bracket(program) == (model, model)
    odd = prog("p :- not p.")
    assert well_founded_bracket(odd) == (frozenset(), members_of(odd, "p"))


@settings(max_examples=200, deadline=None)
@given(small_programs())
def test_well_founded_bracket_holds_every_stable_model(program):
    true, possible = well_founded_bracket(program)
    assert true <= possible
    for members in brute_force_stable(program):
        assert true <= members <= possible
