import gc
import random
from itertools import islice

import pytest
from hypothesis import given, settings

from guardres import (
    GuardedClause,
    ProofError,
    ProofTree,
    ResourceLimitError,
    admits,
    all_interpretations,
    enumerate_supports,
    format_proof,
    gl_operator,
    guarded_resolve,
    proof_from_sexp,
    proof_to_sexp,
    saturate_supports,
    translate,
    verify_proof,
)

from corpus import (
    check_guarded_layer,
    example_program,
    members_of,
    minimal_family,
    names_of,
    prog,
    random_program,
    reference_saturate_supports,
    reversed_chain_text,
    small_programs,
)


def _support_names(program, table):
    name = program.atoms.name
    return {
        name(atom): {frozenset(name(a) for a in s) for s in supports}
        for atom, supports in table.items()
    }


def test_translate_examples():
    program = example_program()
    first, second, third, fact = program.clauses
    assert translate(first) == GuardedClause(
        first.head, first.pos_body, first.neg_body)
    assert translate(fact).body == frozenset()
    assert translate(fact).guard == frozenset()
    assert names_of(program, translate(third).guard) == {"s"}


def test_guarded_resolve_examples():
    program = example_program()
    p, t, q, r = (program.atoms.id_of(n) for n in "ptqr")
    clause = GuardedClause(p, frozenset([t]), frozenset([q]))
    resolved = guarded_resolve(clause, GuardedClause(t, frozenset(), frozenset()))
    assert resolved == GuardedClause(p, frozenset(), frozenset([q]))

    wide = GuardedClause(p, frozenset([t, q]), frozenset([r]))
    step = guarded_resolve(wide, GuardedClause(t, frozenset(), frozenset([4])))
    assert step == GuardedClause(p, frozenset([q]), frozenset([r, 4]))

    with pytest.raises(ValueError):
        guarded_resolve(GuardedClause(p, frozenset([q]), frozenset([r])),
                        GuardedClause(t, frozenset(), frozenset()))


def test_admits_examples():
    program = example_program()
    model = members_of(program, "p", "q", "t")
    p, q, r = (program.atoms.id_of(n) for n in "pqr")
    assert admits(model, GuardedClause(p, frozenset(), frozenset([r])))
    assert not admits(model, GuardedClause(p, frozenset(), frozenset([q])))
    assert admits(model, GuardedClause(p, frozenset(), frozenset()))


def _two_leaf_proof(program):
    p, t, q = (program.atoms.id_of(n) for n in "ptq")
    clause_leaf = ProofTree(GuardedClause(p, frozenset([t]), frozenset([q])))
    atom_leaf = ProofTree(GuardedClause(t, frozenset(), frozenset()))
    return ProofTree(GuardedClause(p, frozenset(), frozenset([q])),
                     clause_parent=clause_leaf, atom_parent=atom_leaf)


def test_verify_single_node_proof():
    program = example_program()
    q, s = program.atoms.id_of("q"), program.atoms.id_of("s")
    tree = ProofTree(GuardedClause(q, frozenset(), frozenset([s])))
    assert verify_proof(tree, program) == GuardedClause(q, frozenset(), frozenset([s]))


def test_verify_two_leaf_proof():
    program = example_program()
    root = verify_proof(_two_leaf_proof(program), program)
    assert names_of(program, root.guard) == {"q"}


def test_verify_rejects_corrupt_inner_label():
    program = example_program()
    p, t, q, r = (program.atoms.id_of(n) for n in "ptqr")
    clause_leaf = ProofTree(GuardedClause(p, frozenset([t]), frozenset([q])))
    atom_leaf = ProofTree(GuardedClause(t, frozenset(), frozenset()))
    corrupt = ProofTree(GuardedClause(p, frozenset(), frozenset([q, r])),  # wrong guard union
                        clause_parent=clause_leaf, atom_parent=atom_leaf)
    with pytest.raises(ProofError):
        verify_proof(corrupt, program)


def test_verify_rejects_foreign_leaf():
    program = example_program()
    p = program.atoms.id_of("p")
    with pytest.raises(ProofError):
        verify_proof(ProofTree(GuardedClause(p, frozenset(), frozenset())), program)


def test_verify_rejects_unresolved_root():
    program = example_program()
    first = program.clauses[0]
    with pytest.raises(ProofError):
        verify_proof(ProofTree(translate(first)), program)


def _faulty_proof(program, fault):
    """A hand-made tree over the worked example with one `verify_proof` fault."""
    p, t, q, r, s = (program.atoms.id_of(n) for n in "ptqrs")
    clause_leaf = ProofTree(GuardedClause(p, frozenset([t]), frozenset([q])))
    t_leaf = ProofTree(GuardedClause(t, frozenset(), frozenset()))
    resolved = GuardedClause(p, frozenset(), frozenset([q]))
    if fault == "foreign atom leaf":
        return ProofTree(GuardedClause(p, frozenset(), frozenset()))
    if fault == "foreign clause leaf":
        return ProofTree(GuardedClause(p, frozenset([q]), frozenset()))
    if fault == "clause parent resolved":
        return ProofTree(resolved, clause_parent=t_leaf, atom_parent=t_leaf)
    if fault == "atom parent with body":
        return ProofTree(resolved, clause_parent=clause_leaf, atom_parent=clause_leaf)
    if fault == "missing parent":
        return ProofTree(resolved, clause_parent=clause_leaf)
    if fault == "wrong inner label":
        return ProofTree(GuardedClause(p, frozenset(), frozenset([q, r])),
                         clause_parent=clause_leaf, atom_parent=t_leaf)
    if fault == "atom not in body":
        q_leaf = ProofTree(GuardedClause(q, frozenset(), frozenset([s])))
        return ProofTree(resolved, clause_parent=clause_leaf, atom_parent=q_leaf)
    assert fault == "unresolved root"
    return clause_leaf


@pytest.mark.parametrize("fault, message", [
    ("foreign atom leaf", "is not the image of a program clause"),
    ("foreign clause leaf", "is not the image of a program clause"),
    ("clause parent resolved", "clause parent is already fully resolved"),
    ("atom parent with body", "atom parent still has body atoms"),
    ("missing parent", "inner node lacks a clause parent or an atom parent"),
    ("wrong inner label", "resolution gives"),
    ("atom not in body", "does not occur in the clause body"),
    ("unresolved root", "root is not fully resolved"),
])
def test_verify_reports_each_fault(fault, message):
    program = example_program()
    with pytest.raises(ProofError, match=message):
        verify_proof(_faulty_proof(program, fault), program)


def test_saturate_worked_example():
    program = example_program()
    table = saturate_supports(program)
    assert _support_names(program, table) == {
        "p": {frozenset({"q"}), frozenset({"r"})},
        "q": {frozenset({"s"})},
        "t": {frozenset()},
    }
    assert table.supports(program.atoms.id_of("r")) == ()


def test_saturate_keeps_self_guard():
    program = prog("p :- not p.")
    table = saturate_supports(program)
    assert _support_names(program, table) == {"p": {frozenset({"p"})}}


def test_saturate_positive_loop_has_no_supports():
    program = prog("a :- b.\nb :- a.")
    assert saturate_supports(program).atoms() == ()


def test_saturate_antichain_is_minimal():
    # A dominated support must be evicted: {q} subsumes {q, r}.
    program = prog("p :- a, not q.\np :- not q, not r.\na :- not q.")
    table = saturate_supports(program)
    assert _support_names(program, table)["p"] == {frozenset({"q"}), frozenset({"q", "r"})} - {frozenset({"q", "r"})}


def test_saturate_support_cap():
    program = prog("p :- not a.\np :- not b.\np :- not c.\np :- not d.")
    with pytest.raises(ResourceLimitError):
        saturate_supports(program, max_supports_per_atom=3)


def test_saturate_derivation_cap():
    program = example_program()
    with pytest.raises(ResourceLimitError):
        saturate_supports(program, max_derivations=2)


def test_saturate_reversed_chain_is_linear():
    # One seed plus one combination per level: the top guard travels up
    # the chain once.  Retrying every clause's full product until nothing
    # changes makes one pass per level, about levels^2 / 2 combinations.
    levels = 400
    program = prog(reversed_chain_text(levels))
    table = saturate_supports(program, max_derivations=2 * levels)
    top = program.atoms.id_of(f"a{levels}")
    assert table.supports(top) == (frozenset(),)
    with pytest.raises(ResourceLimitError):
        reference_saturate_supports(program, max_derivations=2 * levels)


def test_saturate_skips_evicted_guards():
    # q's first guard {r, s} is evicted by {r} before it is combined, so
    # p only ever stores the combination with the smaller guard.
    program = prog("q :- not r, not s.\nq :- not r.\np :- q, not t.")
    table = saturate_supports(program, max_derivations=3)
    assert _support_names(program, table) == {
        "p": {frozenset({"r", "t"})},
        "q": {frozenset({"r"})},
    }


def test_enumerate_worked_example_order():
    program = example_program()
    p = program.atoms.id_of("p")
    yields = [(names_of(program, g), tree) for g, tree in enumerate_supports(program, p)]
    assert [g for g, _ in yields] == [{"q"}, {"r"}]
    sizes = [tree.size() for _, tree in yields]
    assert sizes == [3, 1]


def test_enumerate_no_support_stream_is_empty():
    program = example_program()
    r = program.atoms.id_of("r")
    assert list(enumerate_supports(program, r)) == []


def test_enumerate_chained_support():
    program = prog("p :- q, not r.\nq :- not s.")
    p = program.atoms.id_of("p")
    yields = list(enumerate_supports(program, p))
    assert len(yields) == 1
    guard, tree = yields[0]
    assert names_of(program, guard) == {"r", "s"}
    assert tree.size() == 3
    assert verify_proof(tree, program) == GuardedClause(p, frozenset(), guard)


def test_enumerate_terminates_under_positive_loops():
    program = prog("p :- q, not a.\nq :- p, not b.\np :- not c.\nq :- not d.")
    p = program.atoms.id_of("p")
    guards = [names_of(program, g) for g, _ in enumerate_supports(program, p)]
    # p via its own negative clause, or via q's negative clause; never through
    # the p -> q -> p loop.
    assert guards == [{"d", "a"}, {"c"}]


def test_enumerate_certificates_verify_and_admit():
    rng = random.Random(2025)
    for _ in range(40):
        program = random_program(rng, max_atoms=6, max_clauses=9)
        for atom in range(len(program.atoms)):
            for guard, tree in islice(enumerate_supports(program, atom), 200):
                root = verify_proof(tree, program)
                assert root == GuardedClause(atom, frozenset(), guard)
                leaf_union = frozenset()
                for leaf in tree.leaves():
                    leaf_union |= leaf.label.guard
                assert leaf_union == root.guard
                for members in all_interpretations(len(program.atoms)):
                    if admits(members, root):
                        assert all(
                            not (members & node.label.guard)
                            for node in tree.nodes())


def test_lazy_and_eager_supports_agree():
    rng = random.Random(31337)
    for _ in range(60):
        program = random_program(rng, max_atoms=6, max_clauses=9)
        table = saturate_supports(program)
        for atom in range(len(program.atoms)):
            lazy = [g for g, _ in enumerate_supports(program, atom)]
            assert minimal_family(lazy) == set(table.supports(atom))


def test_admitted_supports_match_gl_operator():
    # The master equivalence: derivable-and-admitted == reduct fixpoint.
    rng = random.Random(808)
    for _ in range(50):
        program = random_program(rng, max_atoms=6, max_clauses=9)
        table = saturate_supports(program)
        lazy_guards = {
            atom: [g for g, _ in enumerate_supports(program, atom)]
            for atom in range(len(program.atoms))
        }
        for members in all_interpretations(len(program.atoms)):
            expected = gl_operator(program, members)
            assert table.admitted_atoms(members) == expected
            via_lazy = frozenset(
                atom for atom, guards in lazy_guards.items()
                if any(not (g & members) for g in guards))
            assert via_lazy == expected


def test_certificate_lookup_matches_table():
    program = example_program()
    table = saturate_supports(program)
    p = program.atoms.id_of("p")
    for guard in table.supports(p):
        tree = table.certificate(p, guard)
        assert verify_proof(tree, program) == GuardedClause(p, frozenset(), guard)
    with pytest.raises(KeyError):
        table.certificate(p, frozenset([p]))


def test_certificates_match_certificate_lookups():
    program = example_program()
    table = saturate_supports(program)
    p = program.atoms.id_of("p")
    proofs = table.certificates(p)
    # Lazy-enumeration order, not the table's canonical order.
    assert [names_of(program, g) for g in proofs] == [{"q"}, {"r"}]
    for guard in table.supports(p):
        assert proofs[guard] == table.certificate(p, guard)
    assert table.certificates(program.atoms.id_of("r")) == {}


@settings(max_examples=200, deadline=None)
@given(small_programs())
def test_guarded_layer_matches_reference_property(program):
    check_guarded_layer(program, stream_cap=2000)


@settings(max_examples=200, deadline=None)
@given(small_programs())
def test_proof_sexp_roundtrip_property(program):
    for atom in range(len(program.atoms)):
        for _, tree in islice(enumerate_supports(program, atom), 50):
            text = proof_to_sexp(tree, program.atoms)
            assert proof_from_sexp(text, program.atoms) == tree


def _with_leaf(tree, leaf, label):
    """A copy of `tree` with the node `leaf` relabeled `label`, every other label kept."""
    if tree is leaf:
        return ProofTree(label)
    if tree.is_leaf:
        return tree
    return ProofTree(tree.label, _with_leaf(tree.clause_parent, leaf, label),
                     _with_leaf(tree.atom_parent, leaf, label))


def _foreign_labels(program, label):
    """Up to three near misses of a leaf label that no program clause translates to.

    One guard atom added, one body atom dropped, and the guarded atom of
    an atom that heads no clause; a kind with no foreign member is skipped.
    """
    atoms = range(len(program.atoms))
    images = set(map(translate, program.clauses))
    kinds = (
        [GuardedClause(label.head, label.body, label.guard | {a})
         for a in atoms if a not in label.guard],
        [GuardedClause(label.head, label.body - {b}, label.guard) for b in sorted(label.body)],
        [GuardedClause(a, frozenset(), frozenset()) for a in atoms if not program.clauses_for(a)],
    )
    for kind in kinds:
        foreign = [candidate for candidate in kind if candidate not in images]
        if foreign:
            yield foreign[0]


@settings(max_examples=200, deadline=None)
@given(small_programs())
def test_verify_checks_each_leaf_against_its_head_property(program):
    for atom in range(len(program.atoms)):
        for guard, tree in islice(enumerate_supports(program, atom), 20):
            assert verify_proof(tree, program) == GuardedClause(atom, frozenset(), guard)
            for leaf in tree.leaves():
                for label in _foreign_labels(program, leaf.label):
                    with pytest.raises(ProofError, match="is not the image of a program clause"):
                        verify_proof(ProofTree(label), program)
                    with pytest.raises(ProofError):
                        verify_proof(_with_leaf(tree, leaf, label), program)


def test_deep_proof_walks_without_recursion():
    levels = 3000
    program = prog(reversed_chain_text(levels))
    top = program.atoms.id_of(f"a{levels}")
    (guard, tree), = enumerate_supports(program, top)
    assert guard == frozenset()
    assert tree.size() == 2 * levels + 1
    assert sum(1 for _ in tree.leaves()) == levels + 1
    assert verify_proof(tree, program) == GuardedClause(top, frozenset(), guard)
    text = format_proof(tree, program.atoms)
    assert text.startswith(f"0| a{levels} : {{}}\n1| a{levels} <- a{levels - 1} : {{}}\n")
    assert text.endswith(f"{levels}| a1 <- a0 : {{}}\n{levels}| a0 : {{}}\n")
    sexp = proof_to_sexp(tree, program.atoms)
    rebuilt = proof_from_sexp(sexp, program.atoms)
    assert proof_to_sexp(rebuilt, program.atoms) == sexp
    assert verify_proof(rebuilt, program) == GuardedClause(top, frozenset(), guard)


def test_deep_proof_equality_hash_and_repr():
    levels = 3000
    program = prog(reversed_chain_text(levels))
    top = program.atoms.id_of(f"a{levels}")
    (_, first), = enumerate_supports(program, top)
    (_, second), = enumerate_supports(program, top)
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)
    assert repr(first) == repr(second) == (
        f"ProofTree(GuardedClause(head={top}, body=frozenset(), guard=frozenset()), "
        f"size={2 * levels + 1})")
    assert first != first.atom_parent
    cut = ProofTree(first.label, clause_parent=first.clause_parent,
                    atom_parent=ProofTree(first.atom_parent.label))
    assert first != cut and cut != first


def test_lazy_search_leaves_no_garbage_cycles():
    # Goals are module-level generators that hold their subgoals one way,
    # so a drained or abandoned enumeration is freed by reference counts.
    tables = [saturate_supports(program) for program in
              (example_program(), prog(reversed_chain_text(300)))]
    gc.collect()
    gc.disable()
    try:
        for table in tables:
            for atom in range(len(table.program.atoms)):
                for _ in enumerate_supports(table.program, atom):
                    pass
                table.certificates(atom)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_format_proof_golden():
    program = example_program()
    tree = _two_leaf_proof(program)
    assert format_proof(tree, program.atoms) == (
        "0| p : {q}\n"
        "1| p <- t : {q}\n"
        "1| t : {}\n"
    )


def test_proof_sexp_roundtrip():
    program = example_program()
    tree = _two_leaf_proof(program)
    text = proof_to_sexp(tree, program.atoms)
    assert text == "(step (clause p (t) (q)) (atom t ()))"
    assert proof_from_sexp(text, program.atoms) == tree

    q = program.atoms.id_of("q")
    for guard, proof in enumerate_supports(program, q):
        rebuilt = proof_from_sexp(proof_to_sexp(proof, program.atoms), program.atoms)
        assert rebuilt == proof
        assert verify_proof(rebuilt, program) == GuardedClause(q, frozenset(), guard)


def test_proof_sexp_truncated_input_is_value_error():
    program = example_program()
    text = proof_to_sexp(_two_leaf_proof(program), program.atoms)
    for end in range(len(text) + 1):
        try:
            tree = proof_from_sexp(text[:end], program.atoms)
        except ValueError:
            continue
        assert tree == _two_leaf_proof(program)


def test_proof_sexp_rejects_unknown_atom():
    program = example_program()
    with pytest.raises(ValueError):
        proof_from_sexp("(atom zz ())", program.atoms)
