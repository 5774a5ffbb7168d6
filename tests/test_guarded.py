import copy
import gc
import io
import pickle
import random
import re
import tracemalloc
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings

from guardres import (
    Clause,
    Equation,
    ProofError,
    ProofTree,
    ResourceLimitError,
    admits,
    all_interpretations,
    dung_transform,
    enumerate_supports,
    format_proof,
    gl_operator,
    gl_reduct,
    guarded_resolve,
    parse_program,
    proof_from_sexp,
    proof_to_sexp,
    saturate_supports,
    verify_proof,
)
from guardres import guarded
from guardres.cli import run
from guardres.core import EMPTY

from corpus import (
    check_guarded_layer,
    example_program,
    ladder_text,
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


def test_guarded_resolve_examples():
    program = example_program()
    p, t, q, r = (program.atoms.id_of(n) for n in "ptqr")
    clause = Clause(p, frozenset([t]), frozenset([q]))
    resolved = guarded_resolve(clause, Clause(t, frozenset(), frozenset()))
    assert resolved == Clause(p, frozenset(), frozenset([q]))

    wide = Clause(p, frozenset([t, q]), frozenset([r]))
    step = guarded_resolve(wide, Clause(t, frozenset(), frozenset([4])))
    assert step == Clause(p, frozenset([q]), frozenset([r, 4]))

    with pytest.raises(ValueError):
        guarded_resolve(Clause(p, frozenset([q]), frozenset([r])),
                        Clause(t, frozenset(), frozenset()))


def test_admits_examples():
    program = example_program()
    model = members_of(program, "p", "q", "t")
    p, q, r = (program.atoms.id_of(n) for n in "pqr")
    assert admits(model, Clause(p, frozenset(), frozenset([r])))
    assert not admits(model, Clause(p, frozenset(), frozenset([q])))
    assert admits(model, Clause(p, frozenset(), frozenset()))


def _two_leaf_proof(program):
    p, t, q = (program.atoms.id_of(n) for n in "ptq")
    clause_leaf = ProofTree(Clause(p, frozenset([t]), frozenset([q])))
    atom_leaf = ProofTree(Clause(t, frozenset(), frozenset()))
    return ProofTree.resolve(clause_leaf, atom_leaf)


def test_verify_single_node_proof():
    program = example_program()
    q, s = program.atoms.id_of("q"), program.atoms.id_of("s")
    tree = ProofTree(Clause(q, frozenset(), frozenset([s])))
    assert verify_proof(tree, program) == Clause(q, frozenset(), frozenset([s]))


def test_verify_two_leaf_proof():
    program = example_program()
    root = verify_proof(_two_leaf_proof(program), program)
    assert names_of(program, root.neg_body) == {"q"}


def test_public_api_cannot_build_a_free_inner_node():
    # An inner node's label is always its parents' resolvent, and it always
    # has both parents: the constructor takes a label only and `resolve`
    # the two parents only.  (No field can be set afterwards: test_records.)
    program = example_program()
    tree = _two_leaf_proof(program)
    leaf, label = tree.clause_parent, tree.label
    wrong = Clause(label.head, frozenset(), label.neg_body | {program.atoms.id_of("r")})
    with pytest.raises(TypeError):
        ProofTree(wrong, leaf, tree.atom_parent)
    with pytest.raises(TypeError):
        ProofTree(wrong, clause_parent=leaf)
    with pytest.raises(TypeError):
        ProofTree(wrong, atom_parent=tree.atom_parent)
    with pytest.raises(TypeError):
        ProofTree.resolve(leaf)
    with pytest.raises(TypeError):
        ProofTree.resolve(leaf, tree.atom_parent, wrong)
    with pytest.raises(AttributeError):
        ProofTree.resolve(leaf, None)


def test_verify_rejects_foreign_leaf():
    program = example_program()
    p = program.atoms.id_of("p")
    with pytest.raises(ProofError):
        verify_proof(ProofTree(Clause(p, frozenset(), frozenset())), program)


def test_verify_rejects_unresolved_root():
    program = example_program()
    first = program.clauses[0]
    with pytest.raises(ProofError):
        verify_proof(ProofTree(first), program)


def _faulty_proof(program, fault):
    """A hand-made tree over the worked example with one fault."""
    p, t, q, s = (program.atoms.id_of(n) for n in "ptqs")
    clause_leaf = ProofTree(Clause(p, frozenset([t]), frozenset([q])))
    t_leaf = ProofTree(Clause(t, frozenset(), frozenset()))
    if fault == "foreign atom leaf":
        return ProofTree(Clause(p, frozenset(), frozenset()))
    if fault == "foreign clause leaf":
        return ProofTree(Clause(p, frozenset([q]), frozenset()))
    if fault == "clause parent resolved":
        return ProofTree.resolve(t_leaf, t_leaf)
    if fault == "atom parent with body":
        return ProofTree.resolve(clause_leaf, clause_leaf)
    if fault == "atom not in body":
        return ProofTree.resolve(clause_leaf, ProofTree(Clause(q, frozenset(), frozenset([s]))))
    assert fault == "unresolved root"
    return clause_leaf


# Faults that `ProofTree.resolve` refuses while the tree is built, with
# `guarded_resolve`'s ValueError; `verify_proof` reports the others.
_BUILD_FAULTS = {"clause parent resolved", "atom parent with body", "atom not in body"}


@pytest.mark.parametrize("fault, message", [
    ("foreign atom leaf", "is not the image of a program clause"),
    ("foreign clause leaf", "is not the image of a program clause"),
    ("clause parent resolved", "clause parent is already fully resolved"),
    ("atom parent with body", "atom parent still has body atoms"),
    ("atom not in body", "does not occur in the clause body"),
    ("unresolved root", "root is not fully resolved"),
])
def test_verify_reports_each_fault(fault, message):
    program = example_program()
    with pytest.raises(ValueError, match=message) as caught:
        verify_proof(_faulty_proof(program, fault), program)
    assert caught.type is (ValueError if fault in _BUILD_FAULTS else ProofError)


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
    assert list(saturate_supports(program).items()) == []


def test_saturate_antichain_is_minimal():
    # A dominated support must be evicted: {q} subsumes {q, r}.
    program = prog("p :- a, not q.\np :- not q, not r.\na :- not q.")
    table = saturate_supports(program)
    assert _support_names(program, table)["p"] == {frozenset({"q"}), frozenset({"q", "r"})} - {frozenset({"q", "r"})}


def test_saturate_support_cap(monkeypatch):
    program = prog("p :- not a.\np :- not b.\np :- not c.\np :- not d.")
    monkeypatch.setattr(guarded, "SUPPORT_CAP", 3)
    with pytest.raises(ResourceLimitError):
        saturate_supports(program)
    monkeypatch.setattr(guarded, "SUPPORT_CAP", 4)
    assert len(saturate_supports(program).supports(program.atoms.id_of("p"))) == 4


def test_saturate_derivation_cap():
    # Three seed clauses, and t's guard combined once into p :- t, not q.
    assert saturate_supports(example_program()).derivations == 4


def test_saturate_reversed_chain_is_linear():
    # One seed plus one combination per level: the top guard travels up
    # the chain once.  Retrying every clause's full product until nothing
    # changes makes one pass per level, about levels^2 / 2 combinations.
    levels = 400
    program = prog(reversed_chain_text(levels))
    table = saturate_supports(program)
    assert table.derivations <= 2 * levels
    top = program.atoms.id_of(f"a{levels}")
    assert table.supports(top) == (frozenset(),)
    with pytest.raises(ResourceLimitError):
        reference_saturate_supports(program, max_derivations=2 * levels)


def derivations_golden_lines() -> list:
    """`label derivations` per program: 2,000 `random_program` draws
    (seed 5), then reversed chains with and without guards, then ladders
    listed both ways.

    Rewrite the golden after a deliberate change to the count with
    `cd tests && PYTHONPATH=../src python -c "import test_guarded as t;
    print(''.join(t.derivations_golden_lines()), end='')" > golden/derivations.txt`.
    """
    rng = random.Random(5)
    programs = [(f"random-{i}", random_program(rng)) for i in range(2000)]
    for levels in (1, 2, 7, 60, 400):
        programs.append((f"chain-{levels}", prog(reversed_chain_text(levels))))
        programs.append((f"chain-{levels}-guard-7", prog(reversed_chain_text(levels, 7))))
    for rungs in (1, 3, 12, 40):
        programs.append((f"ladder-{rungs}", prog(ladder_text(rungs, rung_first=False))))
        programs.append((f"ladder-{rungs}-rung-first", prog(ladder_text(rungs, rung_first=True))))
    return [f"{label} {saturate_supports(program).derivations}\n" for label, program in programs]


def test_saturate_derivations_golden():
    # Counts pin work that changes no output, such as combining a guard
    # that was evicted before its turn.
    golden = Path(__file__).parent / "golden" / "derivations.txt"
    assert derivations_golden_lines() == golden.read_text().splitlines(keepends=True)


def test_saturate_skips_evicted_guards():
    # q's first guard {r, s} is evicted by {r} before it is combined, so
    # p only ever stores the combination with the smaller guard.
    program = prog("q :- not r, not s.\nq :- not r.\np :- q, not t.")
    table = saturate_supports(program)
    assert table.derivations == 3
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
    assert verify_proof(tree, program) == Clause(p, frozenset(), guard)


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
                assert root == Clause(atom, frozenset(), guard)
                leaf_union = frozenset()
                for leaf in tree.leaves():
                    leaf_union |= leaf.label.neg_body
                assert leaf_union == root.neg_body
                for members in all_interpretations(len(program.atoms)):
                    if admits(members, root):
                        assert all(
                            not (members & node.label.neg_body)
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
        assert verify_proof(tree, program) == Clause(p, frozenset(), guard)
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


def _recursive_walk(node, depth=0):
    """`ProofTree.walk` as a recursive pre-order."""
    yield node, depth
    if not node.is_leaf:
        yield from _recursive_walk(node.clause_parent, depth + 1)
        yield from _recursive_walk(node.atom_parent, depth + 1)


@settings(max_examples=200, deadline=None)
@given(small_programs())
def test_proof_sexp_roundtrip_property(program):
    for atom in range(len(program.atoms)):
        for _, tree in islice(enumerate_supports(program, atom), 50):
            walk = [(id(node), depth) for node, depth in tree.walk()]
            assert walk == [(id(node), depth) for node, depth in _recursive_walk(tree)]
            lines = format_proof(tree, program.atoms).splitlines()
            assert len(lines) == tree.size()
            assert [line.split("| ", 1)[0] for line in lines] == [str(d) for _, d in walk]
            text = proof_to_sexp(tree, program.atoms)
            assert proof_from_sexp(text, program.atoms) == tree


# The three ways `guarded_resolve` refuses a pair of labels.
_REFUSALS = ("clause parent is already fully resolved|atom parent still has body atoms"
             "|does not occur in the clause body")


class _LabelRecorder(pickle.Pickler):
    """A pickler that records every `Clause` it is handed, repeats included."""

    def __init__(self, file):
        super().__init__(file)
        self.labels = []

    def persistent_id(self, obj):
        if isinstance(obj, Clause):
            self.labels.append(obj)
        return None


def _pickled_labels(tree):
    recorder = _LabelRecorder(io.BytesIO())
    recorder.dump(tree)
    return recorder.labels


@settings(max_examples=200, deadline=None)
@given(small_programs())
def test_proof_is_its_leaves_and_shape_property(program):
    for atom in range(len(program.atoms)):
        for _, tree in islice(enumerate_supports(program, atom), 50):
            for node in tree.nodes():
                if node.is_leaf:
                    assert node.atom_parent is None
                else:
                    assert node.atom_parent is not None
                    assert node.label == guarded_resolve(node.clause_parent.label,
                                                         node.atom_parent.label)
            labels = [node.label for node in tree.nodes()]
            text = proof_to_sexp(tree, program.atoms)
            for twin in (copy.copy(tree), copy.deepcopy(tree),
                         pickle.loads(pickle.dumps(tree)), proof_from_sexp(text, program.atoms)):
                assert twin == tree and hash(twin) == hash(tree)
                assert [node.label for node in twin.nodes()] == labels
            pickled = _pickled_labels(tree)
            leaves = [leaf.label for leaf in tree.leaves()]
            assert len(pickled) == len(leaves)
            assert all(a is b for a, b in zip(pickled, leaves))


def _with_leaf(tree, leaf, label):
    """`tree` rebuilt by resolution with the node `leaf` relabeled `label`."""
    if tree is leaf:
        return ProofTree(label)
    if tree.is_leaf:
        return tree
    return ProofTree.resolve(_with_leaf(tree.clause_parent, leaf, label),
                             _with_leaf(tree.atom_parent, leaf, label))


def _foreign_labels(program, label):
    """Up to three near misses of a leaf label that is no program clause.

    One guard atom added, one body atom dropped, and the guarded atom of
    an atom that heads no clause; a kind with no foreign member is skipped.
    """
    atoms = range(len(program.atoms))
    images = set(program.clauses)
    kinds = (
        [Clause(label.head, label.pos_body, label.neg_body | {a})
         for a in atoms if a not in label.neg_body],
        [Clause(label.head, label.pos_body - {b}, label.neg_body)
         for b in sorted(label.pos_body)],
        [Clause(a, frozenset(), frozenset()) for a in atoms if not program.clauses_for(a)],
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
            assert verify_proof(tree, program) == Clause(atom, frozenset(), guard)
            for leaf in tree.leaves():
                for label in _foreign_labels(program, leaf.label):
                    with pytest.raises(ProofError, match="is not the image of a program clause"):
                        verify_proof(ProofTree(label), program)
                    # The forged tree either cannot be built, or its foreign
                    # leaf is the first fault verification reports.
                    try:
                        forged = _with_leaf(tree, leaf, label)
                    except ValueError as exc:
                        assert re.fullmatch(f".*({_REFUSALS}).*", str(exc))
                        continue
                    with pytest.raises(ProofError, match="is not the image of a program clause"):
                        verify_proof(forged, program)


def test_deep_proof_walks_without_recursion():
    levels = 3000
    program = prog(reversed_chain_text(levels))
    top = program.atoms.id_of(f"a{levels}")
    (guard, tree), = enumerate_supports(program, top)
    assert guard == frozenset()
    assert tree.size() == 2 * levels + 1
    assert sum(1 for _ in tree.leaves()) == levels + 1
    assert verify_proof(tree, program) == Clause(top, frozenset(), guard)
    text = format_proof(tree, program.atoms)
    assert text.startswith(f"0| a{levels} : {{}}\n1| a{levels} <- a{levels - 1} : {{}}\n")
    assert text.endswith(f"{levels}| a1 <- a0 : {{}}\n{levels}| a0 : {{}}\n")
    sexp = proof_to_sexp(tree, program.atoms)
    rebuilt = proof_from_sexp(sexp, program.atoms)
    assert proof_to_sexp(rebuilt, program.atoms) == sexp
    assert verify_proof(rebuilt, program) == Clause(top, frozenset(), guard)


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
        f"ProofTree(Clause(head={top}, pos_body=frozenset(), neg_body=frozenset()), "
        f"size={2 * levels + 1})")
    assert first != first.atom_parent
    # Same root label, but the atom parent's subtree is cut to one leaf.
    cut = ProofTree.resolve(first.clause_parent, ProofTree(first.atom_parent.label))
    assert cut.label == first.label
    assert first != cut and cut != first


def test_deep_proof_copies_and_pickles():
    # Each node hands copy and pickle the flat pre-order of its shapes, so
    # neither recurses once per level.
    levels = 3000
    program = prog("a0.\n" + "".join(f"a{i + 1} :- a{i}.\n" for i in range(levels)))
    top = program.atoms.id_of(f"a{levels}")
    tree = saturate_supports(program).certificates(top)[frozenset()]
    assert tree.size() == 2 * levels + 1
    assert copy.copy(tree) == tree
    assert copy.deepcopy(tree) == tree
    assert pickle.loads(pickle.dumps(tree)) == tree
    equation = Equation(top, (frozenset(),), (tree,))
    assert copy.deepcopy(equation) == equation


def _guarded_chain(levels):
    """`a0.` and `a_i :- a_{i-1}.`, with `not z_i` on every 20th level."""
    program = prog(reversed_chain_text(levels, guard_every=20))
    return program, program.atoms.id_of(f"a{levels}")


def test_unguarded_levels_share_their_guard():
    levels = 400
    program, top = _guarded_chain(levels)
    table = saturate_supports(program)
    guard = [table.supports(program.atoms.id_of(f"a{i}"))[0] for i in range(levels + 1)]
    assert guard[0] is EMPTY
    for i in range(1, levels + 1):
        if i % 20:
            assert guard[i] is guard[i - 1]
        else:
            assert names_of(program, guard[i]) == {f"z{j}" for j in range(20, i + 1, 20)}
    for node in table.certificate(top, guard[levels]).nodes():
        label = node.label
        if not label.pos_body:
            assert label.pos_body is EMPTY
        if not node.is_leaf and not node.clause_parent.label.neg_body:
            assert label.neg_body is node.atom_parent.label.neg_body


def test_empty_bodies_are_the_shared_empty_set():
    program = prog("a.\nb :- not a.\nc :- a, b.")
    fact, negative, positive = program.clauses
    assert fact.pos_body is fact.neg_body is negative.pos_body is positive.neg_body is EMPTY
    assert all(c.neg_body is EMPTY for c in gl_reduct(program, frozenset()).clauses)
    assert all(c.pos_body is EMPTY for c in dung_transform(program).clauses)
    (_, tree), = enumerate_supports(program, program.atoms.id_of("c"))
    rebuilt = proof_from_sexp(proof_to_sexp(tree, program.atoms), program.atoms)
    assert rebuilt == tree
    for node in rebuilt.nodes():
        if not node.label.pos_body:
            assert node.label.pos_body is EMPTY
        if not node.label.neg_body:
            assert node.label.neg_body is EMPTY


def _traced_peak(levels):
    program, top = _guarded_chain(levels)
    tracemalloc.start()
    try:
        saturate_supports(program).certificates(top)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_guarded_chain_memory_is_shared():
    # Copied guards hold every level's full guard: about n^2 / 40 atoms,
    # 26 MB at 3,000 levels and x3.3 per doubling.  Shared ones hold a new
    # set only at the guarded levels.
    half, full = _traced_peak(1500), _traced_peak(3000)
    assert full < 10_000_000
    assert full < 2.8 * half


def _held_peak(text, top):
    """The traced peak of holding a program, its table, top's proofs and their texts."""
    tracemalloc.start()
    try:
        program = parse_program(text)
        proofs = saturate_supports(program).certificates(program.atoms.id_of(top))
        texts = [format_proof(proof, program.atoms) for proof in proofs.values()]
        assert texts
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("rung_first", [False, True], ids=["chain-first", "rung-first"])
def test_supports_proofs_holds_one_stage_at_a_time(tmp_path, capsys, rung_first):
    # `supports --proofs` frees the table before the lazy pass and keeps only
    # each proof's text, so it peaks near half of holding everything at once.
    text = ladder_text(40, rung_first=rung_first)
    path = tmp_path / "ladder.lp"
    path.write_text(text)
    argv = ["supports", str(path), "--atom", "a40", "--proofs"]
    assert run(argv) == 0  # warm-up
    expected = capsys.readouterr().out
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == expected
    assert peak <= 0.75 * _held_peak(text, "a40")


@settings(max_examples=200, deadline=None)
@given(small_programs())
def test_resolution_shares_guards_property(program):
    for atom in range(len(program.atoms)):
        for _, tree in islice(enumerate_supports(program, atom), 50):
            for node in tree.nodes():
                if node.is_leaf:
                    continue
                clause, unit = node.clause_parent.label, node.atom_parent.label
                assert node.label == Clause(clause.head, clause.pos_body - {unit.head},
                                            clause.neg_body | unit.neg_body)
                if not clause.neg_body:
                    assert guarded_resolve(clause, unit).neg_body is unit.neg_body
    assert list(saturate_supports(program).items()) == list(
        reference_saturate_supports(program).items())


@settings(max_examples=200, deadline=None)
@given(small_programs())
def test_guarded_atoms_are_the_negative_program_property(program):
    # A guarded atom p : S is the clause p :- not S, so the roots of the
    # stored supports' proofs are exactly the clauses `negate` prints.
    table = saturate_supports(program)
    negative = dung_transform(program)
    for atom in range(len(program.atoms)):
        proofs = table.certificates(atom)
        assert {tree.label for tree in proofs.values()} == set(negative.clauses_for(atom))
        for tree in proofs.values():
            for leaf in tree.leaves():
                assert leaf.label in program.clauses_for(leaf.label.head)


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


def test_lazy_pass_closes_the_search_before_the_last_proof(monkeypatch):
    # A deep chain's goal stack is freed before its only proof is read.
    events = []
    enumerate_supports = guarded.enumerate_supports

    def watched(program, atom):
        try:
            yield from enumerate_supports(program, atom)
        finally:
            events.append("closed")

    monkeypatch.setattr(guarded, "enumerate_supports", watched)
    program = example_program()
    p = program.atoms.id_of("p")
    for guard, _ in guarded._first_proofs(program, p, saturate_supports(program).supports(p)):
        events.append(names_of(program, guard))
    assert events == [{"q"}, "closed", {"r"}]
    assert list(guarded._first_proofs(program, program.atoms.id_of("r"), ())) == []
    assert events == [{"q"}, "closed", {"r"}]


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
        assert verify_proof(rebuilt, program) == Clause(q, frozenset(), guard)


def test_proof_sexp_truncated_input_is_value_error():
    program = example_program()
    text = proof_to_sexp(_two_leaf_proof(program), program.atoms)
    for end in range(len(text) + 1):
        try:
            tree = proof_from_sexp(text[:end], program.atoms)
        except ValueError:
            continue
        assert tree == _two_leaf_proof(program)


def test_proof_sexp_rejects_malformed_text():
    program = example_program()
    text = proof_to_sexp(_two_leaf_proof(program), program.atoms)
    with pytest.raises(ValueError, match="^trailing tokens after proof s-expression$"):
        proof_from_sexp(text + " (atom t ())", program.atoms)
    with pytest.raises(ValueError, match="^expected '\\(', found 'atom'$"):
        proof_from_sexp("atom t ()", program.atoms)
    with pytest.raises(ValueError, match="^clause parent is already fully resolved$"):
        proof_from_sexp("(step (atom t ()) (atom t ()))", program.atoms)


def test_proof_sexp_rejects_unknown_atom():
    program = example_program()
    with pytest.raises(ValueError):
        proof_from_sexp("(atom zz ())", program.atoms)
