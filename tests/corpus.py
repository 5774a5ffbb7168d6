"""Shared test fixtures: random generators and independent oracles.

The oracles here deliberately avoid the code paths they check: truth
tables instead of DPLL, unpruned saturation instead of antichains,
unfounded sets instead of reducts, and a direct propositional reading
of clause satisfaction.  The seed's
character-by-character scanner is kept as the reference for the `.lp`
tokens and parse errors.  The recursive
DPLL with blocking-clause enumeration is kept as a reference for the
SAT layer's exact assignments and model lists, the naive saturation
loop and recursive lazy enumeration as references for the guarded
layer's exact support tables and `(guard, proof)` streams, and the
unpruned candidate walk as the reference for the solver's model order
and certificates, with the leaf-at-a-time pruning rule as the reference
for the candidates its walk leaves; the one ordered search over `E_P`
meant to replace that walk must give the same pairs.  A model's
certificate is also rebuilt from it atom by atom, from the guarded
layer's references alone.
"""

from __future__ import annotations

import random
from itertools import islice, product
from unittest import mock

from hypothesis import strategies as st

import guardres.solver as solver
from guardres import (
    AtomTable,
    Clause,
    CnfTheory,
    Equation,
    Program,
    candidate_theories,
    check_candidate,
    gl_operator,
    is_stable,
    parse_program,
    program_to_cnf,
    solve_stable,
)
from guardres.core import ResourceLimitError
from guardres.guarded import (
    ProofTree,
    SupportTable,
    enumerate_supports,
    saturate_supports,
)
from guardres.parse import ParseError, SourceSpan
from guardres.sat import _search, equation_to_cnf, make_clause

EXAMPLE_TEXT = "p :- t, not q.\np :- not r.\nq :- not s.\nt.\n"

# Four choice pairs and three clauses for c: 20 options (2 per pair atom,
# 4 for c), 1,024 candidates, none prunable, and 16 stable models.
FOUR_PAIRS_TEXT = "".join(f"a{i} :- not b{i}.\nb{i} :- not a{i}.\n" for i in range(4)) + (
    "c :- a0, not b1.\nc :- a2.\nc :- not b3.\n")

_NAMES = "abcdefghijkl"


def example_program() -> Program:
    """The four-clause walkthrough program used across the suite."""
    return parse_program(EXAMPLE_TEXT)


def prog(text: str) -> Program:
    return parse_program(text)


def interpretation_key(members: frozenset[int]) -> int:
    """Bitmask with bit i set iff atom id i is a member; the canonical order."""
    key = 0
    for atom_id in members:
        key |= 1 << atom_id
    return key


def names_of(program: Program, members) -> frozenset:
    return frozenset(program.atoms.name(a) for a in members)


def members_of(program: Program, *names: str) -> frozenset:
    return frozenset(program.atoms.id_of(n) for n in names)


def reversed_chain_text(levels: int, guard_every: int | None = None) -> str:
    """`a_i :- a_{i-1}` from the top level down over the fact `a0`.

    Every `guard_every`-th level also carries `not z_i`.  Listed top-down,
    the chain makes a naive saturation loop take one pass per level.
    """
    lines = []
    for i in range(levels, 0, -1):
        guard = f", not z{i}" if guard_every and i % guard_every == 0 else ""
        lines.append(f"a{i} :- a{i - 1}{guard}.")
    return "\n".join(lines + ["a0."]) + "\n"


def ladder_text(rungs: int, rung_first: bool) -> str:
    """`a0 :- not x0.`, then per rung i `a_i :- a_{i-1}, not x_i.`,
    `a_i :- c_i.` and `c_i :- not y_i.`; `rung_first` swaps the first two."""
    lines = ["a0 :- not x0."]
    for i in range(1, rungs + 1):
        step = [f"a{i} :- a{i - 1}, not x{i}.", f"a{i} :- c{i}."]
        if rung_first:
            step.reverse()
        lines += step + [f"c{i} :- not y{i}."]
    return "\n".join(lines) + "\n"


def reference_tokenize(text: str) -> list:
    """The `.lp` scanner, one character at a time: `(kind, text, line, column)` tokens."""

    def is_ident_start(ch: str) -> bool:
        return "a" <= ch <= "z" or "A" <= ch <= "Z" or ch == "_"

    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if is_ident_start(ch):
            j = i
            while j < n and (is_ident_start(text[j]) or "0" <= text[j] <= "9"):
                j += 1
            word = text[i:j]
            tokens.append(("not" if word == "not" else "ident", word, line, col))
            col += j - i
            i = j
            continue
        if text.startswith(":-", i):
            tokens.append((":-", ":-", line, col))
            i += 2
            col += 2
            continue
        if ch in ",.":
            tokens.append((ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", SourceSpan(line, col))
    tokens.append(("eof", "", line, col))
    return tokens


# Pieces of `.lp`-like text: every character class the scanner tells
# apart, the keyword, and one character it must reject.
LP_PIECES = ("a", "b", "z", "A", "_", "0", "7", " ", "\t", "\r", "\n", "%",
             ":-", ":", "-", ",", ".", "not", "é")


def random_lp_text(rng: random.Random, max_pieces: int = 40) -> str:
    return "".join(rng.choice(LP_PIECES) for _ in range(rng.randint(0, max_pieces)))


def random_program(rng: random.Random, max_atoms: int = 8,
                   max_clauses: int = 12) -> Program:
    # Skew toward the upper bound; tiny programs exercise little.
    n = rng.randint(max(1, max_atoms // 2), max_atoms)
    table = AtomTable(_NAMES[:n])
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        head = rng.randrange(n)
        pos_size = min(rng.choices([0, 1, 2], weights=[5, 3, 2])[0], n)
        neg_size = min(rng.choices([0, 1, 2], weights=[4, 4, 2])[0], n)
        clauses.append(Clause(
            head,
            frozenset(rng.sample(range(n), k=pos_size)),
            frozenset(rng.sample(range(n), k=neg_size))))
    return Program(table, clauses)


@st.composite
def small_programs(draw):
    """`hypothesis` strategy: programs of 1 to 6 atoms and 1 to 10 clauses."""
    n = draw(st.integers(1, 6))
    atom_sets = st.frozensets(st.integers(0, n - 1), max_size=3)
    clauses = draw(st.lists(
        st.builds(Clause, st.integers(0, n - 1), atom_sets, atom_sets),
        min_size=1, max_size=10))
    return Program(AtomTable("abcdef"[:n]), clauses)


def random_tight_program(rng: random.Random, max_atoms: int = 8,
                         max_clauses: int = 12) -> Program:
    """Tight by construction: positive bodies only reach lower-ranked atoms."""
    n = rng.randint(max(1, max_atoms // 2), max_atoms)
    table = AtomTable(_NAMES[:n])
    rank = {a: rng.randrange(4) for a in range(n)}
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        head = rng.randrange(n)
        lower = [a for a in range(n) if rank[a] < rank[head]]
        pos_size = min(rng.choices([0, 1, 2], weights=[4, 4, 2])[0], len(lower))
        neg_size = min(rng.choices([0, 1, 2], weights=[4, 4, 2])[0], n)
        clauses.append(Clause(
            head,
            frozenset(rng.sample(lower, k=pos_size)),
            frozenset(rng.sample(range(n), k=neg_size))))
    return Program(table, clauses)


def random_cnf(rng: random.Random, max_vars: int = 12) -> CnfTheory:
    # Clause count scales with the variable count so model counts stay at
    # desk scale (the blocking-clause reference is quadratic in them).
    n = rng.randint(1, max_vars)
    table = AtomTable(f"x{i}" for i in range(n))
    clause_lists = []
    for _ in range(rng.randint(max(2, n), n + 6)):
        width = rng.randint(1, min(3, n))
        atoms = rng.sample(range(n), k=width)
        clause_lists.append([(a, rng.random() < 0.5) for a in atoms])
    return CnfTheory.from_literals(table, clause_lists)


def truth_table_models(theory: CnfTheory) -> list:
    """All models by exhaustive evaluation, ascending bitmask order.

    Independent of the DPLL path: each variable's truth pattern over all
    2^n assignments is a single big integer, and clause/theory evaluation
    is bitwise algebra on those.
    """
    n = len(theory.atoms)
    assignments = 1 << n
    full = (1 << assignments) - 1
    var_true = [
        full ^ (full // ((1 << (1 << i)) + 1))
        for i in range(n)
    ]
    satisfied = full
    for clause in theory.clauses:
        bits = 0
        for atom, polarity in clause:
            bits |= var_true[atom] if polarity else (~var_true[atom] & full)
        satisfied &= bits
    models = []
    while satisfied:
        mask = (satisfied & -satisfied).bit_length() - 1
        models.append(frozenset(i for i in range(n) if (mask >> i) & 1))
        satisfied &= satisfied - 1
    return models


def all_supports(program: Program) -> dict:
    """Every derivable support per atom, with no antichain pruning."""
    supports = {a: set() for a in range(len(program.atoms))}
    for clause in program.clauses:
        if not clause.pos_body:
            supports[clause.head].add(clause.neg_body)
    changed = True
    while changed:
        changed = False
        for clause in program.clauses:
            if not clause.pos_body:
                continue
            pools = [tuple(supports[b]) for b in sorted(clause.pos_body)]
            if not all(pools):
                continue
            for combo in product(*pools):
                guard = clause.neg_body.union(*combo)
                if guard not in supports[clause.head]:
                    supports[clause.head].add(guard)
                    changed = True
    return supports


def minimal_family(guards) -> set:
    uniq = set(guards)
    return {g for g in uniq if not any(h < g for h in uniq)}


def direct_clause_value(members, clause) -> bool:
    """The clause read as a plain disjunction, evaluated literal by literal."""
    return (any(q not in members for q in clause.pos_body)
            or any(r in members for r in clause.neg_body)
            or clause.head in members)


def unfounded_set_stable(program: Program, members: frozenset) -> bool:
    """Stability without reducts: a model none of whose nonempty subsets is unfounded.

    A set U is unfounded when none of its atoms has a clause whose body
    `members` satisfies and whose positive body misses U (Leone, Rullo &
    Scarcello, *Information and Computation* 1997).  Every subset of
    `members` is tried, each as a bitmask.
    """
    if not all(direct_clause_value(members, c) for c in program.clauses):
        return False

    def mask(atoms) -> int:
        return sum(1 << a for a in atoms)

    backed = [(1 << c.head, mask(c.pos_body)) for c in program.clauses
              if all(q in members for q in c.pos_body)
              and not any(r in members for r in c.neg_body)]
    full = mask(members)
    subset = full
    while subset:
        if not any(head & subset and not pos & subset for head, pos in backed):
            return False
        subset = (subset - 1) & full
    return True


def well_founded_bracket(program: Program) -> tuple:
    """`(T, U)`: the atoms true, and the atoms not false, in the well-founded model.

    The alternating fixpoint of Γ (Van Gelder, JCSS 1993): from T = ∅, set
    U = Γ(T) and then T = Γ(U), until T is fixed.  Every stable model M
    has T ⊆ M ⊆ U.
    """
    true = frozenset()
    while True:
        possible = gl_operator(program, true)
        grown = gl_operator(program, possible)
        if grown == true:
            return true, possible
        true = grown


def _reference_unit_propagate(clauses, assign: dict):
    """Extend `assign` to unit closure by full rescans; a falsified clause or None."""
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            unassigned = None
            unassigned_count = 0
            satisfied = False
            for atom, polarity in clause:
                value = assign.get(atom)
                if value is None:
                    unassigned = (atom, polarity)
                    unassigned_count += 1
                elif value == polarity:
                    satisfied = True
                    break
            if satisfied:
                continue
            if unassigned_count == 0:
                return clause
            if unassigned_count == 1:
                atom, polarity = unassigned
                assign[atom] = polarity
                changed = True
    return None


def reference_dpll_solve(theory: CnfTheory, assumptions=None):
    """Recursive DPLL copying the assignment per branch: lowest id, false first."""
    n = len(theory.atoms)
    clauses = theory.clauses

    def search(assign: dict):
        if _reference_unit_propagate(clauses, assign) is not None:
            return None
        var = next((v for v in range(n) if v not in assign), None)
        if var is None:
            return assign
        for value in (False, True):
            result = search({**assign, var: value})
            if result is not None:
                return result
        return None

    return search(dict(assumptions or {}))


def reference_enumerate_models(theory: CnfTheory) -> list:
    """Models by re-solving with one full-length blocking clause per model."""
    n = len(theory.atoms)
    if n == 0:
        return [] if any(not c for c in theory.clauses) else [frozenset()]
    clauses = list(theory.clauses)
    models = []
    while True:
        assignment = reference_dpll_solve(CnfTheory(theory.atoms, clauses))
        if assignment is None:
            break
        model = frozenset(a for a, value in assignment.items() if value)
        models.append(model)
        clauses.append(frozenset((a, not assignment[a]) for a in range(n)))
    models.sort(key=interpretation_key)
    return models


def reference_equation_to_cnf(atom: int, supports: tuple,
                              max_expansion: int = 200_000) -> list:
    """The seed's defining-equation encoder: the clauses of a support
    antichain go through `make_clause`, and tautologies are filtered out
    afterwards."""
    if not supports:
        return [frozenset([(atom, False)])]
    if supports == (frozenset(),):
        return [frozenset([(atom, True)])]
    clauses = []
    for support in supports:
        clauses.append(make_clause([(atom, True)] + [(r, True) for r in support]))
    combos = 1
    for support in supports:
        combos *= len(support)
        if combos > max_expansion:
            raise ResourceLimitError(
                f"defining equation for atom id {atom} expands past {max_expansion} clauses")
    for combo in product(*(sorted(s) for s in supports)):
        clauses.append(make_clause([(atom, False)] + [(r, False) for r in combo]))
    return [c for c in clauses if c is not None]


def reference_saturate_supports(program: Program, *,
                                max_derivations: int | None = None) -> SupportTable:
    """Minimal supports by retrying every clause's full product until stable.

    Counts one derivation per seed clause and per combination tried, so
    a reversed chain of n levels costs about n^2 / 2 of them.
    """
    antichains: dict = {}
    derivations = 0

    def spend() -> None:
        nonlocal derivations
        derivations += 1
        if max_derivations is not None and derivations > max_derivations:
            raise ResourceLimitError(
                f"support saturation exceeded {max_derivations} derivations")

    def insert(atom: int, guard: frozenset) -> bool:
        chain = antichains.setdefault(atom, [])
        for existing in chain:
            if existing <= guard:
                return False
        chain[:] = [s for s in chain if not guard <= s]
        chain.append(guard)
        return True

    positive = []
    for clause in program.clauses:
        if clause.pos_body:
            positive.append(clause)
        else:
            spend()
            insert(clause.head, clause.neg_body)
    changed = True
    while changed:
        changed = False
        for clause in positive:
            pools = [tuple(antichains.get(b, ())) for b in sorted(clause.pos_body)]
            if not all(pools):
                continue
            for combo in product(*pools):
                spend()
                if insert(clause.head, clause.neg_body.union(*combo)):
                    changed = True
    return SupportTable(program, antichains, derivations)


def reference_enumerate_supports(program: Program, atom: int):
    """The lazy `(guard, proof)` stream as nested recursive generators."""

    def derive(target: int, in_progress: frozenset):
        blocked = in_progress | {target}
        for clause in program.clauses_for(target):
            if clause.pos_body & blocked:
                continue
            leaf = ProofTree(Clause(target, clause.pos_body, clause.neg_body))
            if not clause.pos_body:
                yield clause.neg_body, leaf
                continue
            yield from expand(leaf, sorted(clause.pos_body), 0, blocked)

    def expand(subtree: ProofTree, body: list, index: int, blocked: frozenset):
        if index == len(body):
            yield subtree.label.neg_body, subtree
            return
        for _, sub_proof in derive(body[index], blocked):
            node = ProofTree.resolve(subtree, sub_proof)
            yield from expand(node, body, index + 1, blocked)

    yield from derive(atom, frozenset())


def reference_format_proof(tree: ProofTree, table: AtomTable) -> str:
    """`format_proof` as a recursive pre-order walk."""

    def names(atoms) -> str:
        return ", ".join(table.name(a) for a in sorted(atoms))

    def emit(node: ProofTree, depth: int):
        label = node.label
        if label.pos_body:
            yield (f"{depth}| {table.name(label.head)} <- {names(label.pos_body)} : "
                   f"{{{names(label.neg_body)}}}\n")
        else:
            yield f"{depth}| {table.name(label.head)} : {{{names(label.neg_body)}}}\n"
        for parent in (node.clause_parent, node.atom_parent):
            if parent is not None:
                yield from emit(parent, depth + 1)

    return "".join(emit(tree, 0))


def reference_certificate(program: Program, atom: int, guard: frozenset) -> ProofTree:
    """The first proof of `guard` in the reference lazy stream."""
    for found, tree in reference_enumerate_supports(program, atom):
        if found == guard:
            return tree
    raise KeyError(guard)


def reference_choices(program: Program) -> list:
    """Per atom, its stored minimal guards with their first reference proofs.

    The guards come from the naive saturation loop, in the order they
    first appear in the recursive lazy stream.
    """
    table = reference_saturate_supports(program)
    choices = []
    for atom in range(len(program.atoms)):
        stored = set(table.supports(atom))
        first: dict = {}
        for guard, proof in reference_enumerate_supports(program, atom):
            if len(first) == len(stored):
                break
            if guard in stored:
                first.setdefault(guard, proof)
        choices.append(list(first.items()))
    return choices


def reference_model_certificate(choices: list, model: frozenset) -> tuple:
    """The certificate of `model`, fixed atom by atom from `reference_choices`.

    `-p` for every atom outside the model; for every atom in it, the
    first of its guards that the model avoids, with that guard's proof.
    """
    certificate = []
    for atom, options in enumerate(choices):
        if atom not in model:
            certificate.append(Equation(atom, ()))
            continue
        guard, proof = next((g, t) for g, t in options if not g & model)
        certificate.append(Equation(atom, (guard,), (proof,)))
    return tuple(certificate)


def check_guarded_layer(program: Program, stream_cap: int | None = None) -> None:
    """Assert the guarded layer reproduces the references exactly.

    Identical support tables, identical `(guard, proof)` streams (the
    first `stream_cap` pairs when given), and per atom `certificates`
    holding `certificate`'s proof for every stored guard, in order of
    first appearance in the stream.
    """
    table = saturate_supports(program)
    assert list(table.items()) == list(reference_saturate_supports(program).items())
    for atom in range(len(program.atoms)):
        stream = list(islice(enumerate_supports(program, atom), stream_cap))
        assert stream == list(islice(reference_enumerate_supports(program, atom),
                                     stream_cap))
        stored = set(table.supports(atom))
        proofs = table.certificates(atom)
        assert set(proofs) == stored
        first_seen = list(dict.fromkeys(g for g, _ in stream if g in stored))
        assert list(proofs)[:len(first_seen)] == first_seen
        for guard in stored:
            assert proofs[guard] == table.certificate(atom, guard)


def reference_solve_stable(program: Program, limit: int | None = None) -> list:
    """Every candidate in product order, unpruned; each model with its first candidate."""
    if limit is not None and limit <= 0:
        return []
    base = program_to_cnf(program)
    results = []
    emitted = set()
    for candidate in candidate_theories(program):
        for model in check_candidate(program, base, candidate):
            if model in emitted:
                continue
            emitted.add(model)
            results.append((model, candidate))
            if limit is not None and len(results) >= limit:
                return results
    return results


def reference_one_search(program: Program, limit: int | None = None) -> list:
    """ROADMAP item 2's one ordered search over `E_P`, as `solve_stable` pairs.

    The options are `solver._choices`'.  The clauses are the program CNF,
    then each atom's `equation_to_cnf` over its option guards in that
    order, the chain atoms numbered after every program atom.  `_search`
    branches on atom 0, its chain atoms, atom 1, its chain atoms, and so
    on, false first, so the earliest option is tried first.  Each model
    is projected to the program atoms and must be stable; its
    certificate is `-p` for every atom outside it and, for every atom in
    it, the first option whose guard it avoids.
    """
    if limit is not None and limit <= 0:
        return []
    choices = solver._choices(program)
    n = len(program.atoms)
    clauses = list(program_to_cnf(program).clauses)
    order = []
    next_aux = n
    for atom, options in enumerate(choices):
        guards = tuple(eq.supports[0] for eq in options[1:])
        clauses += equation_to_cnf(atom, guards, next_aux)
        chain = max(len(guards) - 1, 0)
        order += [atom, *range(next_aux, next_aux + chain)]
        next_aux += chain
    results = []
    for extended in _search(next_aux, clauses, order):
        model = frozenset(atom for atom in extended if atom < n)
        assert is_stable(program, model)
        certificate = tuple(
            options[0] if atom not in model
            else next(eq for eq in options[1:] if not eq.supports[0] & model)
            for atom, options in enumerate(choices))
        results.append((model, certificate))
        if limit is not None and len(results) >= limit:
            break
    return results


def reference_prunable(candidate: tuple) -> bool:
    """A chosen guard mentions an atom another choice forces true.

    Such a choice `q <-> -S` makes `q` false in every model.  Choosing
    `-q` instead gives an earlier candidate in product order with a
    superset of the models, so a prunable candidate never holds the first
    occurrence of a model.  The solver cuts these by prefix; this is the
    rule read one whole candidate at a time.
    """
    forced_true = {eq.atom for eq in candidate if eq.supports and not eq.supports[0]}
    return any(eq.supports and (eq.supports[0] & forced_true) for eq in candidate)


def checked_candidates(program: Program) -> list:
    """The candidates `solve_stable` hands to `check_candidate`, in order."""
    seen = []

    def recording(program, base, candidate, **options):
        seen.append(candidate)
        return check_candidate(program, base, candidate, **options)

    with mock.patch.object(solver, "check_candidate", recording):
        solve_stable(program)
    return seen
