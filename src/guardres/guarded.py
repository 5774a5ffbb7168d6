"""Guarded unit resolution: guarded clauses, proof trees, and supports.

A normal clause `p :- q1, ..., qn, not r1, ..., not rm` is read as the
guarded Horn clause `p <- q1, ..., qn : {r1, ..., rm}`: the negative body
atoms move, positively, into the guard.  Resolving a body atom away
against an already-derived guarded atom merges the guards, so a fully
resolved atom's guard records every negative assumption used along the
way.  A guard S with `p : S` derivable is a *support* of p, and an
interpretation *admits* `p : S` when it avoids S entirely; collecting
supports is what turns the reduct fixpoint into proof search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator

from .core import AtomTable, Clause, Program, ResourceLimitError

DEFAULT_SUPPORT_CAP = 10_000


class ProofError(ValueError):
    """A proof tree failed verification."""


@dataclass(frozen=True)
class GuardedAtom:
    atom: int
    guard: frozenset[int]


@dataclass(frozen=True)
class GuardedClause:
    head: int
    body: frozenset[int]
    guard: frozenset[int]

    def as_atom(self) -> GuardedAtom:
        if self.body:
            raise ValueError("clause body is not empty")
        return GuardedAtom(self.head, self.guard)


def translate(clause: Clause) -> GuardedClause:
    """Flip the negative body into a guard: `p :- q, not r` becomes `p <- q : {r}`."""
    return GuardedClause(clause.head, clause.pos_body, clause.neg_body)


def guarded_resolve(gc: GuardedClause, ga: GuardedAtom) -> GuardedClause:
    """Remove `ga.atom` from the clause body and union the guards."""
    if ga.atom not in gc.body:
        raise ValueError(f"atom id {ga.atom} does not occur in the clause body")
    return GuardedClause(gc.head, gc.body - {ga.atom}, gc.guard | ga.guard)


def admits(members: frozenset[int], ga: GuardedAtom) -> bool:
    """True when `members` avoids the guard entirely."""
    return not (members & ga.guard)


@dataclass(frozen=True)
class ProofTree:
    """Derivation tree: leaves from the program, inner nodes from resolution.

    An inner node has a clause parent and an atom parent and is labeled
    with their resolvent (converted to a GuardedAtom once the body is
    gone).  Leaves are guarded images of program clauses, with purely
    negative clauses appearing atom-shaped; the root of a complete proof
    is always a GuardedAtom.
    """

    label: GuardedClause | GuardedAtom
    clause_parent: "ProofTree | None" = None
    atom_parent: "ProofTree | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.clause_parent is None and self.atom_parent is None

    def nodes(self) -> Iterator["ProofTree"]:
        yield self
        if self.clause_parent is not None:
            yield from self.clause_parent.nodes()
        if self.atom_parent is not None:
            yield from self.atom_parent.nodes()

    def leaves(self) -> Iterator["ProofTree"]:
        for node in self.nodes():
            if node.is_leaf:
                yield node

    def size(self) -> int:
        return sum(1 for _ in self.nodes())


def verify_proof(tree: ProofTree, program: Program) -> GuardedAtom:
    """Check a proof tree against `program` and return its root guarded atom.

    Every leaf must be the guarded image of a program clause, every inner
    node must be labeled with the resolvent of its two parents, and the
    root must be fully resolved.  The root guard is also audited against
    the union of all leaf guards, which equality resolution guarantees.
    Raises ProofError on any violation.
    """
    atom_leaves: set[GuardedAtom] = set()
    clause_leaves: set[GuardedClause] = set()
    for clause in program.clauses:
        image = translate(clause)
        if image.body:
            clause_leaves.add(image)
        else:
            atom_leaves.add(image.as_atom())

    def check(node: ProofTree) -> None:
        if node.is_leaf:
            label = node.label
            if isinstance(label, GuardedAtom):
                if label not in atom_leaves:
                    raise ProofError(
                        f"leaf {label} is not the image of a purely negative clause")
            elif label not in clause_leaves:
                raise ProofError(f"leaf {label} is not the image of a program clause")
            return
        if node.clause_parent is None or node.atom_parent is None:
            raise ProofError("inner node lacks a clause parent or an atom parent")
        check(node.clause_parent)
        check(node.atom_parent)
        clause_label = node.clause_parent.label
        atom_label = node.atom_parent.label
        if not isinstance(clause_label, GuardedClause):
            raise ProofError("clause parent is already fully resolved")
        if not isinstance(atom_label, GuardedAtom):
            raise ProofError("atom parent still has body atoms")
        try:
            resolvent = guarded_resolve(clause_label, atom_label)
        except ValueError as exc:
            raise ProofError(str(exc)) from exc
        expected = resolvent if resolvent.body else resolvent.as_atom()
        if node.label != expected:
            raise ProofError(f"inner node labeled {node.label}, resolution gives {expected}")

    check(tree)
    root = tree.label
    if not isinstance(root, GuardedAtom):
        raise ProofError("root is not fully resolved")
    leaf_union: frozenset[int] = frozenset()
    for leaf in tree.leaves():
        leaf_union |= leaf.label.guard
    if root.guard != leaf_union:
        raise ProofError("root guard differs from the union of leaf guards")
    return root


class SupportTable:
    """Per atom, the antichain of subset-minimal supports.

    Entries are stored in canonical order (lexicographic on sorted atom
    ids); a verifying ProofTree for any entry is recoverable on demand.
    """

    def __init__(self, program: Program, antichains: dict):
        self._program = program
        self._supports: dict[int, tuple[frozenset[int], ...]] = {
            atom: tuple(sorted(chain, key=lambda s: tuple(sorted(s))))
            for atom, chain in antichains.items()
            if chain
        }

    @property
    def program(self) -> Program:
        return self._program

    def supports(self, atom: int) -> tuple[frozenset[int], ...]:
        return self._supports.get(atom, ())

    def atoms(self) -> tuple[int, ...]:
        """Atoms with at least one support."""
        return tuple(sorted(self._supports))

    def items(self) -> Iterator[tuple[int, tuple[frozenset[int], ...]]]:
        for atom in self.atoms():
            yield atom, self._supports[atom]

    def has_admitted_support(self, atom: int, members: frozenset[int]) -> bool:
        return any(not (s & members) for s in self.supports(atom))

    def admitted_atoms(self, members: frozenset[int]) -> frozenset[int]:
        """Atoms with a support the interpretation admits."""
        return frozenset(
            a for a in self._supports if self.has_admitted_support(a, members))

    def certificate(self, atom: int, guard: frozenset[int]) -> ProofTree:
        """A verifying proof for a table entry, recovered by lazy enumeration."""
        if guard not in self.supports(atom):
            raise KeyError(f"{guard!r} is not a stored support of atom id {atom}")
        for found, tree in enumerate_supports(self._program, atom):
            if found == guard:
                return tree
        raise RuntimeError("stored support missing from lazy enumeration")

    def by_name(self) -> dict:
        """Name-keyed copy, comparable across programs and atom tables."""
        name = self._program.atoms.name
        return {
            name(atom): frozenset(frozenset(name(a) for a in s) for s in chain)
            for atom, chain in self._supports.items()
        }


def saturate_supports(program: Program, *,
                      max_supports_per_atom: int = DEFAULT_SUPPORT_CAP,
                      max_derivations: int | None = None) -> SupportTable:
    """Exact minimal-support antichains, by fixpoint saturation.

    Purely negative clauses seed their heads; clauses with positive
    bodies are then closed under every combination of already-derived
    supports, inserting with antichain pruning, until nothing changes.
    Pruning evicts dominated guards only, and replacing a sub-derivation
    by one with a smaller guard only shrinks the result, so the fixpoint
    is exactly the family of subset-minimal supports.

    Raises ResourceLimitError when an atom would store more than
    `max_supports_per_atom` guards (supports can be exponentially many)
    or when `max_derivations` combinations have been tried.
    """
    antichains: dict[int, list[frozenset[int]]] = {}
    derivations = 0

    def spend() -> None:
        nonlocal derivations
        derivations += 1
        if max_derivations is not None and derivations > max_derivations:
            raise ResourceLimitError(
                f"support saturation exceeded {max_derivations} derivations")

    def insert(atom: int, guard: frozenset[int]) -> bool:
        chain = antichains.setdefault(atom, [])
        for existing in chain:
            if existing <= guard:
                return False
        chain[:] = [s for s in chain if not guard <= s]
        chain.append(guard)
        if len(chain) > max_supports_per_atom:
            raise ResourceLimitError(
                f"atom {program.atoms.name(atom)!r} exceeds "
                f"{max_supports_per_atom} stored supports")
        return True

    positive: list[Clause] = []
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
    return SupportTable(program, antichains)


def enumerate_supports(program: Program,
                       atom: int) -> Iterator[tuple[frozenset[int], ProofTree]]:
    """Lazily yield `(guard, proof)` pairs for supports of `atom`.

    Depth-first AND-expansion: clauses are tried in program order and
    body atoms resolved in atom-id order, and no atom is ever re-derived
    inside its own derivation branch, so the stream terminates.  It still
    yields every subset-minimal support, because a repetition along a
    branch can only enlarge the guard.  Guards may repeat when distinct
    proofs produce the same support.
    """

    def derive(target: int,
               in_progress: frozenset[int]) -> Iterator[tuple[frozenset[int], ProofTree]]:
        blocked = in_progress | {target}
        for clause in program.clauses_for(target):
            if clause.pos_body & blocked:
                continue
            if not clause.pos_body:
                yield clause.neg_body, ProofTree(GuardedAtom(target, clause.neg_body))
                continue
            leaf = ProofTree(GuardedClause(target, clause.pos_body, clause.neg_body))
            yield from expand(leaf, sorted(clause.pos_body), 0, blocked)

    def expand(subtree: ProofTree, body: list[int], index: int,
               blocked: frozenset[int]) -> Iterator[tuple[frozenset[int], ProofTree]]:
        if index == len(body):
            yield subtree.label.guard, subtree
            return
        for _, sub_proof in derive(body[index], blocked):
            resolvent = guarded_resolve(subtree.label, sub_proof.label)
            label = resolvent if resolvent.body else resolvent.as_atom()
            node = ProofTree(label, clause_parent=subtree, atom_parent=sub_proof)
            yield from expand(node, body, index + 1, blocked)

    yield from derive(atom, frozenset())


def _atom_set_text(atoms: frozenset[int], table: AtomTable) -> str:
    return "{" + ", ".join(table.name(a) for a in sorted(atoms)) + "}"


def format_proof(tree: ProofTree, table: AtomTable) -> str:
    """One node per line, root first, children indented by depth."""
    lines: list[str] = []

    def emit(node: ProofTree, depth: int) -> None:
        label = node.label
        if isinstance(label, GuardedAtom):
            lines.append(
                f"{depth}| {table.name(label.atom)} : {_atom_set_text(label.guard, table)}")
        else:
            body = ", ".join(table.name(a) for a in sorted(label.body))
            lines.append(
                f"{depth}| {table.name(label.head)} <- {body} : "
                f"{_atom_set_text(label.guard, table)}")
        if node.clause_parent is not None:
            emit(node.clause_parent, depth + 1)
        if node.atom_parent is not None:
            emit(node.atom_parent, depth + 1)

    emit(tree, 0)
    return "\n".join(lines) + "\n"


def proof_to_sexp(tree: ProofTree, table: AtomTable) -> str:
    """S-expression form for machine round-trips; inner labels are implicit."""
    label = tree.label
    if tree.is_leaf:
        if isinstance(label, GuardedAtom):
            guard = " ".join(table.name(a) for a in sorted(label.guard))
            return f"(atom {table.name(label.atom)} ({guard}))"
        body = " ".join(table.name(a) for a in sorted(label.body))
        guard = " ".join(table.name(a) for a in sorted(label.guard))
        return f"(clause {table.name(label.head)} ({body}) ({guard}))"
    return (f"(step {proof_to_sexp(tree.clause_parent, table)} "
            f"{proof_to_sexp(tree.atom_parent, table)})")


def proof_from_sexp(text: str, table: AtomTable) -> ProofTree:
    """Parse the s-expression form back; resolvent labels are recomputed."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def take(expected: str | None = None) -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unexpected end of proof s-expression")
        tok = tokens[pos]
        pos += 1
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r}")
        return tok

    def atom_id(name: str) -> int:
        try:
            return table.id_of(name)
        except KeyError:
            raise ValueError(f"unknown atom {name!r} in proof") from None

    def atom_set() -> frozenset[int]:
        take("(")
        ids = []
        while pos < len(tokens) and tokens[pos] != ")":
            ids.append(atom_id(take()))
        take(")")
        return frozenset(ids)

    def node() -> ProofTree:
        take("(")
        kind = take()
        if kind == "atom":
            head = atom_id(take())
            guard = atom_set()
            take(")")
            return ProofTree(GuardedAtom(head, guard))
        if kind == "clause":
            head = atom_id(take())
            body = atom_set()
            guard = atom_set()
            take(")")
            return ProofTree(GuardedClause(head, body, guard))
        if kind == "step":
            clause_parent = node()
            atom_parent = node()
            take(")")
            clause_label = clause_parent.label
            atom_label = atom_parent.label
            if not isinstance(clause_label, GuardedClause) or not isinstance(
                    atom_label, GuardedAtom):
                raise ValueError("malformed step: expected a clause and an atom parent")
            resolvent = guarded_resolve(clause_label, atom_label)
            label = resolvent if resolvent.body else resolvent.as_atom()
            return ProofTree(label, clause_parent=clause_parent, atom_parent=atom_parent)
        raise ValueError(f"unknown proof node kind {kind!r}")

    tree = node()
    if pos != len(tokens):
        raise ValueError("trailing tokens after proof s-expression")
    return tree
