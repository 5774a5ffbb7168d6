"""Guarded unit resolution: guarded clauses, proof trees, and supports.

A normal clause `p :- q1, ..., qn, not r1, ..., not rm` is read as the
guarded Horn clause `p <- q1, ..., qn : {r1, ..., rm}`: the negative body
is the guard.  So a guarded clause is a program `Clause`, and a guarded
atom `p : S` is the clause `p :- not S`.  A resolution step unfolds one
body atom: from `p :- q, B, not S` and `q :- not T` it derives
`p :- B, not S | T`, so a fully resolved atom's negative body records
every negative assumption used along the way.  A guard S with `p : S`
derivable is a *support* of p, and an interpretation *admits* `p : S`
when it avoids S entirely; collecting supports is what turns the reduct
fixpoint into proof search.

A proof tree's leaves are program clauses, and every inner node is one
resolution step that `ProofTree.resolve` labels itself, so a proof is
fixed by its leaves and its shape: verification reads the leaves, and
pickles and s-expressions store only leaves and shape.

Guards are shared, not copied.  A guard union hands back the other
operand itself when one side is empty, so an unguarded step reuses the
guard it inherits, and a resolvent whose last body atom was just
resolved gets the shared empty body `core.EMPTY`.  On a chain of n
levels with k guarded ones this keeps O(n + k²) guard atoms where fresh
copies would keep O(n·k).  No table interns guards across calls, so a
discarded proof frees its guards with it.

Nothing here recurses on the depth of a program or a proof: saturation
runs a worklist, `ProofTree.walk`, the one pre-order of a proof, keeps
an explicit stack, and lazy enumeration runs one generator per goal (an
atom to derive) under a driver loop that keeps the goals of the current
branch on a stack, so chains thousands of levels deep stay in reach.
"""

from __future__ import annotations

__all__ = ("ProofError", "ProofTree", "SupportTable", "admits", "enumerate_supports",
           "format_proof", "guarded_resolve", "proof_from_sexp", "proof_to_sexp",
           "saturate_supports", "verify_proof")

from collections import deque
from collections.abc import Callable, Iterator
from itertools import product

from .core import EMPTY, AtomTable, Clause, Program, Record, ResourceLimitError, set_field

# Most guards one atom may store; saturation reads it at call time.
SUPPORT_CAP = 10_000


class ProofError(ValueError):
    """A proof tree failed verification."""


def _union(s: frozenset[int], t: frozenset[int]) -> frozenset[int]:
    """`s | t`, except that an empty side gives back the other operand itself."""
    if not s:
        return t
    if not t:
        return s
    return s | t


def guarded_resolve(gc: Clause, ga: Clause) -> Clause:
    """One resolution step: unfold the guarded atom `ga` into the body of `gc`.

    The resolvent keeps the rest of the positive body and unions the
    negative bodies; once the positive body is empty it is itself a
    guarded atom.  The union shares: when one guard is empty the
    resolvent's guard is the other one, the same object, and a fully
    resolved resolvent's positive body is `core.EMPTY`.  Raises
    ValueError unless `gc` still has a positive body, `ga` has none, and
    `ga.head` is in it.
    """
    if not gc.pos_body:
        raise ValueError("clause parent is already fully resolved")
    if ga.pos_body:
        raise ValueError("atom parent still has body atoms")
    if ga.head not in gc.pos_body:
        raise ValueError(f"atom id {ga.head} does not occur in the clause body")
    pos_body = gc.pos_body
    rest = pos_body - {ga.head} if len(pos_body) > 1 else EMPTY
    return Clause(gc.head, rest, _union(gc.neg_body, ga.neg_body))


def admits(members: frozenset[int], ga: Clause) -> bool:
    """True when `members` avoids the guard entirely."""
    return not (members & ga.neg_body)


class ProofTree(Record):
    """Derivation tree: leaves from the program, inner nodes from resolution.

    Every label is a `Clause` whose negative body is its guard; one with
    an empty positive body is a guarded atom `p : S`.  `ProofTree(label)`
    is a leaf, and `ProofTree.resolve(clause_parent, atom_parent)` is the
    only inner node there is: it is labeled with the resolvent of its two
    parents' labels, so a tree is fixed by its leaves and its shape.  The
    root of a complete proof is a guarded atom.  `walk()` is the one
    pre-order: printing, s-expressions and the flat form (leaf labels, None
    per inner node) read by equality, hashing, copying and pickling use it.
    """

    __slots__ = ("label", "clause_parent", "atom_parent")

    def __init__(self, label: Clause):
        set_field(self, "label", label)
        set_field(self, "clause_parent", None)
        set_field(self, "atom_parent", None)

    @classmethod
    def resolve(cls, clause_parent: ProofTree, atom_parent: ProofTree) -> ProofTree:
        """The inner node over two parents; ValueError when they do not resolve."""
        node = cls.__new__(cls)
        set_field(node, "label", guarded_resolve(clause_parent.label, atom_parent.label))
        set_field(node, "clause_parent", clause_parent)
        set_field(node, "atom_parent", atom_parent)
        return node

    @property
    def is_leaf(self) -> bool:
        return self.clause_parent is None

    def walk(self) -> Iterator[tuple["ProofTree", int]]:
        """Pre-order `(node, depth)`: a node, its clause parent's tree, its atom parent's."""
        stack = [(self, 0)]
        while stack:
            node, depth = stack.pop()
            yield node, depth
            if node.clause_parent is not None:
                stack.append((node.atom_parent, depth + 1))
                stack.append((node.clause_parent, depth + 1))

    def nodes(self) -> Iterator["ProofTree"]:
        return (node for node, _ in self.walk())

    def leaves(self) -> Iterator["ProofTree"]:
        for node in self.nodes():
            if node.clause_parent is None:
                yield node

    def size(self) -> int:
        return sum(1 for _ in self.nodes())

    def _shape(self) -> tuple:
        """The flat form: pre-order, a leaf's label or None for an inner node."""
        return tuple(node.label if node.clause_parent is None else None
                     for node in self.nodes())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProofTree):
            return NotImplemented
        return self is other or self._shape() == other._shape()

    def __hash__(self) -> int:
        return hash(self._shape())

    def __repr__(self) -> str:
        return f"ProofTree({self.label!r}, size={self.size()})"

    def __reduce__(self):
        return _rebuild_proof, (self._shape(),)


def _rebuild_proof(shape: tuple) -> ProofTree:
    """The tree whose flat form is `shape`, built bottom-up by resolution.

    Read backwards, a pre-order lists each node after both its subtrees,
    the clause parent's last, so their roots are on top of the stack.
    Raises ValueError when a pair of parents does not resolve.
    """
    stack: list[ProofTree] = []
    for label in reversed(shape):
        if label is None:
            clause_parent = stack.pop()
            stack.append(ProofTree.resolve(clause_parent, stack.pop()))
        else:
            stack.append(ProofTree(label))
    return stack.pop()


def verify_proof(tree: ProofTree, program: Program) -> Clause:
    """Check a proof tree against `program` and return its root guarded atom.

    Construction already makes every inner label the resolvent of its
    parents, so only the leaves are read: each must be a program clause,
    looked up among the clauses of its head.  The root must be fully
    resolved, and its guard is audited against the union of the leaf
    guards.  Raises ProofError on any violation.
    """
    leaf_union: set[int] = set()
    for leaf in tree.leaves():
        label = leaf.label
        if label not in program.clauses_for(label.head):
            raise ProofError(f"leaf {label} is not the image of a program clause")
        leaf_union |= label.neg_body
    root = tree.label
    if root.pos_body:
        raise ProofError("root is not fully resolved")
    if root.neg_body != leaf_union:
        raise ProofError("root guard differs from the union of leaf guards")
    return root


class SupportTable:
    """Per atom, the antichain of subset-minimal supports.

    `supports` gives an atom's entries in canonical order (lexicographic
    on sorted atom ids), sorted on each request, so a query about one
    atom sorts one antichain.  The table keeps guards only; the verifying
    ProofTree of an entry is the first proof of its guard in
    lazy-enumeration order, recovered on demand by `certificates` (every
    entry of an atom, in one enumeration pass); `certificate` picks one
    entry from it.  `derivations` is the derivation count of the
    saturation that built the table (see `saturate_supports`).
    """

    def __init__(self, program: Program, antichains: dict, derivations: int):
        self.derivations = derivations
        self._program = program
        self._chains: dict[int, list[frozenset[int]]] = {
            atom: chain for atom, chain in antichains.items() if chain}

    @property
    def program(self) -> Program:
        return self._program

    def supports(self, atom: int) -> tuple[frozenset[int], ...]:
        return tuple(sorted(self._chains.get(atom, ()), key=sorted))

    def items(self) -> Iterator[tuple[int, tuple[frozenset[int], ...]]]:
        """`(atom, supports)` for each atom with a support, in atom-id order."""
        for atom in sorted(self._chains):
            yield atom, self.supports(atom)

    def admitted_atoms(self, members: frozenset[int]) -> frozenset[int]:
        """Atoms with a support the interpretation admits."""
        return frozenset(
            atom for atom, chain in self._chains.items()
            if any(not (s & members) for s in chain))

    def certificate(self, atom: int, guard: frozenset[int]) -> ProofTree:
        """The verifying proof `certificates` gives one table entry."""
        if guard not in self._chains.get(atom, ()):
            raise KeyError(f"{guard!r} is not a stored support of atom id {atom}")
        return self.certificates(atom)[guard]

    def certificates(self, atom: int) -> dict[frozenset[int], ProofTree]:
        """Every entry of `atom` with its first proof in lazy enumeration.

        A single lazy-enumeration pass, stopped once every stored guard
        has been seen; the dict lists the guards in order of their first
        appearance in that pass.
        """
        wanted = set(self._chains.get(atom, ()))
        proofs: dict[frozenset[int], ProofTree] = {}
        if not wanted:
            return proofs
        for guard, tree in enumerate_supports(self._program, atom):
            if guard in wanted and guard not in proofs:
                proofs[guard] = tree
                if len(proofs) == len(wanted):
                    return proofs
        raise RuntimeError("stored support missing from lazy enumeration")

    def by_name(self) -> dict:
        """Name-keyed copy, comparable across programs and atom tables."""
        name = self._program.atoms.name
        return {
            name(atom): frozenset(frozenset(name(a) for a in s) for s in chain)
            for atom, chain in self._chains.items()
        }


def saturate_supports(program: Program) -> SupportTable:
    """Exact minimal-support antichains, by semi-naive saturation.

    Purely negative clauses seed their heads.  Every guard inserted into
    an antichain joins a worklist; when it is popped, each clause with
    its atom in the positive body combines it, once, with the settled
    guards of the other body atoms (those popped earlier and not evicted
    since).  A combination of stored guards is thus tried exactly when
    the last of them is popped, and a guard evicted before its turn is
    skipped.  Insertion keeps each antichain pruned: pruning evicts
    dominated guards only, and replacing a sub-derivation by one with a
    smaller guard only shrinks the result, so the fixpoint is exactly the
    family of subset-minimal supports.

    One derivation is one seed clause or one combination of a popped
    guard with settled guards, so the count the table reports grows with
    the supports derived, not with the number of passes a naive fixpoint
    would make.  A clause's negative body joins the popped guard by the
    sharing union, so a one-atom clause with an empty negative body
    stores the popped guard itself, and the unguarded levels of a chain
    share one guard object.  Raises ResourceLimitError when an atom
    would store more than `SUPPORT_CAP` guards (supports can be
    exponentially many).
    """
    antichains: dict[int, list[frozenset[int]]] = {}
    settled: dict[int, list[frozenset[int]]] = {}
    pending: deque[tuple[int, frozenset[int]]] = deque()
    derivations = 0

    def insert(atom: int, guard: frozenset[int]) -> None:
        nonlocal derivations
        derivations += 1
        chain = antichains.setdefault(atom, [])
        if any(map(guard.issuperset, chain)):
            return
        if any(map(guard.issubset, chain)):
            chain[:] = [s for s in chain if not guard <= s]
            settled[atom] = [s for s in settled[atom] if not guard <= s]
        chain.append(guard)
        if len(chain) > SUPPORT_CAP:
            raise ResourceLimitError(
                f"atom {program.atoms.name(atom)!r} exceeds {SUPPORT_CAP} stored supports")
        pending.append((atom, guard))

    clauses = program.clauses
    for clause in clauses:
        settled.setdefault(clause.head, [])
        if not clause.pos_body:
            insert(clause.head, clause.neg_body)
    while pending:
        atom, guard = pending.popleft()
        if guard not in antichains[atom]:
            continue
        for idx in program.clauses_using(atom):
            clause = clauses[idx]
            base = _union(clause.neg_body, guard)
            if len(clause.pos_body) == 1:
                # `base` is the one combination; `base.union()` would copy it, and slower.
                insert(clause.head, base)
                continue
            pools = [settled.get(b, ()) for b in clause.pos_body if b != atom]
            if not all(pools):
                continue
            for combo in product(*pools):
                insert(clause.head, base.union(*combo))
        settled[atom].append(guard)
    return SupportTable(program, antichains, derivations)


def _derive(target: int, clauses_for: Callable[[int], tuple[Clause, ...]],
            branch: set[int]) -> Iterator:
    """One goal of the lazy search: the proofs of `target`, in stream order.

    Yields a proof of `target`, or a `(body atom, goal)` pair that asks the
    driver for that goal's next proof; the driver sends the proof back, or
    None once the goal is exhausted.  `branch` is the driver's set of
    blocked atoms, read whenever a clause is tried.
    """
    for clause in clauses_for(target):
        pos_body = clause.pos_body
        if not pos_body.isdisjoint(branch):
            continue
        leaf = ProofTree(clause)
        if not pos_body:
            yield leaf
            continue
        body = sorted(pos_body)
        # nodes[j] is the clause's leaf resolved against the current proofs
        # of body[:j]; goals[j] produces the proofs of body[j].
        nodes = [leaf]
        goals = [(body[0], _derive(body[0], clauses_for, branch))]
        while goals:
            proof = yield goals[-1]
            if proof is None:
                goals.pop()
                nodes.pop()
                continue
            node = ProofTree.resolve(nodes[-1], proof)
            if len(goals) == len(body):
                yield node
            else:
                nodes.append(node)
                child = body[len(goals)]
                goals.append((child, _derive(child, clauses_for, branch)))


def enumerate_supports(program: Program,
                       atom: int) -> Iterator[tuple[frozenset[int], ProofTree]]:
    """Lazily yield `(guard, proof)` pairs for supports of `atom`.

    Depth-first AND-expansion: clauses are tried in program order and
    body atoms resolved in atom-id order, the last body atom varying
    fastest, and no atom is ever re-derived inside its own derivation
    branch, so the stream terminates.  It still yields every
    subset-minimal support, because a repetition along a branch can only
    enlarge the guard.  Guards may repeat when distinct proofs produce
    the same support.

    Each goal is a `_derive` generator, and this driver keeps the goals
    of the current branch on an explicit stack instead of recursing: it
    runs the goal on top, pushes the goal that one asks for, and hands a
    goal's proof (or its exhaustion) down to the goal below.  The atoms
    on the stack are exactly the ones blocked for the goal on top.
    """
    branch = {atom}
    stack = [(atom, _derive(atom, program.clauses_for, branch))]
    answer = None
    while True:
        target, goal = stack[-1]
        try:
            item = goal.send(answer)
        except StopIteration:
            item = None
        answer = None
        if isinstance(item, tuple):
            stack.append(item)
            branch.add(item[0])
        elif len(stack) > 1:
            stack.pop()
            branch.discard(target)
            answer = item
        elif item is None:
            return
        else:
            yield item.label.neg_body, item


def format_proof(tree: ProofTree, table: AtomTable) -> str:
    """One line per node in `walk()` order, led by the node's depth."""
    names = table.names
    lines: list[str] = []
    for node, depth in tree.walk():
        label = node.label
        guard = ", ".join([names[a] for a in sorted(label.neg_body)])
        if label.pos_body:
            body = ", ".join([names[a] for a in sorted(label.pos_body)])
            lines.append(f"{depth}| {names[label.head]} <- {body} : {{{guard}}}")
        else:
            lines.append(f"{depth}| {names[label.head]} : {{{guard}}}")
    return "\n".join(lines) + "\n"


def proof_to_sexp(tree: ProofTree, table: AtomTable) -> str:
    """S-expression form for machine round-trips; inner labels are implicit.

    In `walk()` order an inner node opens `(step`; each later node follows
    one `)` per level the walk climbs to reach it and a space.
    """
    parts: list[str] = []
    previous = 0
    for node, depth in tree.walk():
        if parts:
            parts.append(")" * (previous - depth) + " ")
        previous = depth
        label = node.label
        if not node.is_leaf:
            parts.append("(step")
            continue
        guard = " ".join(table.name(a) for a in sorted(label.neg_body))
        if label.pos_body:
            body = " ".join(table.name(a) for a in sorted(label.pos_body))
            parts.append(f"(clause {table.name(label.head)} ({body}) ({guard}))")
        else:
            parts.append(f"(atom {table.name(label.head)} ({guard}))")
    parts.append(")" * previous)
    return "".join(parts)


def proof_from_sexp(text: str, table: AtomTable) -> ProofTree:
    """Parse the s-expression form back into a tree.

    The text is read into the flat form (leaf labels, None for each
    `step`), and `_rebuild_proof` resolves the inner labels, so a `step`
    whose parents do not resolve raises ValueError like any parse error.
    """
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
        return frozenset(ids) if ids else EMPTY

    # `missing` counts, per open `(step`, the parents still to come; a
    # step whose last parent is finished closes and is finished in turn.
    shape: list[Clause | None] = []
    missing: list[int] = []
    while True:
        take("(")
        kind = take()
        if kind == "step":
            shape.append(None)
            missing.append(2)
            continue
        if kind not in ("atom", "clause"):
            raise ValueError(f"unknown proof node kind {kind!r}")
        head = atom_id(take())
        body = atom_set() if kind == "clause" else EMPTY
        shape.append(Clause(head, body, atom_set()))
        take(")")
        while missing and missing[-1] == 1:
            missing.pop()
            take(")")
        if not missing:
            break
        missing[-1] -= 1
    if pos != len(tokens):
        raise ValueError("trailing tokens after proof s-expression")
    return _rebuild_proof(tuple(shape))
