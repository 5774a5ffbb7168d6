"""Propositional layer: CNF theories, a plain DPLL solver, DIMACS export.

Literals are `(atom_id, polarity)` pairs, and a CNF clause is the
frozenset of its literals.  The solver is deliberately minimal — unit
propagation over per-literal occurrence lists plus chronological
backtracking on an explicit trail, with a static branching order, each
atom false first — so model orders are reproducible and golden tests
stay byte-stable.  A search takes an atom count and a clause sequence
and indexes the clauses as given, in one pass that builds occurrence
lists, collects the unit literals and notes an empty clause; an empty
clause means "no model" only once every literal is known to lie inside
the theory.  `dpll_solve` adds its assumptions as unit clauses after the
theory's own and branches from the lowest atom id up.
Enumeration is the same search continued past each model, with no
blocking clauses, no restarts and no sort: branching from the highest id
down, it meets the models in ascending bitmask order.  A defining
equation is encoded linearly, through a chain of auxiliary atoms
(`equation_to_cnf`); a candidate theory's narrowed equation is the same
chain at length one, which needs no auxiliary atom.
"""

from __future__ import annotations

__all__ = ("CnfTheory", "dpll_solve", "enumerate_models", "export_dimacs",
           "parse_dimacs", "program_to_cnf")

from collections.abc import Iterable, Iterator, Mapping, Sequence

from .core import AtomTable, Program

# (atom id, polarity); (3, False) reads "atom 3 is false".
Literal = tuple


def make_clause(literals: Iterable[Literal]) -> frozenset[Literal] | None:
    """Normalize a literal collection; None when the clause is a tautology."""
    lits = frozenset(literals)
    for atom, polarity in lits:
        if (atom, not polarity) in lits:
            return None
    return lits


class CnfTheory:
    """Duplicate-free clause list over a shared atom table.

    Clause order is preserved, first occurrence winning.
    """

    __slots__ = ("atoms", "clauses")

    def __init__(self, atoms: AtomTable, clauses: Iterable[frozenset[Literal]]):
        atoms.freeze()
        self.atoms = atoms
        self.clauses: tuple[frozenset[Literal], ...] = tuple(dict.fromkeys(clauses))

    @classmethod
    def from_literals(cls, atoms: AtomTable,
                      clause_lists: Iterable[Iterable[Literal]]) -> "CnfTheory":
        """One clause per literal list; tautologies are dropped silently."""
        clauses = (make_clause(lits) for lits in clause_lists)
        return cls(atoms, (c for c in clauses if c is not None))


def clause_satisfied(clause: frozenset[Literal], members: frozenset[int]) -> bool:
    return any((atom in members) == polarity for atom, polarity in clause)


def program_to_cnf(program: Program) -> CnfTheory:
    """One clause per program clause: break the body, assert the head."""
    clause_lists = []
    for clause in program.clauses:
        lits = [(q, False) for q in clause.pos_body]
        lits += [(r, True) for r in clause.neg_body]
        lits.append((clause.head, True))
        clause_lists.append(lits)
    return CnfTheory.from_literals(program.atoms, clause_lists)


def equation_to_cnf(atom: int, supports: tuple,
                    first_aux: int) -> list[frozenset[Literal]]:
    """Clauses for `p <-> (-S1 | -S2 | ... | -Sk)` over a support antichain.

    No support gives `-p`.  Otherwise a chain of auxiliary atoms, ids
    `first_aux .. first_aux + k - 2`, reads `c_j <-> c_{j-1} & (S_j is
    hit)` with `c_0 = p`; `c_{k-1}` with `S_k` hit is false, and `p | S_j`
    holds for every j.  That is linear in the antichain: k + sum_{j<k}
    (|S_j| + 2) + |S_k| clauses, none a tautology.  A narrowed equation
    is the chain with k = 1, which has no auxiliary atom: `-p | -r` per r
    in S, then `p | S`, which is just `p` for the empty guard.  Once the
    atoms of `p` and of the guards are set, unit propagation fixes every
    `c_j`, so each model of the equation has exactly one extension to the
    chain.
    """
    if not supports:
        return [frozenset([(atom, False)])]
    *links, last = supports
    clauses = []
    previous = atom
    for aux, support in enumerate(links, first_aux):
        clauses.append(frozenset([(aux, False), (previous, True)]))
        clauses.append(frozenset([(aux, False)] + [(r, True) for r in support]))
        clauses += [frozenset([(previous, False), (r, False), (aux, True)])
                    for r in sorted(support)]
        previous = aux
    clauses += [frozenset([(previous, False), (r, False)]) for r in sorted(last)]
    for support in supports:
        clauses.append(frozenset([(atom, True)] + [(r, True) for r in support]))
    return clauses


def _compile(n: int, clauses: Sequence[frozenset[Literal]]
             ) -> tuple[list[tuple[list[int], list[int]]], list[Literal], bool]:
    """One pass over the clauses of an `n`-atom theory, indexed as given:
    `falsified_by[atom][value]`, the indices of the clauses holding the
    literal that `atom = value` makes false, i.e. the only clauses that
    assignment can turn unit or falsified; the literals of the unit
    clauses, in clause order; and whether some clause is empty.  A
    literal outside the theory raises, even after an empty clause."""
    falsified_by: list[tuple[list[int], list[int]]] = [([], []) for _ in range(n)]
    units = []
    empty = False
    for index, clause in enumerate(clauses):
        size = len(clause)
        if size == 1:
            units.extend(clause)
        elif not size:
            empty = True
        for atom, polarity in clause:
            if not 0 <= atom < n:
                raise ValueError(f"literal on atom id {atom} outside the theory")
            falsified_by[atom][not polarity].append(index)
    return falsified_by, units, empty


def _assign(atom: int, value: bool, clauses: Sequence[frozenset[Literal]],
            falsified_by: list[tuple[list[int], list[int]]],
            values: list[bool | None], trail: list[int]) -> bool:
    """Set `atom`, push it on `trail`, and extend `values` to unit closure.

    False on a conflict; the trail then holds a partial closure, which the
    caller undoes.
    """
    values[atom] = value
    head = len(trail)
    trail.append(atom)
    while head < len(trail):
        current = trail[head]
        head += 1
        for index in falsified_by[current][values[current]]:
            free = None
            for lit_atom, polarity in clauses[index]:
                lit_value = values[lit_atom]
                if lit_value is None:
                    if free is not None:
                        break
                    free = lit_atom, polarity
                elif lit_value == polarity:
                    break
            else:
                if free is None:
                    return False
                values[free[0]] = free[1]
                trail.append(free[0])
    return True


def _search(n: int, clauses: Sequence[frozenset[Literal]],
            order: Sequence[int]) -> Iterator[frozenset[int]]:
    """Yield every model of `clauses`, over atom ids `0 .. n - 1`, depth first.

    One search per call: the clauses are compiled once, assignments live
    on an explicit trail, and after each total model the search simply
    backtracks and continues.  Branching takes the first unassigned atom
    of `order`, a permutation of the atom ids, false first, so the models
    arrive in lexicographic order over `order`, false before true.
    """
    falsified_by, units, empty = _compile(n, clauses)
    if empty:
        return
    values: list[bool | None] = [None] * n
    trail: list[int] = []
    # A set atom agrees with its unit: `_assign` meets an opposite unit's clause.
    for atom, value in units:
        if values[atom] is None:
            if not _assign(atom, value, clauses, falsified_by, values, trail):
                return

    # Open decisions as (trail length before it, its position in `order`); each holds false.
    decisions: list[tuple[int, int]] = []
    while True:
        pos = decisions[-1][1] + 1 if decisions else 0
        while pos < n and values[order[pos]] is not None:
            pos += 1
        if pos == n:
            yield frozenset(atom for atom in range(n) if values[atom])
        else:
            decisions.append((len(trail), pos))
            if _assign(order[pos], False, clauses, falsified_by, values, trail):
                continue
        # Chronological backtracking: flip the newest open decision to
        # true, as an implied literal of the level below it.
        while True:
            if not decisions:
                return
            mark, pos = decisions.pop()
            for atom in trail[mark:]:
                values[atom] = None
            del trail[mark:]
            if _assign(order[pos], True, clauses, falsified_by, values, trail):
                break


def dpll_solve(theory: CnfTheory,
               assumptions: Mapping[int, bool] | None = None) -> dict | None:
    """A total satisfying assignment extending `assumptions`, or None.

    Deterministic: the assumptions, checked to lie inside the theory, are
    unit clauses after the theory's own; propagate to closure, then branch
    on the lowest unassigned atom id with false first.
    """
    n = len(theory.atoms)
    roots = []
    for atom, value in (assumptions or {}).items():
        if not 0 <= atom < n:
            raise ValueError(f"assumption on atom id {atom} outside the theory")
        roots.append(frozenset([(atom, bool(value))]))
    model = next(_search(n, (*theory.clauses, *roots), range(n)), None)
    if model is None:
        return None
    return {atom: atom in model for atom in range(n)}


def enumerate_models(theory: CnfTheory,
                     order: Sequence[int] | None = None) -> list[frozenset[int]]:
    """All models, from one continuing search that branches in `order`.

    The default order, from the highest atom id down, meets the models in
    ascending bitmask order.
    """
    n = len(theory.atoms)
    if order is not None and sorted(order) != list(range(n)):
        raise ValueError("branching order is not a permutation of the atom ids")
    return list(_search(n, theory.clauses, range(n - 1, -1, -1) if order is None else order))


def export_dimacs(theory: CnfTheory) -> str:
    """Standard DIMACS text: name-map comments, header, one clause per line.

    Variables are 1-based in atom-id order; literals within a clause are
    sorted by atom id.
    """
    n = len(theory.atoms)
    lines = [f"c {i + 1} {name}" for i, name in enumerate(theory.atoms.names)]
    lines.append(f"p cnf {n} {len(theory.clauses)}")
    for clause in theory.clauses:
        lits = sorted(clause)
        encoded = [str(atom + 1 if polarity else -(atom + 1)) for atom, polarity in lits]
        lines.append(" ".join(encoded + ["0"]))
    return "".join(line + "\n" for line in lines)


def parse_dimacs(text: str) -> CnfTheory:
    """Parse DIMACS CNF back into a theory; `c <idx> <name>` comments name atoms.

    One clause per line.  Raises ValueError on a malformed or repeated
    header, on a clause line with a 0 before its end, on a clause count
    other than the header's (counted before duplicates and tautologies are
    dropped), and on a literal or a name comment outside the variables.
    """
    names: dict[int, str] = {}
    clause_lists: list[list[Literal]] = []
    header: tuple[int, int] | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            parts = line.split()
            if len(parts) == 3 and parts[1].isdigit():
                names[int(parts[1]) - 1] = parts[2]
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"malformed DIMACS header: {line!r}")
            if header is not None:
                raise ValueError(f"second DIMACS header: {line!r}")
            header = int(parts[2]), int(parts[3])
            continue
        values = [int(tok) for tok in line.split()]
        if not values or values[-1] != 0:
            raise ValueError(f"clause line does not end with 0: {line!r}")
        if 0 in values[:-1]:
            raise ValueError(f"clause line has a 0 before its end: {line!r}")
        clause_lists.append(
            [(abs(v) - 1, v > 0) for v in values[:-1]])
    if header is None:
        raise ValueError("missing DIMACS header")
    var_count, clause_count = header
    if var_count < 0:
        raise ValueError(f"negative DIMACS variable count: {var_count}")
    if len(clause_lists) != clause_count:
        raise ValueError(
            f"{len(clause_lists)} clause lines, but the header says {clause_count}")
    for lits in clause_lists:
        for atom, polarity in lits:
            if atom >= var_count:
                literal = atom + 1 if polarity else -(atom + 1)
                raise ValueError(
                    f"literal {literal} is beyond the header's {var_count} variables")
    for atom in names:
        if not 0 <= atom < var_count:
            raise ValueError(
                f"name comment for variable {atom + 1} is outside 1..{var_count}")
    ordered = [names.get(i, f"v{i + 1}") for i in range(var_count)]
    table = AtomTable(ordered)
    if len(table) < var_count:
        # Ids match positions up to the first repeat.
        repeated = next(name for i, name in enumerate(ordered) if table.id_of(name) != i)
        raise ValueError(f"atom name {repeated!r} names two DIMACS variables")
    return CnfTheory.from_literals(table, clause_lists)
