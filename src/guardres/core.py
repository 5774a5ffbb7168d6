"""Atoms, clauses, programs, and interpretations shared by every engine.

Atoms are interned to dense integer ids once per program; every other
module manipulates interpretations, bodies, and guards as frozensets of
those ids and goes through the atom table only to read or print names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class ResourceLimitError(RuntimeError):
    """A configurable work limit (enumeration cap, support cap) was hit."""


class AtomTable:
    """Interner mapping atom names to dense ids; bijective, freezable."""

    __slots__ = ("_names", "_ids", "_frozen")

    def __init__(self, names: Iterable[str] = ()):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._frozen = False
        for name in names:
            self.intern(name)

    def intern(self, name: str) -> int:
        """Return the id of the atom named `name`, interning it if unseen."""
        idx = self._ids.get(name)
        if idx is not None:
            return idx
        if not _IDENT_RE.match(name):
            raise ValueError(f"invalid atom name {name!r}")
        if self._frozen:
            raise ValueError(f"atom table is frozen, cannot intern {name!r}")
        idx = len(self._names)
        self._names.append(name)
        self._ids[name] = idx
        return idx

    def freeze(self) -> None:
        self._frozen = True

    def id_of(self, name: str) -> int:
        return self._ids[name]

    def name(self, atom_id: int) -> str:
        return self._names[atom_id]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def __len__(self) -> int:
        return len(self._names)


# An interpretation is a plain frozenset of atom ids.
Interpretation = frozenset


@dataclass(frozen=True, slots=True)
class Clause:
    """`head :- posBody, not negBody`; the two bodies may overlap."""

    head: int
    pos_body: frozenset[int]
    neg_body: frozenset[int]


class Program:
    """An ordered, duplicate-free sequence of clauses over a frozen atom table."""

    __slots__ = ("atoms", "clauses", "_by_head")

    def __init__(self, atoms: AtomTable, clauses: Iterable[Clause]):
        atoms.freeze()
        n = len(atoms)
        seen: set[Clause] = set()
        kept: list[Clause] = []
        for clause in clauses:
            for atom_id in (clause.head, *clause.pos_body, *clause.neg_body):
                if not 0 <= atom_id < n:
                    raise ValueError(f"clause uses unregistered atom id {atom_id}")
            if clause in seen:
                continue
            seen.add(clause)
            kept.append(clause)
        self.atoms = atoms
        self.clauses: tuple[Clause, ...] = tuple(kept)
        by_head: dict[int, list[Clause]] = {}
        for clause in self.clauses:
            by_head.setdefault(clause.head, []).append(clause)
        self._by_head = {head: tuple(cs) for head, cs in by_head.items()}

    def clauses_for(self, atom_id: int) -> tuple[Clause, ...]:
        """Clauses with the given head, in program order."""
        return self._by_head.get(atom_id, ())

    def size(self) -> int:
        """Atom count plus total literal occurrences, heads included."""
        return len(self.atoms) + sum(
            1 + len(c.pos_body) + len(c.neg_body) for c in self.clauses)


def satisfies_clause(members: frozenset[int], clause: Clause) -> bool:
    """False exactly when the body holds under `members` but the head does not."""
    body_holds = clause.pos_body <= members and not (clause.neg_body & members)
    return clause.head in members or not body_holds


def satisfies_program(members: frozenset[int], program: Program) -> bool:
    return all(satisfies_clause(members, c) for c in program.clauses)


def interpretation(table: AtomTable, names: Iterable[str]) -> frozenset[int]:
    """Build an interpretation from atom names (all must be interned)."""
    return frozenset(table.id_of(name) for name in names)


def format_interpretation(table: AtomTable, members: frozenset[int]) -> str:
    """`{a, b}` with member names in alphabetical order."""
    return "{" + ", ".join(sorted(table.name(a) for a in members)) + "}"


def interpretation_key(members: frozenset[int]) -> int:
    """Bitmask with bit i set iff atom id i is a member; the canonical order."""
    key = 0
    for atom_id in members:
        key |= 1 << atom_id
    return key


def all_interpretations(atom_count: int) -> Iterator[frozenset[int]]:
    """Every subset of `range(atom_count)` in ascending bitmask order."""
    for mask in range(1 << atom_count):
        yield frozenset(i for i in range(atom_count) if (mask >> i) & 1)
