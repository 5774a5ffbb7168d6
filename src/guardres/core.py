"""Atoms, clauses, programs, and interpretations shared by every engine.

Atoms are interned to dense integer ids once per program; every other
module manipulates interpretations, bodies, and guards as frozensets of
those ids and goes through the atom table only to read or print names.
Every empty body or guard the package builds is the one frozenset
`EMPTY`, so a program or proof holds no per-clause empty sets.
"""

from __future__ import annotations

__all__ = ("AtomTable", "Clause", "Program", "ResourceLimitError",
           "all_interpretations", "format_interpretation", "interpretation",
           "satisfies_clause", "satisfies_program")

import re
from collections.abc import Iterable, Iterator
from operator import attrgetter

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

EMPTY: frozenset[int] = frozenset()


class ResourceLimitError(RuntimeError):
    """A configurable work limit (enumeration cap, support cap) was hit."""


set_field = object.__setattr__  # how a record's `__init__` sets each field, once


class Record:
    """Immutable value record over `__slots__`.

    Within one type, records are equal when their fields are, and hash by
    the tuple of their fields.  Each class gets one field getter,
    `operator.attrgetter` over its slots (two or more, so the getter
    returns a tuple), which equality, hashing, `repr` and pickling all
    read unless the class defines its own.  A theory is not a record but
    a tuple of `completion.Equation` records.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = attrgetter(*cls.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, self.__slots__, self._fields(self))
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._fields(self)


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


class Clause(Record):
    """`head :- posBody, not negBody`; the two bodies may overlap."""

    __slots__ = ("head", "pos_body", "neg_body")

    def __init__(self, head: int, pos_body: frozenset[int], neg_body: frozenset[int]):
        set_field(self, "head", head)
        set_field(self, "pos_body", pos_body)
        set_field(self, "neg_body", neg_body)


class Program:
    """An ordered, duplicate-free sequence of clauses over a frozen atom table."""

    __slots__ = ("atoms", "clauses", "_by_head", "_using")

    def __init__(self, atoms: AtomTable, clauses: Iterable[Clause]):
        atoms.freeze()
        n = len(atoms)
        self.atoms = atoms
        self.clauses: tuple[Clause, ...] = tuple(dict.fromkeys(clauses))
        by_head: dict[int, list[Clause]] = {}
        using: dict[int, list[int]] = {}
        for idx, clause in enumerate(self.clauses):
            for atom_id in (clause.head, *clause.pos_body, *clause.neg_body):
                if not 0 <= atom_id < n:
                    raise ValueError(f"clause uses unregistered atom id {atom_id}")
            by_head.setdefault(clause.head, []).append(clause)
            for atom_id in clause.pos_body:
                using.setdefault(atom_id, []).append(idx)
        self._by_head = {head: tuple(cs) for head, cs in by_head.items()}
        self._using = {atom_id: tuple(ids) for atom_id, ids in using.items()}

    def clauses_for(self, atom_id: int) -> tuple[Clause, ...]:
        """Clauses with the given head, in program order."""
        return self._by_head.get(atom_id, ())

    def clauses_using(self, atom_id: int) -> tuple[int, ...]:
        """Positions in `clauses` of the clauses with the atom in the positive body."""
        return self._using.get(atom_id, ())

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


def all_interpretations(atom_count: int) -> Iterator[frozenset[int]]:
    """Every subset of `range(atom_count)` in ascending bitmask order."""
    for mask in range(1 << atom_count):
        yield frozenset(i for i in range(atom_count) if (mask >> i) & 1)
