"""Defining equations, their models, and the purely negative transform.

Each atom gets one equation over its minimal supports — `p` when the
empty guard supports it, `-p` when nothing does, and `p <-> -S1 | -S2 |
...` otherwise — and the models of the resulting theory are exactly the
stable models.  Dropping non-minimal supports is sound because avoiding
a set means avoiding all its subsets, so dominated disjuncts are
subsumed.

The models come from one SAT search over the equations' linear chain
encoding (`sat.equation_to_cnf`); its auxiliary atoms follow the
program's atoms and are projected away, with no limit on the atom count.
The theory E_P is the tuple of the equations, one per atom in id order.
A candidate (`solver.py`) narrows each equation to `-p`, `p.` or one
disjunct `p <-> -S` with its proof; it is a tuple of `Equation`s too.
"""

from __future__ import annotations

__all__ = ("Equation", "build_completion", "dung_transform", "equivalent",
           "format_equation", "format_equations", "models_of_completion")

from .core import EMPTY, AtomTable, Clause, Program, Record, set_field
from .guarded import saturate_supports
from .sat import CnfTheory, enumerate_models, equation_to_cnf
from .semantics import brute_force_stable


class Equation(Record):
    """Defining equation of one atom; `proofs` verify its supports in order, or are `()`."""

    __slots__ = ("atom", "supports", "proofs")

    def __init__(self, atom: int, supports: tuple, proofs: tuple = ()):
        set_field(self, "atom", atom)
        set_field(self, "supports", supports)
        set_field(self, "proofs", proofs)

    def holds_in(self, members: frozenset[int]) -> bool:
        """Direct semantic reading: the atom holds iff some support is avoided."""
        admitted = any(not (s & members) for s in self.supports)
        return (self.atom in members) == admitted


def format_equation(equation: Equation, table: AtomTable) -> str:
    name = table.name(equation.atom)
    supports = equation.supports
    if not supports:
        return f"-{name}."
    if not supports[0]:
        # The empty guard subsumes everything, so it is the whole antichain.
        return f"{name}."
    disjuncts = [
        " & ".join(f"-{table.name(a)}" for a in sorted(support))
        for support in supports
    ]
    return f"{name} <-> " + " | ".join(disjuncts)


def format_equations(equations: tuple[Equation, ...], table: AtomTable) -> str:
    """One equation per line."""
    return "".join(format_equation(equation, table) + "\n" for equation in equations)


def build_completion(program: Program) -> tuple[Equation, ...]:
    """Saturate supports; one equation per atom of the program, in atom-id order."""
    table = saturate_supports(program)
    return tuple(Equation(atom, table.supports(atom)) for atom in range(len(program.atoms)))


def models_of_completion(program: Program,
                         equations: tuple[Equation, ...]) -> list[frozenset[int]]:
    """All interpretations satisfying every equation, in bitmask order.

    The chain atoms get ids after the program's and names longer than any
    program name, so no name is shared.  Each model of the program atoms
    extends to exactly one model of the chains, so projecting loses none.
    Branching on the program atoms from the highest id down, then on the
    chain atoms (propagation has already fixed them), keeps that order.
    """
    names = program.atoms.names
    n = len(names)
    clauses = []
    next_aux = n
    for equation in equations:
        clauses.extend(equation_to_cnf(equation.atom, equation.supports, next_aux))
        next_aux += max(len(equation.supports) - 1, 0)
    prefix = "_" * (max(map(len, names), default=0) + 1)
    table = AtomTable([*names, *(f"{prefix}{i}" for i in range(next_aux - n))])
    order = [*range(n - 1, -1, -1), *range(n, next_aux)]
    program_atoms = frozenset(range(n))
    return [model & program_atoms
            for model in enumerate_models(CnfTheory(table, clauses), order)]


def dung_transform(program: Program) -> Program:
    """Equivalent purely negative program: one clause per minimal support."""
    table = saturate_supports(program)
    clauses = [
        Clause(atom, EMPTY, support)
        for atom in range(len(program.atoms))
        for support in table.supports(atom)
    ]
    return Program(program.atoms, clauses)


def _stable_name_sets(program: Program) -> set:
    name = program.atoms.name
    return {
        frozenset(name(a) for a in model)
        for model in brute_force_stable(program)
    }


def equivalent(program: Program, other: Program) -> bool:
    """Same stable models, compared by atom name across the two tables."""
    return _stable_name_sets(program) == _stable_name_sets(other)
