"""Two-tier stable-model search: candidate theories over the DPLL backend.

Per atom the search commits to a narrowed defining equation, a
`completion.Equation` with at most one support: `-p`, `p.`, or one
disjunct `p <-> -S` with its verifying proof.  A candidate is the tuple
of those equations, one per atom in id order, and it is also the
certificate of the models it yields.  One helper makes a candidate's
clause list, the program clauses and then each narrowed equation's: a
theory of the class C_P.  `check_candidate` searches that list as
built, and `candidate_cnf` wraps it, duplicates dropped, as the theory
`to-dimacs --candidate` prints.  Every propositional model of a
candidate theory is a stable model, and every stable model satisfies
some candidate, so iterating candidates and enumerating their models is
a sound and complete solver.  The search is one depth-first
walk of the product over atom ids, on an explicit stack, that meets the
candidates in product order.  Each frame of the stack is one depth: the
options left to try there, and two frozensets built once from the frame
above, the atoms placed as `p.` and the atoms held by placed guards.
Backtracking pops a frame, so nothing is ever undone.  The walk cuts a
prefix as soon as a placed guard meets an atom placed as `p.`: under
that prefix `q <-> -S` with `p` in S makes `q` false, so choosing `-q`
instead gives an earlier candidate with a superset of the models, and a
cut prefix never holds the first occurrence of a model.  Only candidates
from outside a solve have their shape checked; the walk's are built
well-formed.  Time is exponential in the worst case;
per-candidate state stays linear in the program plus the certificate
being carried (see SolveStats).  Each `solve_stable` call builds one
clause table from the options before its walk, keyed by a narrowed
equation's atom and support, so each option is encoded once per solve
and every candidate reads those clause lists; nothing writes to the
table after that.  Like the program CNF, it is shared state outside the
per-candidate counter, and it dies with the call.
"""

from __future__ import annotations

__all__ = ("SolveStats", "candidate_cnf", "candidate_theories", "candidate_theory",
           "check_candidate", "format_certificate", "solve_stable")

from collections.abc import Iterator
from itertools import product

from .completion import Equation, format_equation
from .core import Program, Record, format_interpretation
from .guarded import (
    ProofError,
    ProofTree,
    enumerate_supports,  # noqa: F401  perfbench/spans.py traces this name here
    format_proof,
    saturate_supports,
    verify_proof,
)
from .sat import (
    CnfTheory,
    _search,
    enumerate_models,  # noqa: F401  perfbench/spans.py traces this name here
    equation_to_cnf,
    program_to_cnf,
)
from .semantics import is_stable

# Documented bound for the instrumented space check: the per-candidate
# state counter never exceeds this factor times (program size + largest
# certificate size).
STATE_BOUND_FACTOR = 4


def support_subequation(program: Program, atom: int, guard: frozenset[int],
                        proof: ProofTree) -> Equation:
    """`p <-> -S` for one support, once its proof is certified against the program."""
    root = verify_proof(proof, program)
    if root.head != atom or root.neg_body != guard:
        raise ProofError(
            f"proof concludes atom id {root.head} with guard {sorted(root.neg_body)}, "
            f"expected atom id {atom} with guard {sorted(guard)}")
    return Equation(atom, (guard,), (proof,))


class SolveStats(Record):
    """Instrumented per-candidate space accounting.

    `peak_candidate_state` counts, for the costliest candidate processed:
    literals in its subequation clauses, plus its certificate size (one
    unit per subequation, per guard atom, and per proof-tree node), plus
    one unit per atom for the DPLL assignment.  The solver keeps this
    below STATE_BOUND_FACTOR * (program_size + max_certificate_size);
    the shared program CNF, the solve's clause table (each option's
    clauses, built once from the options before the walk and only read
    after it), the walk's frames and the first-candidate map (each model
    found so far to the first candidate that has it) are deliberately
    outside the counter.  Each option's counts come from the same pass
    that builds the table.  `candidates_checked` counts the candidates
    left after pruning, that is, those whose models were enumerated.
    """

    __slots__ = ("program_size", "candidates_checked", "models_emitted",
                 "peak_candidate_state", "max_certificate_size")
    __setattr__ = object.__setattr__  # the counters change in place,
    __delattr__ = object.__delattr__  # so the record is mutable
    __hash__ = None                   # and unhashable

    def __init__(self, program_size=0, candidates_checked=0, models_emitted=0,
                 peak_candidate_state=0, max_certificate_size=0):
        self.program_size = program_size
        self.candidates_checked = candidates_checked
        self.models_emitted = models_emitted
        self.peak_candidate_state = peak_candidate_state
        self.max_certificate_size = max_certificate_size


def _choices(program: Program) -> list[list[Equation]]:
    """Per atom `-p`, then each certified stored support."""
    table = saturate_supports(program)
    choices = []
    for atom in range(len(program.atoms)):
        options = [Equation(atom, ())]
        for guard, proof in table.certificates(atom).items():
            options.append(support_subequation(program, atom, guard, proof))
        choices.append(options)
    return choices


def candidate_theories(program: Program) -> Iterator[tuple[Equation, ...]]:
    """All candidates, lazily, in a fixed deterministic order.

    Per atom the choices are `-p` first, then the subset-minimal supports
    in lazy-enumeration order (each certified by its proof); the product
    varies the highest atom id fastest.  Minimality of the chosen guards
    loses no stable model: an admitted support stays admitted after
    shrinking to a minimal one.
    """
    yield from product(*_choices(program))


def candidate_theory(program: Program, index: int) -> tuple[Equation, ...]:
    """Candidate `index` of `candidate_theories`, without walking the product.

    The index is read in mixed radix, the highest atom id fastest; past
    the product of (1 + stored supports) it raises IndexError.
    """
    combo, rest = [], index
    for options in reversed(_choices(program)):
        rest, digit = divmod(rest, len(options))
        combo.append(options[digit])
    if index < 0 or rest:
        raise IndexError(f"candidate index {index} is out of range")
    return tuple(reversed(combo))


def _candidate_clauses(base: CnfTheory, candidate: tuple[Equation, ...],
                       encoded: dict | None) -> list:
    """The clauses of `base`, then the clauses of each narrowed equation,
    read from `encoded` as in `check_candidate`.  Without a table the
    candidate comes from outside a solve, so its shape is checked first."""
    n = len(base.atoms)
    if encoded is None:
        # An equation with two or more supports drops out, so the ids then differ.
        narrowed = [equation.atom for equation in candidate if len(equation.supports) < 2]
        if narrowed != list(range(n)):
            raise ValueError("candidate needs exactly one narrowed equation per atom, in order")
    clauses = list(base.clauses)
    for equation in candidate:
        key = equation.atom, equation.supports
        clauses.extend(equation_to_cnf(*key, n) if encoded is None else encoded[key])
    return clauses


def candidate_cnf(base: CnfTheory, candidate: tuple[Equation, ...]) -> CnfTheory:
    """The candidate theory over the program CNF `base`, duplicate clauses
    dropped, as `to-dimacs --candidate` prints it."""
    return CnfTheory(base.atoms, _candidate_clauses(base, candidate, None))


def check_candidate(program: Program, base: CnfTheory,
                    candidate: tuple[Equation, ...], *,
                    encoded: dict | None = None) -> list[frozenset[int]]:
    """Models of one candidate over the program CNF `base`; each re-checked stable.

    The search reads the candidate's clause list as built: a duplicate
    clause changes no model, so none is dropped.  `encoded` is one
    solve's clause table, `(atom, supports) -> clauses`, built once from
    the options and only read here: an equation missing from it raises
    KeyError.  Without it, the candidate's shape is checked (ValueError
    unless one narrowed equation per atom, in id order) and each
    equation is encoded afresh.
    """
    n = len(base.atoms)
    clauses = _candidate_clauses(base, candidate, encoded)
    # Highest id down, as `enumerate_models` branches: ascending bitmask order.
    models = list(_search(n, clauses, range(n - 1, -1, -1)))
    for members in models:
        if not is_stable(program, members):
            raise RuntimeError(
                "candidate produced the non-stable model "
                f"{format_interpretation(program.atoms, members)}")
    return models


def _walk(choices: list[list[Equation]]) -> Iterator[tuple[Equation, ...]]:
    """The candidates of `product(*choices)` in its order, minus every cut prefix.

    Depth-first over the atoms with more than one option, on an explicit
    stack; an atom with only `-p` keeps it and never cuts.  A frame holds
    the options left at its depth, the atoms placed as `p.` above it and
    the atoms held by guards placed above it; placing an option builds
    the next frame, and a depth with no options left is popped.  A
    prefix is cut when a placed guard meets an atom placed as `p.`,
    checked when the later of the two is placed.
    """
    combo = [options[0] for options in choices]
    branching = [atom for atom, options in enumerate(choices) if len(options) > 1]
    if not branching:
        yield tuple(combo)
        return
    last = len(branching) - 1
    stack = [(iter(choices[branching[0]]), frozenset(), frozenset())]
    while stack:
        options, facts, held = stack[-1]
        equation = next(options, None)
        if equation is None:
            stack.pop()
            continue
        depth = len(stack) - 1
        atom = branching[depth]
        if equation.supports:
            guard = equation.supports[0]
            if guard:
                if not facts.isdisjoint(guard):
                    continue
                held = held | guard
            elif atom in held:
                continue
            else:
                facts = facts | {atom}
        # Every deeper atom is placed again before the next yield.
        combo[atom] = equation
        if depth == last:
            yield tuple(combo)
        else:
            stack.append((iter(choices[branching[depth + 1]]), facts, held))


def solve_stable(program: Program, limit: int | None = None, *,
                 stats: SolveStats | None = None) -> list:
    """Stable models with certificates, deduplicated, in candidate order.

    Returns `(model, candidate)` pairs; the candidate is the tuple of the
    chosen equation per atom, with the verifying proof tree of every
    positive choice.  Each model is paired with the first candidate that
    has it.  Candidates are walked once, in product order, and a prefix
    is cut when its candidates only repeat models already emitted (see
    the module docstring).  `limit` stops after that many distinct models.
    """
    if stats is not None:
        stats.program_size = program.size()
    if limit is not None and limit <= 0:
        return []
    n = len(program.atoms)
    base = program_to_cnf(program)
    choices = _choices(program)
    encoded = {}  # this solve's clause table; see `check_candidate`
    costs = {}    # each option's `(clause literals, certificate units)`
    for options in choices:
        for eq in options:
            key = eq.atom, eq.supports
            clauses = encoded[key] = equation_to_cnf(eq.atom, eq.supports, n)
            if stats is not None:
                # One certificate unit per equation, guard atom, and proof-tree node.
                units = 1 + sum(map(len, eq.supports)) + sum(proof.size() for proof in eq.proofs)
                costs[key] = sum(map(len, clauses)), units
    firsts = {}  # each model found so far -> the first candidate that has it
    for candidate in _walk(choices):
        if stats is not None:
            stats.candidates_checked += 1
            literals = certificate = 0
            for eq in candidate:
                option_literals, option_units = costs[eq.atom, eq.supports]
                literals += option_literals
                certificate += option_units
            stats.peak_candidate_state = max(stats.peak_candidate_state,
                                             literals + certificate + n)
            stats.max_certificate_size = max(stats.max_certificate_size, certificate)
        for model in check_candidate(program, base, candidate, encoded=encoded):
            firsts.setdefault(model, candidate)
        if limit is not None and len(firsts) >= limit:
            break
    results = list(firsts.items())[:limit]
    if stats is not None:
        stats.models_emitted = len(results)
    return results


def format_certificate(program: Program, model: frozenset[int],
                       candidate: tuple[Equation, ...]) -> str:
    """Per-model block: the chosen equations, each proof under its choice."""
    table = program.atoms
    lines = [f"model {format_interpretation(table, model)}"]
    for equation in candidate:
        lines.append("  " + format_equation(equation, table))
        for proof in equation.proofs:
            for line in format_proof(proof, table).splitlines():
                lines.append("    " + line)
    return "".join(line + "\n" for line in lines)
