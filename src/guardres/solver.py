"""Two-tier stable-model search: candidate theories over the DPLL backend.

Per atom the search commits to a narrowed defining equation, a
`completion.Equation` with at most one support: `-p`, `p.`, or one
disjunct `p <-> -S` with its verifying proof.  The program clauses plus
one such equation per atom form a candidate theory.  Every propositional
model of a candidate is a stable model, and every stable model satisfies
some candidate, so iterating candidates and enumerating their models is
a sound and complete solver.  The search is one sequential walk of the
candidates in product order; it skips a candidate whose chosen guard
meets an atom another choice forces true, because such a candidate only
repeats models of an earlier one.  Time is exponential in the worst
case; per-candidate state stays linear in the program plus the
certificate being carried (see SolveStats).
"""

from __future__ import annotations

__all__ = ("CandidateTheory", "SolveStats", "candidate_theories", "candidate_theory",
           "check_candidate", "format_certificate", "solve_stable")

from collections.abc import Iterator
from itertools import product

from .completion import Equation, format_equation
from .core import Program, Record, format_interpretation, set_field
from .guarded import (
    ProofError,
    ProofTree,
    enumerate_supports,  # noqa: F401  perfbench/spans.py traces this name here
    format_proof,
    saturate_supports,
    verify_proof,
)
from .sat import CnfTheory, enumerate_models, equation_to_cnf, program_to_cnf
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


class CandidateTheory(Record):
    """Program CNF plus one narrowed equation per atom, in id order; equal by content."""

    __slots__ = ("base", "subequations")
    _key = ("subequations", "base.clauses")

    def __init__(self, base: CnfTheory, subequations: tuple):
        # An equation with two or more supports drops out, so the ids then differ.
        narrowed = [se.atom for se in subequations if len(se.supports) < 2]
        if narrowed != list(range(len(base.atoms))):
            raise ValueError("candidate needs exactly one narrowed equation per atom, in order")
        set_field(self, "base", base)
        set_field(self, "subequations", subequations)

    def to_cnf(self) -> CnfTheory:
        clauses = list(self.base.clauses)
        n = len(self.base.atoms)
        for se in self.subequations:
            clauses.extend(equation_to_cnf(se.atom, se.supports, n))
        return CnfTheory(self.base.atoms, clauses)

    def certificate_size(self) -> int:
        """One unit per equation, guard atom, and proof-tree node."""
        total = 0
        for se in self.subequations:
            total += 1 + sum(map(len, se.supports))
            for proof in se.proofs:
                total += proof.size()
        return total


class SolveStats(Record):
    """Instrumented per-candidate space accounting.

    `peak_candidate_state` counts, for the costliest candidate processed:
    literals in its subequation clauses, plus its certificate size (one
    unit per subequation, per guard atom, and per proof-tree node), plus
    one unit per atom for the DPLL assignment.  The solver keeps this
    below STATE_BOUND_FACTOR * (program_size + max_certificate_size);
    the shared program CNF and the emitted-model set are deliberately
    outside the counter.  `candidates_checked` counts the candidates
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


def _choices(program: Program) -> tuple[CnfTheory, list[list[Equation]]]:
    """Program CNF, and per atom `-p` then each certified stored support."""
    base = program_to_cnf(program)
    table = saturate_supports(program)
    choices = []
    for atom in range(len(program.atoms)):
        options = [Equation(atom, ())]
        for guard, proof in table.certificates(atom).items():
            options.append(support_subequation(program, atom, guard, proof))
        choices.append(options)
    return base, choices


def candidate_theories(program: Program) -> Iterator[CandidateTheory]:
    """All candidate theories, lazily, in a fixed deterministic order.

    Per atom the choices are `-p` first, then the subset-minimal supports
    in lazy-enumeration order (each certified by its proof); the product
    varies the highest atom id fastest.  Minimality of the chosen guards
    loses no stable model: an admitted support stays admitted after
    shrinking to a minimal one.
    """
    base, choices = _choices(program)
    for combo in product(*choices):
        yield CandidateTheory(base, combo)


def candidate_theory(program: Program, index: int) -> CandidateTheory:
    """Candidate `index` of `candidate_theories`, without walking the product.

    The index is read in mixed radix, the highest atom id fastest; past
    the product of (1 + stored supports) it raises IndexError.
    """
    base, choices = _choices(program)
    combo, rest = [], index
    for options in reversed(choices):
        rest, digit = divmod(rest, len(options))
        combo.append(options[digit])
    if index < 0 or rest:
        raise IndexError(f"candidate index {index} is out of range")
    return CandidateTheory(base, tuple(reversed(combo)))


def check_candidate(program: Program, candidate: CandidateTheory) -> list[frozenset[int]]:
    """Models of one candidate; each is re-checked stable before returning."""
    models = enumerate_models(candidate.to_cnf())
    for members in models:
        if not is_stable(program, members):
            raise RuntimeError(
                "candidate produced the non-stable model "
                f"{format_interpretation(program.atoms, members)}")
    return models


def _prunable(candidate: CandidateTheory) -> bool:
    """Chosen guard mentions an atom another choice forces true.

    Such a choice `q <-> -S` makes `q` false in every model.  Choosing
    `-q` instead gives an earlier candidate in product order with a
    superset of the models, so a pruned candidate never holds the first
    occurrence of a model.
    """
    forced_true = {
        se.atom for se in candidate.subequations
        if se.supports and not se.supports[0]
    }
    return any(se.supports and (se.supports[0] & forced_true) for se in candidate.subequations)


def _account(stats: SolveStats | None, program: Program,
             candidate: CandidateTheory) -> None:
    if stats is None:
        return
    stats.candidates_checked += 1
    n = len(program.atoms)
    subeq_literals = sum(len(c) for se in candidate.subequations
                         for c in equation_to_cnf(se.atom, se.supports, n))
    certificate = candidate.certificate_size()
    state = subeq_literals + certificate + n
    stats.peak_candidate_state = max(stats.peak_candidate_state, state)
    stats.max_certificate_size = max(stats.max_certificate_size, certificate)


def solve_stable(program: Program, limit: int | None = None, *,
                 stats: SolveStats | None = None) -> list:
    """Stable models with certificates, deduplicated, in candidate order.

    Returns `(model, candidate)` pairs; the candidate carries the chosen
    subequation per atom and the verifying proof tree for every positive
    choice.  Each model is paired with the first candidate that has it.
    Candidates are walked once, in product order; prunable ones are
    skipped because they only repeat models already emitted.  `limit`
    stops after that many distinct models.
    """
    if stats is not None:
        stats.program_size = program.size()
    if limit is not None and limit <= 0:
        return []
    results = []
    emitted: set[frozenset[int]] = set()
    for candidate in candidate_theories(program):
        if _prunable(candidate):
            continue
        _account(stats, program, candidate)
        for model in check_candidate(program, candidate):
            if model not in emitted:
                emitted.add(model)
                results.append((model, candidate))
        if limit is not None and len(results) >= limit:
            del results[limit:]
            break
    if stats is not None:
        stats.models_emitted = len(results)
    return results


def format_certificate(program: Program, model: frozenset[int],
                       candidate: CandidateTheory) -> str:
    """Per-model block: the chosen equations, each proof under its choice."""
    table = program.atoms
    lines = [f"model {format_interpretation(table, model)}"]
    for equation in candidate.subequations:
        lines.append("  " + format_equation(equation, table))
        for proof in equation.proofs:
            for line in format_proof(proof, table).splitlines():
                lines.append("    " + line)
    return "".join(line + "\n" for line in lines)
