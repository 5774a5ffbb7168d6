"""Two-tier stable-model search: candidate theories over the DPLL backend.

Per atom the search either asserts absence (`-p`) or commits to one
support with its verifying proof (`p <-> -S`); the program clauses plus
one such subequation per atom form a candidate theory.  Every
propositional model of a candidate is a stable model, and every stable
model satisfies some candidate, so iterating candidates and enumerating
their models is a sound and complete solver.  The search is one
sequential walk of the candidates in product order; it skips a candidate
whose chosen guard meets an atom another choice forces true, because
such a candidate only repeats models of an earlier one.  Time is
exponential in the worst case; per-candidate state stays linear in the
program plus the certificate being carried (see SolveStats).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator

from .core import AtomTable, Program, format_interpretation
from .guarded import (
    ProofError,
    ProofTree,
    enumerate_supports,  # noqa: F401  perfbench/spans.py traces this name here
    format_proof,
    saturate_supports,
    verify_proof,
)
from .sat import CnfTheory, enumerate_models, program_to_cnf, subequation_to_cnf
from .semantics import is_stable

# Documented bound for the instrumented space check: the per-candidate
# state counter never exceeds this factor times (program size + largest
# certificate size).
STATE_BOUND_FACTOR = 4


@dataclass(frozen=True)
class Subequation:
    """Choice for one atom: absence (guard None) or one support with proof."""

    atom: int
    guard: frozenset[int] | None
    proof: ProofTree | None = None

    def cnf(self) -> list[frozenset]:
        return subequation_to_cnf(self.atom, self.guard)


def support_subequation(program: Program, atom: int, guard: frozenset[int],
                        proof: ProofTree) -> Subequation:
    """Certify the proof against the program before accepting the choice."""
    root = verify_proof(proof, program)
    if root.atom != atom or root.guard != guard:
        raise ProofError(
            f"proof concludes atom id {root.atom} with guard {sorted(root.guard)}, "
            f"expected atom id {atom} with guard {sorted(guard)}")
    return Subequation(atom, guard, proof)


@dataclass(frozen=True)
class CandidateTheory:
    """Program CNF plus exactly one subequation per atom, in id order."""

    base: CnfTheory
    subequations: tuple

    def __post_init__(self):
        expected = tuple(range(len(self.base.atoms)))
        if tuple(se.atom for se in self.subequations) != expected:
            raise ValueError("candidate needs exactly one subequation per atom, in order")

    def to_cnf(self) -> CnfTheory:
        clauses = list(self.base.clauses)
        for subequation in self.subequations:
            clauses.extend(subequation.cnf())
        return CnfTheory(self.base.atoms, clauses)

    def certificate_size(self) -> int:
        """One unit per subequation, guard atom, and proof-tree node."""
        total = 0
        for se in self.subequations:
            total += 1 + len(se.guard or ())
            if se.proof is not None:
                total += se.proof.size()
        return total


@dataclass
class SolveStats:
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

    program_size: int = 0
    candidates_checked: int = 0
    models_emitted: int = 0
    peak_candidate_state: int = 0
    max_certificate_size: int = 0


def candidate_theories(program: Program) -> Iterator[CandidateTheory]:
    """All candidate theories, lazily, in a fixed deterministic order.

    Per atom the choices are `-p` first, then the subset-minimal supports
    in lazy-enumeration order (each certified by its proof); the product
    varies the highest atom id fastest.  Minimality of the chosen guards
    loses no stable model: an admitted support stays admitted after
    shrinking to a minimal one.
    """
    base = program_to_cnf(program)
    table = saturate_supports(program)
    choices: list[list[Subequation]] = []
    for atom in range(len(program.atoms)):
        options = [Subequation(atom, None)]
        for guard, proof in table.certificates(atom).items():
            options.append(support_subequation(program, atom, guard, proof))
        choices.append(options)
    for combo in product(*choices):
        yield CandidateTheory(base, combo)


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
        if se.guard is not None and not se.guard
    }
    return any(se.guard and (se.guard & forced_true) for se in candidate.subequations)


def _account(stats: SolveStats | None, program: Program,
             candidate: CandidateTheory) -> None:
    if stats is None:
        return
    stats.candidates_checked += 1
    subeq_literals = sum(
        len(c) for se in candidate.subequations for c in se.cnf())
    certificate = candidate.certificate_size()
    state = subeq_literals + certificate + len(program.atoms)
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


def _subequation_text(subequation: Subequation, table: AtomTable) -> str:
    name = table.name(subequation.atom)
    if subequation.guard is None:
        return f"-{name}."
    if not subequation.guard:
        return f"{name}."
    negated = " & ".join(f"-{table.name(a)}" for a in sorted(subequation.guard))
    return f"{name} <-> {negated}"


def format_certificate(program: Program, model: frozenset[int],
                       candidate: CandidateTheory) -> str:
    """Per-model block: chosen subequations, proofs under positive choices."""
    table = program.atoms
    lines = [f"model {format_interpretation(table, model)}"]
    for subequation in candidate.subequations:
        lines.append("  " + _subequation_text(subequation, table))
        if subequation.proof is not None:
            for line in format_proof(subequation.proof, table).splitlines():
                lines.append("    " + line)
    return "".join(line + "\n" for line in lines)
