"""Reference semantics: reducts, least models, stability, levels, tightness.

This module is the slow-but-obviously-correct side of the package.  The
reduct/least-model route *defines* stability, brute-force subset
enumeration provides the oracle every other engine is checked against,
and rank functions certify stability (levels) or syntactic acyclicity
(tightness).  The reduct operator Γ takes the reduct as a filter in one
counter pass and builds no `Program`; `gl_reduct` is the public reading:
the clauses whose guard (the negative body) the interpretation avoids,
each with its guard dropped.
"""

from __future__ import annotations

__all__ = ("brute_force_stable", "check_levels", "compute_levels", "gl_operator",
           "gl_reduct", "is_stable", "is_supported", "is_tight", "is_tight_on",
           "least_model")

from .core import (
    EMPTY,
    Clause,
    Program,
    ResourceLimitError,
    all_interpretations,
    satisfies_program,
)

# Most atoms brute-force enumeration takes on; read at call time.
BRUTE_FORCE_CAP = 20


def gl_reduct(program: Program, members: frozenset[int]) -> Program:
    """Drop clauses whose negative body meets `members`; strip the rest."""
    kept = [
        Clause(c.head, c.pos_body, EMPTY)
        for c in program.clauses
        if not (c.neg_body & members)]
    return Program(program.atoms, kept)


def derivation_levels(program: Program, members: frozenset[int] = frozenset()) -> dict:
    """First forward-chaining round per atom of Γ(members), facts at round 0.

    The reduct is a filter: a clause whose negative body meets `members`
    never fires, and negative bodies are not read otherwise.  Each clause
    counts its still-underived body atoms and fires at zero, so the pass
    is linear in total body size.
    """
    clauses = program.clauses
    # -1 marks a clause the reduct drops: counting down never reaches zero.
    remaining = [-1 if c.neg_body & members else len(c.pos_body) for c in clauses]
    level: dict = {}
    frontier: list[int] = []
    for idx, clause in enumerate(clauses):
        if remaining[idx] == 0 and clause.head not in level:
            level[clause.head] = 0
            frontier.append(clause.head)
    round_no = 0
    while frontier:
        next_frontier: list[int] = []
        for atom in frontier:
            for idx in program.clauses_using(atom):
                remaining[idx] -= 1
                if remaining[idx] == 0:
                    head = clauses[idx].head
                    if head not in level:
                        level[head] = round_no + 1
                        next_frontier.append(head)
        round_no += 1
        frontier = next_frontier
    return level


def least_model(horn: Program) -> frozenset[int]:
    """Least fixpoint of the one-step provability operator."""
    return frozenset(derivation_levels(horn))


def gl_operator(program: Program, members: frozenset[int]) -> frozenset[int]:
    """Γ(members): the least model of the reduct, in one pass over `program`."""
    return frozenset(derivation_levels(program, members))


def is_stable(program: Program, members: frozenset[int]) -> bool:
    return gl_operator(program, members) == members


def brute_force_stable(program: Program) -> list[frozenset[int]]:
    """All stable models, in ascending bitmask order over atom ids.

    Refuses programs with more than `BRUTE_FORCE_CAP` atoms: this is the
    exhaustive oracle, not a solver.
    """
    n = len(program.atoms)
    if n > BRUTE_FORCE_CAP:
        raise ResourceLimitError(
            f"brute-force enumeration over {n} atoms exceeds the cap of {BRUTE_FORCE_CAP}")
    return [m for m in all_interpretations(n) if is_stable(program, m)]


def is_supported(program: Program, members: frozenset[int]) -> bool:
    """Model where every member has a clause with satisfied body behind it."""
    if not satisfies_program(members, program):
        return False
    for atom in members:
        if not any(
                c.pos_body <= members and not (c.neg_body & members)
                for c in program.clauses_for(atom)):
            return False
    return True


def compute_levels(program: Program, members: frozenset[int]) -> dict | None:
    """Rank certificate for `members`, or None when no levels exist.

    Ranks are the reduct's derivation rounds (facts at 0); a certificate
    exists exactly when `members` is stable.  The result is audited with
    `check_levels` before being returned.
    """
    # Γ(M) = M makes M a model: each clause whose body M satisfies is in the reduct.
    levels = derivation_levels(program, members)
    if frozenset(levels) != members:
        return None
    if not check_levels(program, members, levels):
        raise RuntimeError("derived rank function failed its own audit")
    return dict(levels)


def check_levels(program: Program, members: frozenset[int], ranks: dict) -> bool:
    """Audit a rank certificate: model, ranked members, decreasing bodies."""
    if not satisfies_program(members, program):
        return False
    if not members <= ranks.keys():
        return False
    for atom in members:
        ok = any(
            c.pos_body <= members
            and not (c.neg_body & members)
            and all(q in ranks and ranks[q] < ranks[atom] for q in c.pos_body)
            for c in program.clauses_for(atom))
        if not ok:
            return False
    return True


def _ranks(succs: dict[int, set[int]]) -> dict | None:
    """Longest-path ranks over the edges `q -> succs[q]`, None on a cycle.

    Kahn's algorithm: a node joins the queue once every predecessor has
    been worked, so its rank is final then.  Longest-path ranks do not
    depend on the order the queue is worked in.
    """
    pred_count = dict.fromkeys(succs, 0)
    for heads in succs.values():
        for head in heads:
            pred_count[head] += 1
    rank = dict.fromkeys(succs, 0)
    queue = [a for a in succs if pred_count[a] == 0]
    for q in queue:  # grows while it is walked
        for head in succs[q]:
            rank[head] = max(rank[head], rank[q] + 1)
            pred_count[head] -= 1
            if pred_count[head] == 0:
                queue.append(head)
    return rank if len(queue) == len(rank) else None


def is_tight(program: Program) -> dict | None:
    """Topological ranks over the positive dependency graph, None on a cycle.

    The graph has an edge q -> head for every clause and q in its positive
    body; ranks are longest-path depths, so every positive body atom ranks
    strictly below its head.
    """
    clauses = program.clauses
    return _ranks({q: {clauses[idx].head for idx in program.clauses_using(q)}
                   for q in range(len(program.atoms))})


def is_tight_on(program: Program, members: frozenset[int]) -> dict | None:
    """Rank function on `members` decreasing into positive bodies, or None.

    Only clauses whose head is in `members` and whose full body holds
    under `members` are constrained, so ranks are always defined where
    needed.
    """
    succs: dict[int, set[int]] = {a: set() for a in members}
    for clause in program.clauses:
        if clause.head not in members:
            continue
        if not (clause.pos_body <= members and not (clause.neg_body & members)):
            continue
        for q in clause.pos_body:
            succs[q].add(clause.head)
    return _ranks(succs)
