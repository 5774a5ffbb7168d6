"""Seeded instance generators, one per workload.

Each generator yields blocks (lists) of `Instance`s forever; the same
seed yields the same `.lp` texts byte for byte.  Sizes are stratified:
every block draws each size bucket its quota of times, in a seeded
order, and the benchmark runs whole blocks, so the size mix of a run
does not depend on the seed and the latency percentiles stay comparable
across seeds.  Each instance carries what its oracle needs to judge the
output (see oracle.py); none of it is computed with guardres.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import product
from typing import Iterator

from oracle import candidate_count

@dataclass(frozen=True)
class Instance:
    index: int
    text: str
    command: str                # CLI subcommand
    flags: tuple                # CLI arguments after the file path
    expected: object            # workload-specific oracle input

    def argv(self, path: str) -> list:
        return [self.command, path, *self.flags]


def render(clauses) -> str:
    """`.lp` text for (head, positive body, negative body) name tuples."""
    lines = []
    for head, pos, neg in clauses:
        body = list(pos) + [f"not {atom}" for atom in neg]
        lines.append(f"{head} :- {', '.join(body)}." if body else f"{head}.")
    return "".join(line + "\n" for line in lines)


def _stratified(rng: random.Random, low: int, high: int, count: int) -> list:
    """`count` sizes, one from each equal slice of [low, high], shuffled."""
    width = (high - low + 1) / count
    sizes = [low + int(width * (slot + rng.random())) for slot in range(count)]
    rng.shuffle(sizes)
    return sizes


# --- random-certs: `solve FILE --certs` on random normal programs ----------

_LETTERS = "abcdefghijkl"

# The candidate engine's cost is about linear in its candidate count (the
# product over atoms of 1 + minimal supports), which is heavy-tailed.  A
# block holds the natural mix: stratum (lowest count, quota) runs up to
# the next stratum's lowest count, and the quotas are the 2.5% quantiles
# of 50,000 unfiltered draws.  Draws with CANDIDATE_CAP or more candidates
# (3.1% of them) are skipped: one such program can run for minutes, longer
# than a whole run, and the blow-up still shows in the 90th percentile.
CANDIDATE_STRATA = (
    (1, 1), (8, 1), (12, 1), (16, 2), (24, 1), (32, 2), (36, 1), (48, 1),
    (64, 3), (72, 1), (96, 2), (128, 3), (144, 1), (192, 2), (216, 1), (256, 2),
    (288, 1), (384, 2), (432, 1), (512, 1), (576, 1), (768, 2), (1024, 1),
    (1152, 1), (1536, 1), (1728, 1), (2304, 1), (3456, 1), (5184, 1),
)
CANDIDATE_CAP = 10_000


def random_program(rng: random.Random, n: int) -> tuple:
    """Like the test corpus' random programs: 8-12 atoms, ~1.5 clauses each."""
    atoms = _LETTERS[:n]
    clauses = []
    for _ in range(rng.randint(n, 2 * n)):
        head = rng.choice(atoms)
        pos = rng.sample(atoms, k=rng.choices([0, 1, 2], weights=[5, 3, 2])[0])
        neg = rng.sample(atoms, k=rng.choices([0, 1, 2], weights=[4, 4, 2])[0])
        clauses.append((head, tuple(sorted(pos)), tuple(sorted(neg))))
    return tuple(clauses)


def random_certs(seed: int) -> Iterator[list]:
    rng = random.Random(f"random-certs:{seed}")
    lows = [low for low, _ in CANDIDATE_STRATA]
    queues = [[] for _ in CANDIDATE_STRATA]
    index = 0
    while True:
        while any(len(q) < quota for q, (_, quota) in zip(queues, CANDIDATE_STRATA)):
            clauses = random_program(rng, rng.randint(8, 12))
            count = candidate_count(clauses)
            if count < CANDIDATE_CAP:
                queues[bisect_right(lows, count) - 1].append(clauses)
        block = []
        for queue, (_, quota) in zip(queues, CANDIDATE_STRATA):
            block.extend(queue[:quota])
            del queue[:quota]
        rng.shuffle(block)
        yield [Instance(index + i, render(clauses), "solve", ("--certs",), clauses)
               for i, clauses in enumerate(block)]
        index += len(block)


# --- choice-completion: `solve FILE --engine completion` on choice pairs ---

def _choice_program(rng: random.Random, k: int) -> tuple:
    """k pairs `a_i :- not b_i. b_i :- not a_i.` plus derived atoms.

    Derived atoms depend on choice atoms only, so each of the 2^k choices
    fixes them directly; the model list is derived here, not solved.
    """
    clauses = []
    pairs = [(f"a{i}", f"b{i}") for i in range(k)]
    for a, b in pairs:
        clauses.append((a, (), (b,)))
        clauses.append((b, (), (a,)))
    choice_atoms = [atom for pair in pairs for atom in pair]
    derived = []
    for j in range(rng.randint(2, 4)):
        head = f"c{j}"
        for _ in range(rng.randint(1, 2)):
            pos, neg = rng.sample(choice_atoms, k=2)
            derived.append((head, (pos,), (neg,)))
    clauses.extend(derived)
    models = []
    for picks in product((0, 1), repeat=k):
        chosen = frozenset(pair[pick] for pair, pick in zip(pairs, picks))
        heads = {h for h, pos, neg in derived
                 if set(pos) <= chosen and not set(neg) & chosen}
        models.append(chosen | heads)
    # Duplicate clauses collapse in the parser; they cannot change the models.
    return tuple(clauses), tuple(models)


def choice_completion(seed: int) -> Iterator[list]:
    rng = random.Random(f"choice-completion:{seed}")
    index = 0
    while True:
        block = []
        for k in _stratified(rng, 4, 6, 3):
            clauses, models = _choice_program(rng, k)
            block.append(Instance(index, render(clauses), "solve",
                                  ("--engine", "completion"), models))
            index += 1
        yield block


# --- ladder-supports: `supports FILE --atom TOP --proofs` ------------------

@dataclass(frozen=True)
class SupportQuery:
    atom: str
    supports: tuple             # the expected antichain, as frozensets of names


def _ladder(rng: random.Random, rungs: int) -> tuple:
    """`a_i :- a_{i-1}, not x_i. a_i :- c_i. c_i :- not y_i.` over a_0 :- not x_0.

    The top atom's antichain follows from S(0) = {{x0}} and
    S(i) = {{y_i}} + {s | {x_i} : s in S(i-1)}: rungs + 1 supports.
    """
    clauses = [("a0", (), ("x0",))]
    supports = [frozenset({"x0"})]
    for i in range(1, rungs + 1):
        step = [(f"a{i}", (f"a{i - 1}",), (f"x{i}",)), (f"a{i}", (f"c{i}",), ())]
        if rng.random() < 0.5:
            step.reverse()
        clauses.extend(step)
        clauses.append((f"c{i}", (), (f"y{i}",)))
        supports = [frozenset({f"y{i}"})] + [s | {f"x{i}"} for s in supports]
    return tuple(clauses), SupportQuery(f"a{rungs}", tuple(supports))


def _chain(rng: random.Random, levels: int) -> tuple:
    """`a_i :- a_{i-1}` listed top-down, a few levels guarded by `not z_i`.

    Listing the clauses in reverse makes saturation take one full pass
    per level.  The only support of the top atom is the union of guards.
    """
    clauses = []
    guard = set()
    for i in range(levels, 0, -1):
        neg = (f"z{i}",) if rng.random() < 0.05 else ()
        guard.update(neg)
        clauses.append((f"a{i}", (f"a{i - 1}",), neg))
    clauses.append(("a0", (), ()))
    return tuple(clauses), SupportQuery(f"a{levels}", (frozenset(guard),))


# Per block of 20: 12 ladders, 7 chains and one deep chain.  Deep chains
# exceed the interpreter's default recursion limit in lazy enumeration;
# at 5% of the instances they sit above the 90th latency percentile.
LADDER_RUNGS = (10, 45)
CHAIN_LEVELS = (100, 400)
DEEP_LEVELS = (550, 800)


def ladder_supports(seed: int) -> Iterator[list]:
    rng = random.Random(f"ladder-supports:{seed}")
    index = 0
    while True:
        plan = [(_ladder, n) for n in _stratified(rng, *LADDER_RUNGS, 12)]
        plan += [(_chain, n) for n in _stratified(rng, *CHAIN_LEVELS, 7)]
        plan.append((_chain, rng.randint(*DEEP_LEVELS)))
        rng.shuffle(plan)
        block = []
        for build, size in plan:
            clauses, query = build(rng, size)
            block.append(Instance(index, render(clauses), "supports",
                                  ("--atom", query.atom, "--proofs"), query))
            index += 1
        yield block


GENERATORS = {
    "random-certs": random_certs,
    "choice-completion": choice_completion,
    "ladder-supports": ladder_supports,
}
