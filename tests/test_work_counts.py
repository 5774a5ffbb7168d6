"""Tests that count work, not seconds.

Counters are deterministic where timings drift, so a regression in how
much work a layer does fails here even when it changes no output.  A
path that should be linear is run at n and 2n and its counter may at
most grow by LINEAR_RATIO; a known superlinear path is pinned as a
strict xfail, so the change that makes it linear must remove the marker.
"""

import gc
import random
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest

import guardres.solver as solver
from guardres import (
    CnfTheory,
    Program,
    ProofTree,
    SolveStats,
    build_completion,
    candidate_theories,
    gl_operator,
    is_stable,
    program_to_cnf,
    saturate_supports,
    solve_stable,
)
from guardres.cli import run
from guardres.sat import equation_to_cnf

from corpus import (
    EXAMPLE_TEXT,
    FOUR_PAIRS_TEXT,
    example_program,
    ladder_text,
    prog,
    random_program,
    reversed_chain_text,
)

# A linear counter at most doubles from n to 2n (an affine one with a
# positive constant doubles less); n log n reads about x2.3 at n = 100.
LINEAR_RATIO = 2.2


def _options(program) -> set:
    return {(eq.atom, eq.supports) for candidate in candidate_theories(program)
            for eq in candidate}


@pytest.mark.parametrize("text, options", [(None, 9), (FOUR_PAIRS_TEXT, 20)],
                         ids=["example", "four-pairs"])
@pytest.mark.parametrize("with_stats", [False, True], ids=["plain", "stats"])
def test_each_option_is_encoded_once_per_solve(monkeypatch, text, options, with_stats):
    program = example_program() if text is None else prog(text)
    assert len(_options(program)) == options
    builds = Counter()

    def counted(atom, supports, first_aux):
        builds[atom, supports] += 1
        return equation_to_cnf(atom, supports, first_aux)

    monkeypatch.setattr(solver, "equation_to_cnf", counted)
    # Twice, so a table that outlived the first call would show as no builds.
    for _ in range(2):
        builds.clear()
        solve_stable(program, stats=SolveStats() if with_stats else None)
        assert builds and max(builds.values()) == 1
        assert set(builds) <= _options(program)


@pytest.mark.parametrize("text, options", [(None, 9), (FOUR_PAIRS_TEXT, 20)],
                         ids=["example", "four-pairs"])
def test_each_option_is_sized_once_per_solve(monkeypatch, text, options):
    program = example_program() if text is None else prog(text)
    assert len(_options(program)) == options
    sizes = Counter()
    size = ProofTree.size

    def counted(proof):
        sizes[id(proof)] += 1
        return size(proof)

    monkeypatch.setattr(ProofTree, "size", counted)
    for _ in range(2):
        sizes.clear()
        solve_stable(program, stats=SolveStats())
        assert sizes and max(sizes.values()) == 1
        assert sum(sizes.values()) <= options


@pytest.mark.parametrize("text, checked", [(None, 12), (FOUR_PAIRS_TEXT, 1024)],
                         ids=["example", "four-pairs"])
def test_solve_builds_only_the_program_cnf_theory(text, checked):
    # Each candidate's clause list goes to the search as built; a
    # `CnfTheory` per candidate read 13 and 1,025 builds here.
    program = example_program() if text is None else prog(text)
    with mock.patch.object(CnfTheory, "__init__", autospec=True,
                           side_effect=CnfTheory.__init__) as init:
        for _ in range(2):
            init.reset_mock()
            stats = SolveStats()
            solve_stable(program, stats=stats)
            assert stats.candidates_checked == checked
            assert init.call_count == 1


def solve_stats_golden_lines() -> list:
    """`label candidates_checked models_emitted peak_candidate_state
    max_certificate_size` per program, for the first 1,000
    `random_program` draws (seed 5).

    Rewrite the golden after a deliberate change to a count with
    `cd tests && PYTHONPATH=../src python -c "import test_work_counts as t;
    print(''.join(t.solve_stats_golden_lines()), end='')" > golden/solve_stats.txt`.
    """
    rng = random.Random(5)
    lines = []
    for i in range(1000):
        stats = SolveStats()
        solve_stable(random_program(rng), stats=stats)
        lines.append(f"random-{i} {stats.candidates_checked} {stats.models_emitted} "
                     f"{stats.peak_candidate_state} {stats.max_certificate_size}\n")
    return lines


def test_solve_stats_golden():
    # Pins the pruning and criterion 11's per-candidate counter.
    golden = Path(__file__).parent / "golden" / "solve_stats.txt"
    assert solve_stats_golden_lines() == golden.read_text().splitlines(keepends=True)


def _definite_chain(n: int):
    return prog(reversed_chain_text(n))


def _cnf_literals(clauses) -> int:
    return sum(map(len, clauses))


def test_chain_derivations_are_linear():
    # 101 -> 201 at n = 100 -> 200: one seed, one combination per level.
    counts = [saturate_supports(_definite_chain(n)).derivations for n in (100, 200)]
    assert counts[1] <= LINEAR_RATIO * counts[0]


@pytest.mark.parametrize("rung_first", [False, True], ids=["chain-first", "rung-first"])
def test_ladder_derivations_are_the_stored_supports(rung_first):
    # 76, 251 and 901 at r = 10, 20 and 40: a_i has i + 1 minimal supports
    # and c_i one, so only the antichains make the count quadratic, and
    # saturation derives nothing it does not keep.
    for r in (10, 20, 40):
        program = prog(ladder_text(r, rung_first))
        table = saturate_supports(program)
        stored = sum(len(table.supports(atom)) for atom in range(len(program.atoms)))
        assert table.derivations == stored == (r + 1) * (r + 2) // 2 + r


def test_program_cnf_literals_are_linear():
    # 201 -> 401: one clause per program clause.
    counts = [_cnf_literals(program_to_cnf(_definite_chain(n)).clauses) for n in (100, 200)]
    assert counts[1] <= LINEAR_RATIO * counts[0]


def _gamma_clause_visits(program) -> int:
    """Clause positions read through `clauses_using` by one `is_stable` call,
    on the one stable model of the chain and ladder families, Γ(∅)."""
    members = gl_operator(program, frozenset())
    visits = 0
    using = Program.clauses_using

    def counted(self, atom):
        nonlocal visits
        positions = using(self, atom)
        visits += len(positions)
        return positions

    with mock.patch.object(Program, "clauses_using", counted):
        assert is_stable(program, members)
    return visits


@pytest.mark.parametrize("text, n", [(reversed_chain_text, 100),
                                     (lambda r: ladder_text(r, False), 50)],
                         ids=["chain", "ladder"])
def test_gamma_clause_visits_are_linear(text, n):
    # 100 -> 200 on the chain, 100 -> 200 on the ladder at r = 50 -> 100:
    # each derived atom's positive-body clauses are read once.
    counts = [_gamma_clause_visits(prog(text(size))) for size in (n, 2 * n)]
    assert counts[1] <= LINEAR_RATIO * counts[0]


def _completion_literals(program) -> int:
    # The literal count does not depend on where the chain atoms start.
    n = len(program.atoms)
    return sum(_cnf_literals(equation_to_cnf(eq.atom, eq.supports, n))
               for eq in build_completion(program))


@pytest.mark.xfail(strict=True, reason="each E_P equation spells out its whole guard "
                   "(ROADMAP item 4)")
def test_guarded_chain_completion_literals_are_linear():
    # 2,941 -> 11,881 at n = 200 -> 400 (x4.04), `not z_i` on every 20th level.
    counts = [_completion_literals(prog(reversed_chain_text(n, 20))) for n in (200, 400)]
    assert counts[1] <= LINEAR_RATIO * counts[0]


@pytest.mark.xfail(strict=True, reason="the proof of a_i repeats the proof of a_{i-1} "
                   "(ROADMAP item 5)")
def test_chain_choice_proof_nodes_are_linear():
    # 10,201 -> 40,401 at n = 100 -> 200 (x3.96): (n + 1)^2 nodes.
    counts = [sum(proof.size() for options in solver._choices(_definite_chain(n))
                  for eq in options for proof in eq.proofs)
              for n in (100, 200)]
    assert counts[1] <= LINEAR_RATIO * counts[0]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_definite_chain_candidates_checked_are_linear():
    # 64 -> 2,048 at n = 5 -> 10: 2^(n + 1), since no atom's `-p` is cut.
    counts = []
    for n in (5, 10):
        stats = SolveStats()
        solve_stable(_definite_chain(n), stats=stats)
        counts.append(stats.candidates_checked)
    assert counts[1] <= LINEAR_RATIO * counts[0]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
def test_cli_calls_leave_no_cyclic_garbage(tmp_path, capsys):
    # Each `run()` builds an argparse parser tree, about 267 objects in
    # reference cycles, that only the cyclic collector frees.
    path = tmp_path / "example.lp"
    path.write_text(EXAMPLE_TEXT)
    calls = [["solve", str(path), "--certs"], ["supports", str(path), "--atom", "p", "--proofs"],
             ["solve", str(path), "--engine", "completion"]]
    run(calls[0])
    gc.collect()
    gc.disable()
    try:
        for argv in calls:
            assert run(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
