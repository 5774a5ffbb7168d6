"""Two-tier search: candidate theories instead of one giant completion.

The full equation theory can be exponentially large, so the solver
commits per atom to a narrowed equation — `-p` (absence), or `p <-> -S`
for one support S with its proof — and asks a DPLL solver for models of
the program clauses plus those commitments.  Any model of such a candidate
theory is stable, and every stable model satisfies some candidate.  The
search holds one candidate at a time, besides each atom's options, the
solve's clause table of those options and the models it has emitted,
each with its certificate (see `SolveStats`).
"""

from guardres import (
    SolveStats,
    candidate_theories,
    check_candidate,
    format_certificate,
    format_interpretation,
    parse_program,
    program_to_cnf,
    solve_stable,
)

TEXT = """\
p :- t, not q.
p :- not r.
q :- not s.
t.
"""

program = parse_program(TEXT)
table = program.atoms
fmt = lambda members: format_interpretation(table, members)


def describe(candidate):
    parts = []
    for se in candidate:
        name = table.name(se.atom)
        if not se.supports:
            parts.append(f"-{name}")
        elif not se.supports[0]:
            parts.append(name)
        else:
            parts.append(f"{name}<->-{fmt(se.supports[0])}")
    return ", ".join(parts)


base = program_to_cnf(program)
candidates = list(candidate_theories(program))
print(f"the program has {len(candidates)} candidate theories "
      f"(3 for p, 2 for q, 2 for t, 1 each for r and s)")
print()

print("walking two of them:")
for candidate in candidates:
    chosen = {table.name(se.atom): se.supports for se in candidate}
    interesting = (
        chosen["t"] == (frozenset(),)
        and chosen["q"] == (frozenset({table.id_of("s")}),)
        and chosen["p"] in ((), (frozenset({table.id_of("r")}),))
    )
    if not interesting:
        continue
    models = check_candidate(program, base, candidate)
    verdict = "inconsistent" if not models else f"model {fmt(models[0])}"
    print(f"  [{describe(candidate)}] -> {verdict}")
print()

stats = SolveStats()
results = solve_stable(program, stats=stats)
print("solve_stable emits each stable model with its certificate:")
for members, candidate in results:
    print(format_certificate(program, members, candidate), end="")
print()
print(f"candidates checked: {stats.candidates_checked}, "
      f"peak per-candidate state: {stats.peak_candidate_state} units "
      f"(program size {stats.program_size}, "
      f"largest certificate {stats.max_certificate_size})")
