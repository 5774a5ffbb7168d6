"""The propositional layer: CNF, DPLL, model enumeration, DIMACS.

Program clauses flatten into ordinary disjunctions (`p :- t, not q`
becomes `-t | q | p`), subequations expand into two-sided implications,
and a deliberately plain DPLL — unit propagation plus chronological
backtracking, lowest atom first, false before true — keeps every model
order reproducible.  DIMACS export makes the theories portable to any
external solver.
"""

from guardres import (
    dpll_solve,
    enumerate_models,
    export_dimacs,
    format_interpretation,
    parse_dimacs,
    parse_program,
    program_to_cnf,
)
from guardres.sat import CnfTheory, equation_to_cnf

TEXT = """\
p :- t, not q.
p :- not r.
q :- not s.
t.
"""

program = parse_program(TEXT)
table = program.atoms
theory = program_to_cnf(program)


def clause_text(clause):
    bits = []
    for atom, polarity in sorted(clause):
        bits.append(("" if polarity else "-") + table.name(atom))
    return " | ".join(bits)


print("program clauses in propositional form:")
for clause in theory.clauses:
    print(f"  {clause_text(clause)}")
print()

print("a subequation `p <-> -r` expands to:")
p, r = table.id_of("p"), table.id_of("r")
for clause in equation_to_cnf(p, (frozenset([r]),), len(table)):
    print(f"  {clause_text(clause)}")
print()

assignment = dpll_solve(theory)
model = frozenset(a for a, value in assignment.items() if value)
print(f"first DPLL model of the bare program CNF: "
      f"{format_interpretation(table, model)}")

models = enumerate_models(theory)
print(f"all {len(models)} classical models (stable or not):")
for members in models:
    print(f"  {format_interpretation(table, members)}")
print()

text = export_dimacs(theory)
print("DIMACS export:")
print(text, end="")
back = parse_dimacs(text)
print(f"round-trip preserves the model set: "
      f"{enumerate_models(back) == models}")
print()

unsat = CnfTheory.from_literals(back.atoms, [[(0, True)], [(0, False)]])
print(f"and UNSAT is a result, not an error: dpll_solve -> {dpll_solve(unsat)}")
