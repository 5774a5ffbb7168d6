"""Guarded resolution: derive supports and carry checkable proof trees.

Reading `p :- q, not r` as the guarded clause `p <- q : {r}` makes the
negative body a *guard*.  Resolving body atoms away unfolds the clause
and unions guards, so a fully resolved `p : S` certifies: p is derivable
by any interpretation that avoids S.  That guarded atom is just the
clause `p :- not S`, so a fact like `t.` is one already.  Such
an S is a support of p, and the admitted supports of an interpretation
recover the reduct operator exactly — but now every answer ships with a
proof tree.
"""

from guardres import (
    admits,
    enumerate_supports,
    format_interpretation,
    format_proof,
    gl_operator,
    interpretation,
    parse_program,
    proof_to_sexp,
    saturate_supports,
    verify_proof,
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

print("guarded images of the clauses:")
for clause in program.clauses:
    body = ", ".join(table.name(a) for a in sorted(clause.pos_body))
    guard = ", ".join(table.name(a) for a in sorted(clause.neg_body))
    arrow = f" <- {body}" if body else ""
    print(f"  {table.name(clause.head)}{arrow} : {{{guard}}}")
print()

supports = saturate_supports(program)
print("minimal supports per atom (eager saturation):")
for atom, chain in supports.items():
    guards = ", ".join(fmt(s) for s in chain)
    print(f"  {table.name(atom)}: {guards}")
print("(r and s have none: nothing can ever derive them)")
print()

p = table.id_of("p")
print("lazy enumeration yields each support with its proof:")
for guard, proof in enumerate_supports(program, p):
    root = verify_proof(proof, program)  # raises if the tree is corrupt
    print(f"support {fmt(guard)}, proof of {table.name(root.head)}:")
    print(format_proof(proof, table), end="")
    print(f"  machine form: {proof_to_sexp(proof, table)}")
print()

print("admitted supports recover the reduct operator:")
for names in ([], ["q"], ["p", "q", "t"]):
    members = interpretation(table, names)
    admitted = supports.admitted_atoms(members)
    assert admitted == gl_operator(program, members)
    print(f"  M = {fmt(members):12} admits exactly {fmt(admitted)}")

ga = next(iter(enumerate_supports(program, p)))[1].label
print(f"\nadmits({fmt(interpretation(table, ['p', 'q', 't']))}, p:{{q}}) = "
      f"{admits(interpretation(table, ['p', 'q', 't']), ga)}")
