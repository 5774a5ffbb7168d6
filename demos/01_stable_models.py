"""Stable models from first principles: reducts, fixpoints, brute force.

A normal logic program is a set of clauses `head :- pos, not neg.`  An
interpretation M is *stable* when it reproduces itself through the
reduct: delete every clause whose negative body meets M, strip the
negative bodies off the survivors, and take the least model of the
remaining definite program.  This script walks that definition on a
small four-clause program whose single stable model is {p, q, t}.
"""

from guardres import (
    brute_force_stable,
    format_interpretation,
    gl_operator,
    gl_reduct,
    interpretation,
    is_stable,
    least_model,
    parse_program,
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

print("program:")
print(TEXT)

candidate = interpretation(table, ["p", "q", "t"])
print(f"take M = {fmt(candidate)} and build the reduct:")
reduct = gl_reduct(program, candidate)
for clause in reduct.clauses:
    body = ", ".join(table.name(a) for a in sorted(clause.pos_body))
    print(f"  {table.name(clause.head)}" + (f" :- {body}." if body else "."))
print("(the clause `p :- t, not q` died because q is in M)")

fixpoint = least_model(reduct)
print(f"least model of the reduct: {fmt(fixpoint)}")
print(f"M reproduces itself, so it is stable: {is_stable(program, candidate)}")
print()

print("the operator is antimonotone; smaller inputs derive more:")
for names in ([], ["q"], ["p", "q", "t"], ["p", "q", "r", "s", "t"]):
    members = interpretation(table, names)
    print(f"  GL({fmt(members)}) = {fmt(gl_operator(program, members))}")
print()

print("brute force over all 2^5 subsets confirms the unique stable model:")
for members in brute_force_stable(program):
    print(f"  {fmt(members)}")
print()

odd = parse_program("p :- not p.")
two = parse_program("p :- not q.\nq :- not p.")
print("classic edge cases:")
print(f"  `p :- not p.`            -> {[format_interpretation(odd.atoms, m) for m in brute_force_stable(odd)]}")
print(f"  `p :- not q. q :- not p.` -> "
      f"{[format_interpretation(two.atoms, m) for m in brute_force_stable(two)]}")
