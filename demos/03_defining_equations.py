"""Defining equations and the purely negative transform.

Each atom gets one equation over its minimal supports: `t.` when the
empty guard supports it, `-r.` when nothing does, and `p <-> -q | -r`
otherwise.  The models of this theory are exactly the stable models —
a completion-style characterization that lands on stable rather than
merely supported semantics.  The same support table also rewrites any
program into an equivalent purely negative one.
"""

from guardres import (
    brute_force_stable,
    build_completion,
    dung_transform,
    equivalent,
    format_equations,
    format_interpretation,
    models_of_completion,
    parse_program,
    render_program,
)

TEXT = """\
p :- t, not q.
p :- not r.
q :- not s.
t.
"""

program = parse_program(TEXT)
fmt = lambda members: format_interpretation(program.atoms, members)

equations = build_completion(program)
print("defining equations:")
print(format_equations(equations, program.atoms), end="")
print()

print("their models, via the SAT layer:")
for members in models_of_completion(program, equations):
    print(f"  {fmt(members)}")
print(f"brute-force stable models agree: "
      f"{models_of_completion(program, equations) == brute_force_stable(program)}")
print()

negative = dung_transform(program)
print("equivalent purely negative program (one clause per support):")
print(render_program(negative), end="")
print(f"equivalent(program, transform) = {equivalent(program, negative)}")
print()

odd = parse_program("p :- not p.")
print("a self-blocking clause keeps its self-guard, so the equation")
print("`p <-> -p` is unsatisfiable and no stable model exists:")
print(format_equations(build_completion(odd), odd.atoms), end="")
print(f"models: {models_of_completion(odd, build_completion(odd))}")
