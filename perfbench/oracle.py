"""Independent oracles for the benchmark's outputs.

Nothing here imports guardres: programs are the generators' named
clauses, stable models come from a reduct-and-least-model check, and CLI
output is read back from its documented text format.  Each `check_*`
returns None when the output is right and a one-line reason otherwise.
"""

from __future__ import annotations

from itertools import product


def minimal_supports(clauses) -> dict:
    """Per head, the antichain of subset-minimal guards, by naive saturation."""
    antichains: dict = {}

    def insert(head, guard) -> bool:
        chain = antichains.setdefault(head, [])
        if any(existing <= guard for existing in chain):
            return False
        chain[:] = [s for s in chain if not guard <= s]
        chain.append(guard)
        return True

    for head, pos, neg in clauses:
        if not pos:
            insert(head, frozenset(neg))
    changed = True
    while changed:
        changed = False
        for head, pos, neg in clauses:
            pools = [tuple(antichains.get(b, ())) for b in pos]
            if not pos or not all(pools):
                continue
            for combo in product(*pools):
                changed |= insert(head, frozenset(neg).union(*combo))
    return antichains


def candidate_count(clauses) -> int:
    """Size of the candidate product: per atom, absence or one minimal support."""
    antichains = minimal_supports(clauses)
    atoms = {a for head, pos, neg in clauses for a in (head, *pos, *neg)}
    count = 1
    for atom in atoms:
        count *= 1 + len(antichains.get(atom, ()))
    return count


def stable_models(clauses) -> list:
    """All stable models, as frozensets of names.

    A stable model M is the least model of the reduct P^M, and P^M only
    depends on M restricted to the atoms that occur negatively.  So for
    every subset S of those atoms (that some clause can derive), compute
    the least model L of the reduct by S and keep L when it meets the
    negative atoms exactly in S.
    """
    atoms = sorted({a for head, pos, neg in clauses for a in (head, *pos, *neg)})
    bit = {atom: 1 << i for i, atom in enumerate(atoms)}

    def mask(names) -> int:
        total = 0
        for name in names:
            total |= bit[name]
        return total

    rules = [(bit[head], mask(pos), mask(neg)) for head, pos, neg in clauses]
    heads = mask(head for head, _, _ in clauses)
    negative = mask(a for _, _, neg in clauses for a in neg) & heads
    models = []
    subset = negative
    while True:
        reduct = [(h, p) for h, p, n in rules if not n & subset]
        least = 0
        grown = True
        while grown:
            grown = False
            for h, p in reduct:
                if not h & least and p & least == p:
                    least |= h
                    grown = True
        if least & negative == subset:
            models.append(frozenset(a for a in atoms if least & bit[a]))
        if not subset:
            break
        subset = (subset - 1) & negative
    return models


def parse_set(text: str) -> frozenset:
    """`{a, b}` back to a set of names."""
    inner = text.strip()
    if not (inner.startswith("{") and inner.endswith("}")):
        raise ValueError(f"not a set: {text!r}")
    inner = inner[1:-1].strip()
    return frozenset(part.strip() for part in inner.split(",")) if inner else frozenset()


def format_set(names) -> str:
    return "{" + ", ".join(sorted(names)) + "}"


def model_lines(models) -> list:
    """The CLI's model listing: one set per line, ordered by sorted names."""
    return [format_set(m) for m in sorted(set(models), key=lambda m: tuple(sorted(m)))]


def _root_names(line: str, atom: str, guard) -> bool:
    """Does a proof's root line `0| atom : {guard}` name this support?"""
    head, sep, rest = line.partition(" : ")
    return sep == " : " and head == f"0| {atom}" and parse_set(rest) == guard


def check_random_certs(expected_clauses, code: int, stdout: str):
    """Models against the reduct oracle; each certificate block against its model."""
    expected = model_lines(stable_models(expected_clauses))
    want_code = 0 if expected else 10
    if code != want_code:
        return f"exit {code}, expected {want_code}"
    atoms = {a for head, pos, neg in expected_clauses for a in (head, *pos, *neg)}
    lines = stdout.splitlines()
    found = [line for line in lines if line.startswith("{")]
    if found != expected:
        return f"models {found} != oracle {expected}"
    i = 0
    for model_line in found:
        model = parse_set(model_line)
        if lines[i:i + 2] != [model_line, f"model {model_line}"]:
            return f"certificate block for {model_line} does not start where expected"
        i += 2
        chosen = set()
        while i < len(lines) and lines[i].startswith("  "):
            entry = lines[i][2:]
            i += 1
            if entry.startswith(" "):
                continue                # proof-tree line
            if entry.startswith("-"):
                atom = entry[1:-1]
                if atom in model:
                    return f"{model_line}: asserts {entry!r} but the atom is true"
            else:
                atom, _, rhs = entry.rstrip(".").partition(" <-> ")
                guard = frozenset(term.strip()[1:] for term in rhs.split("&")) if rhs \
                    else frozenset()
                if (atom in model) != (not guard & model):
                    return f"{model_line}: subequation {entry!r} is false in the model"
                if i >= len(lines) or not _root_names(lines[i].strip(), atom, guard):
                    return f"{model_line}: proof under {entry!r} does not conclude it"
            chosen.add(atom)
        if chosen != atoms:
            return f"{model_line}: certificate covers {sorted(chosen)}, not every atom"
    return None


def check_choice_completion(expected_models, code: int, stdout: str):
    if code != 0:
        return f"exit {code}, expected 0"
    found = stdout.splitlines()
    expected = model_lines(expected_models)
    if found != expected:
        return f"{len(found)} model lines, expected the {len(expected)} derived ones"
    return None


def check_ladder_supports(query, code: int, stdout: str):
    """The printed antichain is the derived one; every proof root names its support."""
    if code != 0:
        return f"exit {code}, expected 0"
    lines = stdout.splitlines()
    printed = []
    for i, line in enumerate(lines):
        if not line.startswith("{"):
            continue
        guard = parse_set(line)
        if i + 1 >= len(lines) or not _root_names(lines[i + 1], query.atom, guard):
            return f"proof after support {line} does not conclude {query.atom} : {line}"
        printed.append(guard)
    if len(printed) != len(query.supports) or set(printed) != set(query.supports):
        return f"{len(printed)} supports printed, expected the {len(query.supports)} derived"
    return None


CHECKS = {
    "random-certs": check_random_certs,
    "choice-completion": check_choice_completion,
    "ladder-supports": check_ladder_supports,
}
