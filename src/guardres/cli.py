"""Command-line entry point.

Exit codes: 0 success (for `solve`, at least one model; for
`check-tight`, tight), 10 no stable model, 11 not tight, 2 usage or
parse errors, 3 resource limits.  All output is deterministic byte for
byte given the same input and flags.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from .completion import build_completion, dung_transform, format_equations, models_of_completion
from .core import Program, ResourceLimitError, format_interpretation
from .guarded import format_proof, saturate_supports
from .parse import ParseError, parse_program, render_program
from .sat import export_dimacs, program_to_cnf
from .semantics import (
    brute_force_stable,
    compute_levels,
    is_stable,
    is_supported,
    is_tight,
    is_tight_on,
)
from .solver import (
    candidate_cnf,
    candidate_theory,
    format_certificate,
    solve_stable,
    support_subequation,
)


class _CliError(Exception):
    """Usage-level problem discovered after argument parsing."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="guardres",
        description="Stable models of normal logic programs via guarded unit resolution.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="print the stable models of PROGRAM")
    solve.add_argument("file", metavar="FILE", help="program file, or - for stdin")
    solve.add_argument("--engine", choices=["candidate", "completion", "brute"],
                       default="candidate",
                       help="candidate-theory search (default), defining equations, "
                            "or brute-force enumeration")
    solve.add_argument("--limit", type=int, metavar="N",
                       help="stop after N models")
    solve.add_argument("--certs", action="store_true",
                       help="print the certificate block under each model "
                            "(candidate engine only)")

    supports = sub.add_parser("supports", help="print the minimal supports of an atom")
    supports.add_argument("file", metavar="FILE")
    supports.add_argument("--atom", required=True, metavar="NAME")
    supports.add_argument("--proofs", action="store_true",
                          help="print a verifying proof tree under each support")

    completion = sub.add_parser("completion", help="print the defining equations")
    completion.add_argument("file", metavar="FILE")

    negate = sub.add_parser("negate", help="print the equivalent purely negative program")
    negate.add_argument("file", metavar="FILE")

    tight = sub.add_parser("check-tight", help="check tightness, print a rank table")
    tight.add_argument("file", metavar="FILE")
    tight.add_argument("--on", metavar="MODEL",
                       help="restrict to an interpretation, e.g. \"{a, b}\"")

    model = sub.add_parser("check-model", help="classify one interpretation")
    model.add_argument("file", metavar="FILE")
    model.add_argument("--model", required=True, metavar="MODEL",
                       help="interpretation, e.g. \"{a, b}\"")

    dimacs = sub.add_parser("to-dimacs", help="export CNF in DIMACS format")
    dimacs.add_argument("file", metavar="FILE")
    dimacs.add_argument("--candidate", type=int, metavar="INDEX",
                        help="export candidate theory INDEX (0-based) instead "
                             "of the bare program CNF")
    return parser


def _read_program(path: str) -> Program:
    try:
        if path == "-":
            # Strict UTF-8, as for a file: the text layer of stdin may
            # decode with `surrogateescape` (UTF-8 mode).
            text = sys.stdin.buffer.read().decode("utf-8")
        else:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc
    return parse_program(text)


def _parse_model_arg(program: Program, text: str) -> frozenset[int]:
    stripped = text.strip()
    if not (stripped.startswith("{") and stripped.endswith("}")):
        raise _CliError(f"model must look like \"{{a, b}}\", got {text!r}")
    inner = stripped[1:-1].strip()
    if not inner:
        return frozenset()
    members = set()
    for part in inner.split(","):
        name = part.strip()
        if name not in program.atoms:
            raise _CliError(f"unknown atom {name!r} in model")
        members.add(program.atoms.id_of(name))
    return frozenset(members)


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.limit is not None and args.limit < 1:
        raise _CliError("--limit N must be at least 1")
    program = _read_program(args.file)
    if args.certs and args.engine != "candidate":
        raise _CliError("--certs requires --engine candidate")
    certificates = {}
    if args.engine == "brute":
        models = brute_force_stable(program)
    elif args.engine == "completion":
        models = models_of_completion(program, build_completion(program))
    else:
        pairs = solve_stable(program, args.limit)
        models = [model for model, _ in pairs]
        certificates = {model: candidate for model, candidate in pairs}
    models = models[:args.limit]
    name = program.atoms.name
    out: list[str] = []
    # Distinct models have distinct name lists, so no two frozensets are compared.
    for names, members in sorted((sorted(map(name, m)), m) for m in set(models)):
        out.append("{" + ", ".join(names) + "}\n")
        if args.certs:
            out.append(format_certificate(program, members, certificates[members]))
    sys.stdout.write("".join(out))
    return 0 if models else 10


def _cmd_supports(args: argparse.Namespace) -> int:
    program = _read_program(args.file)
    if args.atom not in program.atoms:
        raise _CliError(f"unknown atom {args.atom!r}")
    atom = program.atoms.id_of(args.atom)
    table = saturate_supports(program)
    proofs = table.certificates(atom) if args.proofs else {}
    for guard, proof in proofs.items():
        # Certified as `solve --certs` certifies its proofs, before any is printed.
        support_subequation(program, atom, guard, proof)
    for guard in table.supports(atom):
        print(format_interpretation(program.atoms, guard))
        if args.proofs:
            print(format_proof(proofs[guard], program.atoms), end="")
    return 0


def _cmd_completion(args: argparse.Namespace) -> int:
    program = _read_program(args.file)
    print(format_equations(build_completion(program), program.atoms), end="")
    return 0


def _cmd_negate(args: argparse.Namespace) -> int:
    program = _read_program(args.file)
    print(render_program(dung_transform(program)), end="")
    return 0


def _cmd_check_tight(args: argparse.Namespace) -> int:
    program = _read_program(args.file)
    if args.on is not None:
        members = _parse_model_arg(program, args.on)
        ranks = is_tight_on(program, members)
    else:
        ranks = is_tight(program)
    if ranks is None:
        print("not tight")
        return 11
    print("tight")
    name = program.atoms.name
    for atom in sorted(ranks, key=name):
        print(f"{name(atom)} {ranks[atom]}")
    return 0


def _cmd_check_model(args: argparse.Namespace) -> int:
    program = _read_program(args.file)
    members = _parse_model_arg(program, args.model)
    verdict = lambda flag: "yes" if flag else "no"
    print(f"stable: {verdict(is_stable(program, members))}")
    print(f"supported: {verdict(is_supported(program, members))}")
    print(f"has-levels: {verdict(compute_levels(program, members) is not None)}")
    return 0


def _cmd_to_dimacs(args: argparse.Namespace) -> int:
    program = _read_program(args.file)
    theory = program_to_cnf(program)
    if args.candidate is not None:
        if args.candidate < 0:
            raise _CliError("--candidate INDEX must be non-negative")
        try:
            candidate = candidate_theory(program, args.candidate)
        except IndexError:
            raise _CliError(f"candidate index {args.candidate} is out of range") from None
        theory = candidate_cnf(theory, candidate)
    print(export_dimacs(theory), end="")
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "supports": _cmd_supports,
    "completion": _cmd_completion,
    "negate": _cmd_negate,
    "check-tight": _cmd_check_tight,
    "check-model": _cmd_check_model,
    "to-dimacs": _cmd_to_dimacs,
}


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, dispatch, and map errors to the exit-code contract."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors, 0 for --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, _CliError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
