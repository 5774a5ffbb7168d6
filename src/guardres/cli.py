"""Command-line entry point.

Exit codes: 0 success (for `solve`, at least one model; for
`check-tight`, tight), 10 no stable model, 11 not tight, 2 usage or
parse errors (an unreadable stdin or an unwritable stdout among
them), 3 resource limits.  All output is deterministic byte for
byte given the same input and flags; help and usage messages are laid
out at 78 columns whatever the terminal, so `COLUMNS` changes nothing.

`run` alone reads, writes and maps errors: it reads FILE (or stdin for
`-`) as bytes and decodes them once, hands the program to a subcommand
that returns its stdout text and exit code, and writes and flushes that
text once, or writes one `error: ` line to stderr, never to stdout.
`main`, the process entry, keeps the interpreter's exit flush from
raising a write error a second time.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence
from contextlib import suppress
from functools import partial

from .completion import build_completion, dung_transform, format_equations, models_of_completion
from .core import Program, ResourceLimitError, format_interpretation
from .guarded import _first_proofs, format_proof, saturate_supports
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


# One width for every parser: left unset, argparse asks `COLUMNS` or the
# terminal, and falls back to 80 columns less 2 when there is neither.
_FORMATTER = partial(argparse.HelpFormatter, width=78)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="guardres",
        description="Stable models of normal logic programs via guarded unit resolution.",
        formatter_class=_FORMATTER)
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=partial(argparse.ArgumentParser, formatter_class=_FORMATTER))

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
    # A file and stdin alike: bytes, then one strict decode, so no newline
    # translation (a lone `\r` stays a blank) and no `surrogateescape`.
    try:
        if path == "-":
            if sys.stdin is None:
                raise _CliError("cannot read -: stdin is closed")
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as handle:
                data = handle.read()
        text = data.decode("utf-8")
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc
    return parse_program(text)


def _write_stdout(text: str) -> None:
    # Flushed even when `text` is empty: help text that argparse wrote may
    # still be buffered.  A closed stdout only fails a run with output.
    if sys.stdout is None:
        if text:
            raise _CliError("cannot write stdout: stdout is closed")
        return
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        raise _CliError(f"cannot write stdout: {exc.strerror}") from exc


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


def _cmd_solve(args: argparse.Namespace, program: Program) -> tuple[str, int]:
    if args.limit is not None and args.limit < 1:
        raise _CliError("--limit N must be at least 1")
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
    return "".join(out), 0 if models else 10


def _cmd_supports(args: argparse.Namespace, program: Program) -> tuple[str, int]:
    if args.atom not in program.atoms:
        raise _CliError(f"unknown atom {args.atom!r}")
    atom = program.atoms.id_of(args.atom)
    # Only the atom's guards outlive the table, and only texts outlive the
    # proofs: each proof is certified, as `solve --certs` certifies its
    # proofs, and rendered as the pass finds it, and the texts are joined
    # in canonical order only once every proof is certified.
    guards = saturate_supports(program).supports(atom)
    proof_texts: dict[frozenset[int], str] = {}
    if args.proofs:
        for guard, proof in _first_proofs(program, atom, guards):
            support_subequation(program, atom, guard, proof)
            proof_texts[guard] = format_proof(proof, program.atoms)
    out: list[str] = []
    for guard in guards:
        out.append(format_interpretation(program.atoms, guard) + "\n")
        if args.proofs:
            out.append(proof_texts[guard])
    return "".join(out), 0


def _cmd_completion(args: argparse.Namespace, program: Program) -> tuple[str, int]:
    return format_equations(build_completion(program), program.atoms), 0


def _cmd_negate(args: argparse.Namespace, program: Program) -> tuple[str, int]:
    return render_program(dung_transform(program)), 0


def _cmd_check_tight(args: argparse.Namespace, program: Program) -> tuple[str, int]:
    if args.on is not None:
        ranks = is_tight_on(program, _parse_model_arg(program, args.on))
    else:
        ranks = is_tight(program)
    if ranks is None:
        return "not tight\n", 11
    name = program.atoms.name
    return "tight\n" + "".join(
        f"{name(atom)} {ranks[atom]}\n" for atom in sorted(ranks, key=name)), 0


def _cmd_check_model(args: argparse.Namespace, program: Program) -> tuple[str, int]:
    members = _parse_model_arg(program, args.model)
    verdict = lambda flag: "yes" if flag else "no"
    return (f"stable: {verdict(is_stable(program, members))}\n"
            f"supported: {verdict(is_supported(program, members))}\n"
            f"has-levels: {verdict(compute_levels(program, members) is not None)}\n"), 0


def _cmd_to_dimacs(args: argparse.Namespace, program: Program) -> tuple[str, int]:
    theory = program_to_cnf(program)
    if args.candidate is not None:
        if args.candidate < 0:
            raise _CliError("--candidate INDEX must be non-negative")
        try:
            candidate = candidate_theory(program, args.candidate)
        except IndexError:
            raise _CliError(f"candidate index {args.candidate} is out of range") from None
        theory = candidate_cnf(theory, candidate)
    return export_dimacs(theory), 0


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
    """Parse arguments, read FILE, dispatch, write and flush stdout once,
    and map errors to the exit-code contract; a run that fails before its
    write writes no stdout."""
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse uses 2 for usage errors, 0 for --help
            out, code = "", int(exc.code or 0)
        else:
            out, code = _COMMANDS[args.command](args, _read_program(args.file))
        _write_stdout(out)
    except (ParseError, _CliError, ResourceLimitError) as exc:
        with suppress(AttributeError, OSError):  # as argparse writes its usage errors
            sys.stderr.write(f"error: {exc}\n")
        return 3 if isinstance(exc, ResourceLimitError) else 2
    return code


def main() -> None:
    code = run()
    # A failed write leaves its text buffered, and the interpreter's exit
    # flush would raise on it again; point the stream's descriptor at the
    # null device instead, as the `signal` module's note on SIGPIPE advises.
    for stream in filter(None, (sys.stdout, sys.stderr)):
        try:
            stream.flush()
        except OSError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            if devnull != stream.fileno():  # it took the stream's closed fd: keep it
                os.dup2(devnull, stream.fileno())
                os.close(devnull)
    sys.exit(code)


if __name__ == "__main__":
    main()
