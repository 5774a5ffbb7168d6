import errno
import io
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from guardres.cli import run
from guardres import ProofError, SupportTable, format_interpretation, parse_program

from corpus import (
    EXAMPLE_TEXT,
    FOUR_PAIRS_TEXT,
    ladder_text,
    random_lp_text,
    reference_certificate,
    reference_format_proof,
    reference_saturate_supports,
    reversed_chain_text,
)


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.lp"
    path.write_text(EXAMPLE_TEXT)
    return str(path)


@pytest.fixture
def odd_file(tmp_path):
    path = tmp_path / "odd.lp"
    path.write_text("p :- not p.\n")
    return str(path)


def test_solve_all_engines_agree_on_example(example_file, capsys):
    outputs = []
    for engine in ("candidate", "completion", "brute"):
        code = run(["solve", example_file, "--engine", engine])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs == ["{p, q, t}\n"] * 3


def test_solve_no_model_exits_10(odd_file, capsys):
    assert run(["solve", odd_file]) == 10
    assert capsys.readouterr().out == ""


def test_solve_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin",
                        io.TextIOWrapper(io.BytesIO(b"a :- not b.\n"), encoding="utf-8"))
    assert run(["solve", "-"]) == 0
    assert capsys.readouterr().out == "{a}\n"


def _run_captured(argv, stdin=b""):
    """`run(argv)` with `stdin` as its standard input: (stdout, stderr, code)."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")), \
            redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return out.getvalue(), err.getvalue(), code


# A lone `\r` is a blank, so the comment runs on to the `\n` and swallows
# `b :- not a.` and `c.`; a file used to read it as three lines.
LONE_CR_BYTES = b"a. % note\rb :- not a.\rc.\n"


def test_lone_carriage_return_in_file_is_a_blank(tmp_path, capsys):
    path = tmp_path / "cr.lp"
    path.write_bytes(LONE_CR_BYTES)
    assert run(["solve", str(path)]) == 0
    assert capsys.readouterr().out == "{a}\n"
    path.write_bytes(b"a.\r:- b.\n")
    assert run(["solve", str(path)]) == 2
    assert capsys.readouterr().err == "error: line 1, column 4: expected clause head, found ':-'\n"


def test_solve_multiple_models_sorted_by_name(tmp_path, capsys):
    path = tmp_path / "two.lp"
    path.write_text("b :- not a.\na :- not b.\n")
    assert run(["solve", str(path)]) == 0
    assert capsys.readouterr().out == "{a}\n{b}\n"


def test_solve_limit(tmp_path, capsys):
    path = tmp_path / "two.lp"
    path.write_text("a :- not b.\nb :- not a.\n")
    # Each engine keeps the first model in its own order: choice tuples
    # for the candidate search, bitmasks for the other two.
    for engine, first in (("candidate", "{b}\n"), ("completion", "{a}\n"),
                          ("brute", "{a}\n")):
        assert run(["solve", str(path), "--limit", "1", "--engine", engine]) == 0
        assert capsys.readouterr().out == first


@pytest.mark.parametrize("engine", ["candidate", "completion", "brute"])
def test_solve_nonsensical_counts_exit_2(example_file, capsys, engine):
    for flags in (["--limit", "-1"], ["--limit", "0"]):
        assert run(["solve", example_file, "--engine", engine] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


def test_solve_certs_block(example_file, capsys):
    assert run(["solve", example_file, "--certs"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("{p, q, t}\nmodel {p, q, t}\n")
    assert "  p <-> -r" in out
    assert "    0| p : {r}" in out
    assert "  -s." in out


GOLDEN = Path(__file__).parent / "golden"

# Two stable models; p has the supports {a, c} and {b, c}, so the blocks
# show `p <-> -a & -c`, `-c.`, `t.` and proofs nested two levels deep.
TWO_MODELS_TEXT = (
    "a :- not b.\nb :- not a.\nt.\nq :- t, not c.\n"
    "p :- q, not a.\np :- not b, not c.\n")


# One stable model each, at sizes the candidate product still solves fast:
# a definite chain of 10 levels, a 3-rung ladder, and the doubling family
# `p_{i+1} :- p_i, q_i` at n = 4, whose proof of p4 has 91 nodes.
CHAIN_TEXT = """\
a0.
a1 :- a0.
a2 :- a1.
a3 :- a2.
a4 :- a3.
a5 :- a4.
a6 :- a5.
a7 :- a6.
a8 :- a7.
a9 :- a8.
a10 :- a9.
"""
LADDER_TEXT = """\
a0 :- not x0.
a1 :- a0, not x1.
a1 :- c1.
c1 :- not y1.
a2 :- a1, not x2.
a2 :- c2.
c2 :- not y2.
a3 :- a2, not x3.
a3 :- c3.
c3 :- not y3.
"""
DOUBLING_TEXT = """\
p0 :- not z.
q0 :- p0.
p1 :- p0, q0.
q1 :- p1.
p2 :- p1, q1.
q2 :- p2.
p3 :- p2, q2.
q3 :- p3.
p4 :- p3, q3.
"""


@pytest.mark.parametrize("text, golden", [
    (EXAMPLE_TEXT, "example_certs.txt"),
    (TWO_MODELS_TEXT, "two_models_certs.txt"),
    (CHAIN_TEXT, "chain_certs.txt"),
    (LADDER_TEXT, "ladder_certs.txt"),
    (DOUBLING_TEXT, "doubling_certs.txt"),
    (FOUR_PAIRS_TEXT, "four_pairs_certs.txt"),
], ids=["example", "two-models", "chain", "ladder", "doubling", "four-pairs"])
def test_solve_certs_golden(tmp_path, capsys, text, golden):
    path = tmp_path / "program.lp"
    path.write_text(text)
    expected = (GOLDEN / golden).read_text()
    # A limit of the model count stops the search early but keeps every block.
    limit = str(expected.count("\nmodel "))
    for flags in ([], ["--limit", limit]):
        assert run(["solve", str(path), "--certs", *flags]) == 0
        assert capsys.readouterr().out == expected


def test_supports_proofs_golden_example(example_file, capsys):
    assert run(["supports", example_file, "--atom", "p", "--proofs"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "example_proofs.txt").read_text()


@pytest.mark.parametrize("argv, golden", [
    (["negate"], "example_negate.txt"),
    (["completion"], "example_completion.txt"),
    (["check-model", "--model", "{p, q, t}"], "example_check_model_stable.txt"),
    (["check-model", "--model", "{p, t}"], "example_check_model_unstable.txt"),
    (["to-dimacs", "--candidate", "5"], "example_dimacs_candidate_5.txt"),
], ids=["negate", "completion", "check-model-stable", "check-model-unstable",
        "to-dimacs-candidate-5"])
def test_example_golden(example_file, capsys, argv, golden):
    assert run([argv[0], example_file, *argv[1:]]) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


def test_solve_certs_requires_candidate_engine(example_file, capsys):
    assert run(["solve", example_file, "--certs", "--engine", "brute"]) == 2


def test_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.lp"
    path.write_text("p :- not.\n")
    assert run(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 1, column 6" in err


def test_missing_literal_exits_2(tmp_path, capsys):
    path = tmp_path / "comma.lp"
    path.write_text("a :- ,.\n")
    assert run(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 1, column 6: expected literal, found ','\n"


def test_unknown_flag_exits_2(example_file, capsys):
    assert run(["solve", example_file, "--bogus"]) == 2
    assert run(["solve", example_file, "--jobs", "2"]) == 2


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2


def test_missing_file_exits_2(capsys):
    assert run(["solve", "/nonexistent/x.lp"]) == 2


def test_file_error_comes_before_flag_errors(tmp_path, capsys):
    # FILE is read before any subcommand checks its flags.
    assert run(["solve", "/nonexistent/x.lp", "--limit", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot read /nonexistent/x.lp: No such file or directory\n"
    path = tmp_path / "bad.lp"
    path.write_text("p :- not.\n")
    assert run(["solve", str(path), "--limit", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: line 1, column 6: ")


def test_undecodable_input_exits_2(tmp_path, monkeypatch, capsys):
    raw = b"\xff\xfe a.\n"
    path = tmp_path / "bad.lp"
    path.write_bytes(raw)
    assert run(["solve", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    assert run(["solve", "-"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read -: ")


def test_undecodable_stdin_exits_2_in_utf8_mode():
    # UTF-8 mode gives stdin's text layer `surrogateescape`; the bytes must
    # still be refused as a read error, as they are in a file.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONUTF8="1", PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "guardres.cli", "solve", "-"],
                          input=b"\xff p.\n", env=env, capture_output=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == b""
    assert done.stderr.startswith(b"error: cannot read -: ")


_SAME_INPUT_COMMANDS = [["solve"], ["solve", "--certs"], ["completion"], ["negate"],
                        ["supports", "--atom", "a", "--proofs"]]


@pytest.fixture(scope="module")
def same_input_file(tmp_path_factory):
    return tmp_path_factory.mktemp("same-input") / "input.lp"


@settings(max_examples=150, deadline=None)
@given(data=st.randoms(use_true_random=False).map(lambda rng: random_lp_text(rng).encode()))
@example(data=LONE_CR_BYTES)
@example(data=b"a.\r:- b.\n")
@example(data=b"a :- not b.\r\nb :- not a.\r\n")
@example(data=b"a.\n\xff\xfe b.\n")
def test_file_and_stdin_read_the_same_program(same_input_file, data):
    same_input_file.write_bytes(data)
    for argv in _SAME_INPUT_COMMANDS:
        out, err, code = _run_captured([argv[0], str(same_input_file), *argv[1:]])
        assert (out, err.replace(str(same_input_file), "-"), code) == \
            _run_captured([argv[0], "-", *argv[1:]], stdin=data)


@pytest.mark.parametrize("argv, text, code", [
    (["solve"], EXAMPLE_TEXT, 0),
    (["solve"], "a :- not a.\n", 10),
    (["check-tight"], "a :- a.\n", 11),
    (["solve"], "a :- ,.\n", 2),
    (["solve", "--engine", "brute"], "".join(f"f{i}.\n" for i in range(21)), 3),
], ids=["0", "10", "11", "2", "3"])
def test_module_entry_point_exit_status(argv, text, code):
    # `main` hands `run`'s code to the process, which is how scripts see it.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "guardres.cli", argv[0], "-", *argv[1:]],
                          input=text.encode(), env=env, capture_output=True, timeout=60)
    assert done.returncode == code, done.stderr
    assert done.stderr.startswith(b"error: ") == (code in (2, 3))


def test_resource_error_exits_3(tmp_path, capsys):
    names = [f"a{i}" for i in range(21)]
    text = "".join(f"{n} :- not b{i}.\n" for i, n in enumerate(names))
    path = tmp_path / "big.lp"
    path.write_text(text)
    assert run(["solve", str(path), "--engine", "brute"]) == 3


def test_supports_output(example_file, capsys):
    assert run(["supports", example_file, "--atom", "p"]) == 0
    assert capsys.readouterr().out == "{q}\n{r}\n"
    assert run(["supports", example_file, "--atom", "r"]) == 0
    assert capsys.readouterr().out == ""


def test_supports_with_proofs(example_file, capsys):
    assert run(["supports", example_file, "--atom", "p", "--proofs"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "{q}\n"
        "0| p : {q}\n"
        "1| p <- t : {q}\n"
        "1| t : {}\n"
        "{r}\n"
        "0| p : {r}\n"
    )


def test_supports_proofs_refuses_a_proof_of_another_guard(example_file, monkeypatch,
                                                         capsys):
    # p's supports {q} and {r} get each other's proof.
    certificates = SupportTable.certificates

    def swapped(table, atom):
        (first, first_proof), (second, second_proof) = certificates(table, atom).items()
        return {first: second_proof, second: first_proof}

    monkeypatch.setattr(SupportTable, "certificates", swapped)
    with pytest.raises(ProofError):
        run(["supports", example_file, "--atom", "p", "--proofs"])
    assert capsys.readouterr().out == ""


def _reference_supports_text(text, atom_name):
    """`supports --proofs` output rebuilt from the reference saturation and search."""
    program = parse_program(text)
    atom = program.atoms.id_of(atom_name)
    out = []
    for guard in reference_saturate_supports(program).supports(atom):
        out.append(format_interpretation(program.atoms, guard) + "\n")
        proof = reference_certificate(program, atom, guard)
        out.append(reference_format_proof(proof, program.atoms))
    return "".join(out)


@pytest.mark.parametrize("text, top", [
    (ladder_text(12, rung_first=False), "a12"),
    (ladder_text(12, rung_first=True), "a12"),
    (reversed_chain_text(60, guard_every=7), "a60"),
], ids=["ladder-chain-first", "ladder-rung-first", "reversed-chain"])
def test_supports_proofs_golden(tmp_path, capsys, text, top):
    path = tmp_path / "golden.lp"
    path.write_text(text)
    assert run(["supports", str(path), "--atom", top, "--proofs"]) == 0
    out = capsys.readouterr().out
    assert out == _reference_supports_text(text, top)
    assert out.count("\n0| ") == (13 if top == "a12" else 1)


DEEP_LEVELS = 3000


@pytest.fixture
def deep_chain_file(tmp_path):
    """`a0.` and `a_i :- a_{i-1}.` up to `DEEP_LEVELS`."""
    path = tmp_path / "chain.lp"
    path.write_text("a0.\n" + "".join(
        f"a{i} :- a{i - 1}.\n" for i in range(1, DEEP_LEVELS + 1)))
    return str(path)


def test_supports_proofs_deep_chain(deep_chain_file, capsys):
    assert run(["supports", deep_chain_file, "--atom", f"a{DEEP_LEVELS}", "--proofs"]) == 0
    expected = ["{}"]
    for i in range(DEEP_LEVELS, 0, -1):
        depth = DEEP_LEVELS - i
        expected += [f"{depth}| a{i} : {{}}", f"{depth + 1}| a{i} <- a{i - 1} : {{}}"]
    expected.append(f"{DEEP_LEVELS}| a0 : {{}}")
    assert capsys.readouterr().out == "".join(line + "\n" for line in expected)


def test_oracle_commands_deep_chain(deep_chain_file, capsys):
    # The reduct operator and the tightness ranks run on the same chain.
    atoms = [f"a{i}" for i in range(DEEP_LEVELS + 1)]
    model = "{" + ", ".join(atoms) + "}"
    assert run(["check-model", deep_chain_file, "--model", model]) == 0
    assert capsys.readouterr().out == "stable: yes\nsupported: yes\nhas-levels: yes\n"
    assert run(["check-tight", deep_chain_file]) == 0
    assert capsys.readouterr().out == "tight\n" + "".join(
        f"{name} {name[1:]}\n" for name in sorted(atoms))


def test_program_commands_deep_chain(deep_chain_file, capsys):
    # Every atom of the chain is a fact of E_P and of the negative program.
    facts = "".join(f"a{i}.\n" for i in range(DEEP_LEVELS + 1))
    assert run(["completion", deep_chain_file]) == 0
    assert capsys.readouterr().out == facts
    assert run(["negate", deep_chain_file]) == 0
    assert capsys.readouterr().out == facts
    assert run(["to-dimacs", deep_chain_file]) == 0
    n = DEEP_LEVELS + 1
    assert capsys.readouterr().out == (
        "".join(f"c {i + 1} a{i}\n" for i in range(n)) + f"p cnf {n} {n}\n1 0\n"
        + "".join(f"-{i} {i + 1} 0\n" for i in range(1, n)))


@pytest.mark.parametrize("limit", [[], ["--limit", "1"]], ids=["all", "limit-1"])
def test_solve_completion_deep_chain(deep_chain_file, capsys, limit):
    assert run(["solve", deep_chain_file, "--engine", "completion", *limit]) == 0
    names = sorted(f"a{i}" for i in range(DEEP_LEVELS + 1))
    assert capsys.readouterr().out == "{" + ", ".join(names) + "}\n"


def test_solve_certs_deep_search(tmp_path, capsys):
    # The search for `top` descends the whole chain before it fails there
    # and falls back to `top :- not x`.  The chain has no base, so its
    # atoms have no supports and the candidate product stays at two.
    path = tmp_path / "chain.lp"
    path.write_text(f"top :- a{DEEP_LEVELS}.\n" + "".join(
        f"a{i} :- a{i - 1}.\n" for i in range(DEEP_LEVELS, 0, -1)) + "top :- not x.\n")
    assert run(["solve", str(path), "--certs"]) == 0
    expected = ["{top}", "model {top}", "  top <-> -x", "    0| top : {x}"]
    expected += [f"  -a{i}." for i in range(DEEP_LEVELS, -1, -1)]
    expected.append("  -x.")
    assert capsys.readouterr().out == "".join(line + "\n" for line in expected)
    assert run(["supports", str(path), "--atom", "top", "--proofs"]) == 0
    assert capsys.readouterr().out == "{x}\n0| top : {x}\n"


def test_supports_unknown_atom(example_file, capsys):
    assert run(["supports", example_file, "--atom", "zz"]) == 2


def test_completion_output(example_file, capsys):
    assert run(["completion", example_file]) == 0
    assert capsys.readouterr().out == (
        "p <-> -q | -r\n"
        "t.\n"
        "q <-> -s\n"
        "-r.\n"
        "-s.\n"
    )


def test_negate_output(example_file, capsys):
    assert run(["negate", example_file]) == 0
    out = capsys.readouterr().out
    assert out == "p :- not q.\np :- not r.\nt.\nq :- not s.\n"
    reparsed = parse_program(out)
    assert all(not c.pos_body for c in reparsed.clauses)


def test_check_tight_output(example_file, capsys):
    assert run(["check-tight", example_file]) == 0
    assert capsys.readouterr().out == "tight\np 1\nq 0\nr 0\ns 0\nt 0\n"


def test_check_tight_not_tight_exits_11(tmp_path, capsys):
    path = tmp_path / "loop.lp"
    path.write_text("p :- p.\n")
    assert run(["check-tight", str(path)]) == 11
    assert capsys.readouterr().out == "not tight\n"


def test_check_tight_on_model(example_file, capsys):
    assert run(["check-tight", example_file, "--on", "{p, q, t}"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "tight"
    assert set(out.splitlines()[1:]) == {"p 0", "q 0", "t 0"}


def test_check_model_output(example_file, capsys):
    assert run(["check-model", example_file, "--model", "{p, q, t}"]) == 0
    assert capsys.readouterr().out == "stable: yes\nsupported: yes\nhas-levels: yes\n"
    assert run(["check-model", example_file, "--model", "{}"]) == 0
    assert capsys.readouterr().out == "stable: no\nsupported: no\nhas-levels: no\n"


def test_check_model_separating_witness(tmp_path, capsys):
    path = tmp_path / "loop.lp"
    path.write_text("p :- p.\n")
    assert run(["check-model", str(path), "--model", "{p}"]) == 0
    assert capsys.readouterr().out == "stable: no\nsupported: yes\nhas-levels: no\n"


def test_check_model_bad_argument(example_file, capsys):
    assert run(["check-model", example_file, "--model", "p, q"]) == 2
    assert run(["check-model", example_file, "--model", "{zz}"]) == 2


def test_to_dimacs_program(example_file, capsys):
    assert run(["to-dimacs", example_file]) == 0
    assert capsys.readouterr().out == (
        "c 1 p\nc 2 t\nc 3 q\nc 4 r\nc 5 s\n"
        "p cnf 5 4\n"
        "1 -2 3 0\n"
        "1 4 0\n"
        "3 5 0\n"
        "2 0\n"
    )


def test_to_dimacs_candidate(example_file, capsys):
    assert run(["to-dimacs", example_file, "--candidate", "0"]) == 0
    out = capsys.readouterr().out
    # Candidate 0 picks the negative choice everywhere: 4 program clauses + 5 units.
    assert "p cnf 5 9" in out
    assert run(["to-dimacs", example_file, "--candidate", "11"]) == 0
    assert "p cnf 5" in capsys.readouterr().out
    assert run(["to-dimacs", example_file, "--candidate", "12"]) == 2


_DIMACS_NAMES = "c 1 p\nc 2 t\nc 3 q\nc 4 r\nc 5 s\n"
_PROGRAM_CLAUSES = "1 -2 3 0\n1 4 0\n3 5 0\n2 0\n"


@pytest.mark.parametrize("index, expected", [
    # Every atom false: the unit -t contradicts the fact t.
    ("0", _DIMACS_NAMES + "p cnf 5 9\n" + _PROGRAM_CLAUSES
     + "-1 0\n-2 0\n-3 0\n-4 0\n-5 0\n"),
    ("5", _DIMACS_NAMES + "p cnf 5 10\n" + _PROGRAM_CLAUSES
     + "-1 -3 0\n1 3 0\n-2 0\n-3 -5 0\n-4 0\n-5 0\n"),
    # p <-> -r, t and q <-> -s repeat program clauses; only the first copy stays.
    ("11", _DIMACS_NAMES + "p cnf 5 8\n" + _PROGRAM_CLAUSES
     + "-1 -4 0\n-3 -5 0\n-4 0\n-5 0\n"),
])
def test_to_dimacs_candidate_golden(example_file, capsys, index, expected):
    assert run(["to-dimacs", example_file, "--candidate", index]) == 0
    assert capsys.readouterr().out == expected


def _choice_pairs_text(pairs):
    return "".join(f"a{i} :- not b{i}.\nb{i} :- not a{i}.\n" for i in range(pairs))


def test_to_dimacs_negative_candidate_exits_2(example_file, capsys):
    assert run(["to-dimacs", example_file, "--candidate", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --candidate INDEX must be non-negative\n"


def test_to_dimacs_candidate_decodes_index_of_large_product(tmp_path, capsys):
    # 11 choice pairs: every atom has one support, so 2^22 candidates.
    path = tmp_path / "pairs.lp"
    path.write_text(_choice_pairs_text(11))
    assert run(["to-dimacs", str(path), "--candidate", str(2 ** 22 - 1)]) == 0
    names = "".join(f"c {2 * i + 1} a{i}\nc {2 * i + 2} b{i}\n" for i in range(11))
    # The last candidate picks `a <-> -b` and `b <-> -a` everywhere: one new
    # clause `-a | -b` per pair after the program's `a | b`.
    pairs = "".join(f"{2 * i + 1} {2 * i + 2} 0\n" for i in range(11))
    exclusions = "".join(f"-{2 * i + 1} -{2 * i + 2} 0\n" for i in range(11))
    assert capsys.readouterr().out == names + "p cnf 22 22\n" + pairs + exclusions
    assert run(["to-dimacs", str(path), "--candidate", str(2 ** 22)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: candidate index {2 ** 22} is out of range\n"


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0


_SUBCOMMANDS = ["solve", "supports", "completion", "negate", "check-tight",
                "check-model", "to-dimacs"]
# Every help text, plus a missing FILE and an unknown subcommand (exit 2).
_HELP_AND_USAGE = [["--help"], *([name, "--help"] for name in _SUBCOMMANDS),
                   ["solve"], ["bogus"]]


@pytest.mark.parametrize("argv", _HELP_AND_USAGE, ids=" ".join)
def test_help_and_usage_ignore_the_terminal_width(monkeypatch, argv):
    results = []
    for columns in ("40", "200", None):
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        results.append(_run_captured(argv))
    assert results[0] == results[1] == results[2]
    out, err, code = results[0]
    assert code == (0 if "--help" in argv else 2)
    assert (out if code == 0 else err).startswith("usage: guardres")


def test_run_never_asks_for_the_terminal_size(example_file, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("run() asked for the terminal size")

    monkeypatch.setattr(shutil, "get_terminal_size", refuse)
    for argv in [*_HELP_AND_USAGE, ["solve", example_file, "--certs"],
                 ["solve", example_file, "--limit", "0"]]:
        _run_captured(argv)


def test_run_reused_in_one_process_matches_fresh_processes(example_file):
    # No state may leak from one call to the next, so a sequence of calls
    # in one process gives what fresh processes give.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    calls = [["solve", example_file, "--certs"], ["--help"], ["solve", example_file, "--bogus"],
             ["supports", example_file, "--atom", "p", "--proofs"],
             ["solve", example_file, "--engine", "completion", "--limit", "1"],
             ["to-dimacs", example_file, "--candidate", "5"]]
    in_process = [_run_captured(argv) for argv in calls]
    assert [code for _, _, code in in_process] == [0, 0, 2, 0, 0, 0]
    for argv, result in zip(calls, in_process):
        done = subprocess.run([sys.executable, "-m", "guardres.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert result == (done.stdout, done.stderr, done.returncode)


_FLAG_WORDS = ["--engine", "candidate", "completion", "brute", "--limit", "--certs",
               "--jobs", "--atom", "--proofs", "--on", "--model", "--candidate",
               "a", "zz", "{a}", "{a, b}", "{", "0", "1", "2", "-1", "x"]
_LP_WORDS = ["a", "b", "c", "d", "not", ":-", ",", ".", "%", "\n"]


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.lp"


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(_SUBCOMMANDS),
       text=st.one_of(st.text(max_size=16),
                      st.lists(st.sampled_from(_LP_WORDS), max_size=30).map(" ".join)),
       flags=st.lists(st.sampled_from(_FLAG_WORDS), max_size=6))
def test_exit_code_contract_property(fuzz_file, command, text, flags):
    fuzz_file.write_text(text, encoding="utf-8")
    out, err, code = _run_captured([command, str(fuzz_file)] + flags)
    assert code in (0, 10, 11, 2, 3)
    # A failed run prints nothing on stdout and says why on stderr.
    if code in (2, 3):
        assert out == ""
    if code == 2:
        assert err.startswith(("error: ", "usage: "))


def test_closed_stdin_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", None)
    assert run(["solve", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot read -: stdin is closed\n"


def test_closed_stdout_exits_2(example_file, odd_file, monkeypatch):
    monkeypatch.setattr(sys, "stdout", None)
    for path, code, message in (
            (example_file, 2, "error: cannot write stdout: stdout is closed\n"),
            # No stable model leaves nothing to write, so a closed stdout is no error.
            (odd_file, 10, "")):
        err = io.StringIO()
        with redirect_stderr(err):
            assert run(["solve", path]) == code
        assert err.getvalue() == message


@pytest.mark.parametrize("method", ["write", "flush"])
@pytest.mark.parametrize("error", [OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
                                   BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))],
                         ids=["ENOSPC", "EPIPE"])
def test_stdout_write_error_exits_2(example_file, monkeypatch, method, error):
    stdout, err = io.StringIO(), io.StringIO()

    def fail(*args):
        raise error

    monkeypatch.setattr(stdout, method, fail)
    monkeypatch.setattr(sys, "stdout", stdout)
    with redirect_stderr(err):
        assert run(["solve", example_file]) == 2
    assert err.getvalue() == f"error: cannot write stdout: {error.strerror}\n"


def _fresh_process(argv, **popen):
    """`argv` as its own process, with this checkout's `src` on the path:
    (exit code, stderr).  Comparing the whole stderr with one `error: `
    line rules out a traceback and an error from the exit flush."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(argv, env=env, stderr=subprocess.PIPE, text=True, timeout=60,
                          **popen)
    return done.returncode, done.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs sh and /dev/full")
@pytest.mark.parametrize("args, redirect, message", [
    (["solve", "-"], "<&-", "cannot read -: stdin is closed"),
    (["solve", "FILE"], ">&-", "cannot write stdout: stdout is closed"),
    (["solve", "FILE"], "> /dev/full", "cannot write stdout: " + os.strerror(errno.ENOSPC)),
    # argparse writes help text itself, so `run` flushes even with no text of its own.
    (["--help"], "> /dev/full", "cannot write stdout: " + os.strerror(errno.ENOSPC)),
], ids=["closed-stdin", "closed-stdout", "dev-full", "help-dev-full"])
def test_io_failure_in_a_fresh_process_exits_2(example_file, args, redirect, message):
    # `sh` closes or redirects the descriptor before Python starts.
    argv = [example_file if arg == "FILE" else arg for arg in args]
    script = f'exec "$0" -m guardres.cli "$@" {redirect}'
    assert _fresh_process(["sh", "-c", script, sys.executable, *argv],
                          stdout=subprocess.DEVNULL) == (2, f"error: {message}\n")


def _bad_and_big_files(tmp_path):
    """A program that fails to parse, and one whose brute-force search is over the cap."""
    bad, big = tmp_path / "bad.lp", tmp_path / "big.lp"
    bad.write_text("p :- .\n")
    big.write_text("".join(f"f{i}.\n" for i in range(21)))
    return {"bad": ["solve", str(bad)], "big": ["solve", str(big), "--engine", "brute"]}


def test_missing_stderr_keeps_the_exit_code_and_stdout_empty(tmp_path, monkeypatch, capsys):
    # `print(file=None)` would have fallen back to stdout.
    monkeypatch.setattr(sys, "stderr", None)
    assert run(_bad_and_big_files(tmp_path)["bad"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("case, code", [("bad", 2), ("big", 3)])
def test_failing_stderr_keeps_the_exit_code(tmp_path, monkeypatch, capsys, case, code):
    stderr = io.StringIO()

    def fail(*args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(stderr, "write", fail)
    monkeypatch.setattr(sys, "stderr", stderr)
    assert run(_bad_and_big_files(tmp_path)[case]) == code
    assert capsys.readouterr().out == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs sh and /dev/full")
@pytest.mark.parametrize("case, redirect, code", [
    ("bad", "2>&-", 2), ("bad", "2> /dev/full", 2), ("big", "2> /dev/full", 3),
], ids=["closed-stderr", "full-stderr", "full-stderr-limit"])
def test_stderr_failure_in_a_fresh_process_keeps_the_exit_code(tmp_path, case, redirect, code):
    argv = _bad_and_big_files(tmp_path)[case]
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    script = f'exec "$0" -m guardres.cli "$@" {redirect}'
    done = subprocess.run(["sh", "-c", script, sys.executable, *argv], env=env,
                          stdout=subprocess.PIPE, timeout=60)
    assert (done.returncode, done.stdout) == (code, b"")


def test_closed_reader_pipe_in_a_fresh_process_exits_2(tmp_path):
    # The reader is gone before the writer starts, so every write meets EPIPE.
    path = tmp_path / "pairs.lp"
    path.write_text(_choice_pairs_text(14))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = _fresh_process(
            [sys.executable, "-m", "guardres.cli", "solve", str(path), "--engine", "completion"],
            stdout=write_end)
    finally:
        os.close(write_end)
    assert result == (2, f"error: cannot write stdout: {os.strerror(errno.EPIPE)}\n")
