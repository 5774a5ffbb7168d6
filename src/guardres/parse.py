r"""Reader and writer for the `.lp` program text format.

Grammar (UTF-8; `%` starts a comment running to end of line; blanks,
meaning space, tab, `\r` and `\n`, are free-form):

    program  = clause*
    clause   = atom [ ":-" literal ("," literal)* ] "."
    literal  = atom | "not" atom
    atom     = [A-Za-z_][A-Za-z0-9_]*

`not` is a reserved word and cannot name an atom.  Rendering puts
positive body literals first, each group in atom-id order.  Re-parsing a
rendered program gives the same clauses, with atoms numbered by first
appearance; that can reorder a body group once, and from then on the
text is a fixpoint.

The scanner splits the text at `\n` only and runs one regular expression
along each line.  A match is a run of blanks (space, tab, `\r`) and then
a word, `:-`, `,`, `.`, a `%` comment running to the end of the line, or
any other character, which is a ParseError.  Lines and columns are
1-based, and a column counts characters: a tab, a `\r` (so `\r\n` line
ends work) and a non-ASCII character are one column each.  The
end-of-input position is just past the last line's last character, or
at its `%` when the last line ends in a comment, since a comment never
advances the column.

The CLI decodes a FILE and `-` (stdin) the same way: its bytes, once, as
strict UTF-8, with no newline translation.  So a lone `\r` is a blank
from either, never a line end.
"""

from __future__ import annotations

__all__ = ("ParseError", "SourceSpan", "parse_program", "render_program")

import re

from .core import EMPTY, AtomTable, Clause, Program, Record, set_field


class SourceSpan(Record):
    """1-based line/column of the token a parse error points at."""

    __slots__ = ("line", "column")

    def __init__(self, line: int, column: int):
        set_field(self, "line", line)
        set_field(self, "column", column)

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}"


class ParseError(ValueError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span}: {message}")
        self.message = message
        self.span = span


# The error class excludes blanks, so a run of trailing blanks cannot
# give its last one back to it; such a run goes unmatched.
_SCANNER = re.compile(r"[ \t\r]*(?:([A-Za-z_][A-Za-z0-9_]*)|(:-|[,.])|%.*|([^ \t\r]))")

# A token: (kind, text, line, column) with kind "ident", "not", ":-",
# ",", "." or "eof".
_Token = tuple[str, str, int, int]


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    append = tokens.append
    lines = text.split("\n")
    for number, line in enumerate(lines, 1):
        for match in _SCANNER.finditer(line):
            group = match.lastindex
            if group == 1:
                word = match[1]
                append(("not" if word == "not" else "ident", word, number, match.start(1) + 1))
            elif group == 2:
                punct = match[2]
                append((punct, punct, number, match.start(2) + 1))
            elif group == 3:
                raise ParseError(f"unexpected character {match[3]!r}",
                                 SourceSpan(number, match.start(3) + 1))
    # A comment leaves the column where it starts.
    comment = line.find("%")
    append(("eof", "", len(lines), (len(line) if comment < 0 else comment) + 1))
    return tokens


def _fail(message: str, tok: _Token) -> ParseError:
    return ParseError(message, SourceSpan(tok[2], tok[3]))


def _describe(tok: _Token) -> str:
    return "end of input" if tok[0] == "eof" else f"'{tok[1]}'"


def parse_program(text: str) -> Program:
    """Parse `.lp` source into a Program with a fresh, frozen atom table.

    Clause order follows the input; exact duplicate clauses collapse.
    Raises ParseError (with a SourceSpan) on malformed input, a missing
    head, or `not` in head position.
    """
    take = iter(_tokenize(text)).__next__
    table = AtomTable()
    atom_id = table.intern

    # Every branch that takes the eof token stops, so `take` never runs dry.
    clauses: list[Clause] = []
    while True:
        tok = take()
        if tok[0] == "eof":
            break
        if tok[0] == "not":
            raise _fail("'not' cannot appear in the head", tok)
        if tok[0] != "ident":
            raise _fail(f"expected clause head, found {_describe(tok)}", tok)
        head = atom_id(tok[1])
        pos_body: set[int] = set()
        neg_body: set[int] = set()
        tok = take()
        if tok[0] == ":-":
            while True:
                lit = take()
                if lit[0] == "not":
                    name = take()
                    if name[0] != "ident":
                        raise _fail("expected atom name after 'not'", lit)
                    neg_body.add(atom_id(name[1]))
                elif lit[0] == "ident":
                    pos_body.add(atom_id(lit[1]))
                else:
                    raise _fail(f"expected literal, found {_describe(lit)}", lit)
                sep = take()
                if sep[0] == ".":
                    break
                if sep[0] != ",":
                    raise _fail(f"expected ',' or '.', found {_describe(sep)}", sep)
        elif tok[0] != ".":
            raise _fail(f"expected ':-' or '.', found {_describe(tok)}", tok)
        clauses.append(Clause(head, frozenset(pos_body) if pos_body else EMPTY,
                              frozenset(neg_body) if neg_body else EMPTY))
    return Program(table, clauses)


def render_program(program: Program) -> str:
    """Canonical text: one clause per line, body groups in atom-id order."""
    name = program.atoms.name
    lines = []
    for clause in program.clauses:
        lits = [name(a) for a in sorted(clause.pos_body)]
        lits += [f"not {name(a)}" for a in sorted(clause.neg_body)]
        if lits:
            lines.append(f"{name(clause.head)} :- {', '.join(lits)}.")
        else:
            lines.append(f"{name(clause.head)}.")
    return "".join(line + "\n" for line in lines)
