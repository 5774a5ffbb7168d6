import random

import pytest
from hypothesis import given, settings, strategies as st

from guardres import ParseError, parse_program, render_program
from guardres.parse import _tokenize

from corpus import (
    EXAMPLE_TEXT,
    LP_PIECES,
    example_program,
    random_lp_text,
    random_program,
    reference_tokenize,
    small_programs,
)


def _signature(program):
    name = program.atoms.name
    return [
        (name(c.head),
         frozenset(name(a) for a in c.pos_body),
         frozenset(name(a) for a in c.neg_body))
        for c in program.clauses
    ]


def test_parse_single_fact():
    program = parse_program("t.")
    assert _signature(program) == [("t", frozenset(), frozenset())]


def test_parse_worked_example():
    program = example_program()
    assert program.atoms.names == ("p", "t", "q", "r", "s")
    assert _signature(program) == [
        ("p", frozenset({"t"}), frozenset({"q"})),
        ("p", frozenset(), frozenset({"r"})),
        ("q", frozenset(), frozenset({"s"})),
        ("t", frozenset(), frozenset()),
    ]


def test_parse_comments_and_whitespace():
    text = "% header\n  p :- q ,\n not r . % trailing\nq.\n"
    program = parse_program(text)
    assert _signature(program) == [
        ("p", frozenset({"q"}), frozenset({"r"})),
        ("q", frozenset(), frozenset()),
    ]


def test_parse_dedups_clauses():
    program = parse_program("a :- not b.\na :- not b.\n")
    assert len(program.clauses) == 1


def test_bare_not_is_an_error():
    with pytest.raises(ParseError) as info:
        parse_program("p :- not.")
    assert (info.value.span.line, info.value.span.column) == (1, 6)


def test_not_in_head_is_an_error():
    with pytest.raises(ParseError) as info:
        parse_program("not p.")
    assert (info.value.span.line, info.value.span.column) == (1, 1)


def test_missing_head_is_an_error():
    with pytest.raises(ParseError) as info:
        parse_program(":- p.")
    assert (info.value.span.line, info.value.span.column) == (1, 1)


def test_unterminated_clause_is_an_error():
    with pytest.raises(ParseError):
        parse_program("p :- q")


def test_unexpected_character_is_an_error():
    with pytest.raises(ParseError) as info:
        parse_program("p?")
    assert (info.value.span.line, info.value.span.column) == (1, 2)


def test_error_span_on_later_line():
    with pytest.raises(ParseError) as info:
        parse_program("a.\nb :- not .\n")
    assert (info.value.span.line, info.value.span.column) == (2, 6)


def test_render_fact():
    assert render_program(parse_program("t.")) == "t.\n"


def test_render_orders_pos_before_neg_by_id():
    program = parse_program("p :- not r, q.")
    assert render_program(program) == "p :- q, not r.\n"


def test_parse_render_parse_is_parse_on_example():
    program = example_program()
    again = parse_program(render_program(program))
    assert _signature(again) == _signature(program)
    assert again.atoms.names == program.atoms.names


def test_render_is_byte_stable_after_one_pass():
    once = render_program(parse_program(EXAMPLE_TEXT))
    twice = render_program(parse_program(once))
    assert once == twice


def test_normalization_idempotent_on_random_corpus():
    rng = random.Random(1234)
    for _ in range(120):
        program = random_program(rng)
        once = render_program(program)
        reparsed = parse_program(once)
        assert _signature(reparsed) == _signature(program)
        assert render_program(parse_program(render_program(reparsed))) == \
            render_program(reparsed)


def _scan(tokenize, text):
    """Tokens, or the error as (message, line, column)."""
    try:
        return tokenize(text)
    except ParseError as exc:
        return exc.message, exc.span.line, exc.span.column


@pytest.mark.parametrize("text, expected", [
    # A comment never advances the column, so end of input sits at its `%`.
    ("a. % note", [("ident", "a", 1, 1), (".", ".", 1, 2), ("eof", "", 1, 4)]),
    ("a.\r\nb.\r\n", [("ident", "a", 1, 1), (".", ".", 1, 2),
                         ("ident", "b", 2, 1), (".", ".", 2, 2), ("eof", "", 3, 1)]),
    ("\tp?", ("unexpected character '?'", 1, 3)),
    ("a :- \u00e9.", ("unexpected character '\u00e9'", 1, 6)),
    ("a :- not.", [("ident", "a", 1, 1), (":-", ":-", 1, 3), ("not", "not", 1, 6),
                   (".", ".", 1, 9), ("eof", "", 1, 10)]),
    ("", [("eof", "", 1, 1)]),
])
def test_scanner_edge_cases(text, expected):
    assert _scan(_tokenize, text) == expected
    assert _scan(reference_tokenize, text) == expected


@pytest.mark.parametrize("text, message, line, column", [
    ("p :- q % c", "expected ',' or '.', found end of input", 1, 8),
    ("a.\r\nb :- not .\r\n", "expected atom name after 'not'", 2, 6),
    ("\tp :- q, \u00e9.", "unexpected character '\u00e9'", 1, 10),
    ("a :- not.", "expected atom name after 'not'", 1, 6),
])
def test_parse_error_positions(text, message, line, column):
    with pytest.raises(ParseError) as info:
        parse_program(text)
    assert (info.value.message, info.value.span.line, info.value.span.column) == \
        (message, line, column)


def test_parse_empty_file():
    program = parse_program("")
    assert program.clauses == ()
    assert len(program.atoms) == 0


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(LP_PIECES), max_size=40).map("".join))
def test_scanner_matches_reference_property(text):
    assert _scan(_tokenize, text) == _scan(reference_tokenize, text)


def test_scanner_matches_reference_on_corpus():
    rng = random.Random(4321)
    texts = [random_lp_text(rng) for _ in range(2000)]
    texts += [render_program(random_program(rng)) for _ in range(200)]
    texts.append(EXAMPLE_TEXT)
    for text in texts:
        assert _scan(_tokenize, text) == _scan(reference_tokenize, text)


@settings(max_examples=200, deadline=None)
@given(small_programs())
def test_render_parse_roundtrip_property(program):
    again = parse_program(render_program(program))
    assert _signature(again) == _signature(program)
    # Re-parsing numbers atoms by first appearance, which can reorder a
    # body group once ("b :- not a, not b." over table b, a); from the
    # second pass on the text is a fixpoint.
    text = render_program(again)
    assert render_program(parse_program(text)) == text
