"""Differential test of the pipeline language: ``semaq.lang`` against the
earlier lexer, parser and printer kept in ``lang_reference.py``.

Both must give the same printed text, plan id and ops, or the same error
message, line and column.  The one difference allowed is the column of the
end of the text after a trailing comment, which the earlier lexer left at
the ``#``.
"""

import random

from lang_reference import parse_pipeline as reference_parse
from lang_reference import print_pipeline as reference_print
from test_acceptance import _rand_ident, _rand_op

from semaq import PipelineSyntaxError, make_plan, parse_pipeline, print_pipeline
from semaq.lang import Scan

OP_NAMES = ("scan", "sem_filter", "sem_map", "project", "limit", "compute", "search")
# '٣' is a decimal three, '²' a digit int() rejects, 'é' a letter
# outside ASCII, '\u00a0' a space outside the grammar
PIECES = ("(", ")", "|", ",", "{", "}", ":", '"', "\\", "\n", "#", "٣", "²",
          "é", "\t") + OP_NAMES
SOUP = PIECES + (
    "a", "_x1", "emails", "text", "number", "boolean", "list", "float", "0", "7", "42",
    "007", "٣٠", '"p"', '""', '" "', '"a\\"b"', '"\\n\\t\\r\\\\"', '"bad \\x"',
    '"open', "\\\n", " ", "   ", "\r", "# note", "-", "\u00a0", "12ab", " | ", " | ",
    "scan(a)", 'sem_filter("p")', 'sem_map("i", ', "{a: text}", "{a: text, a: list}",
    "project(a, b)", "limit(3)", "limit(0)", 'compute(" ")', 'search("s")')

MUTATED_PROGRAMS = 10_000
TOKEN_SOUPS = 50_000


def _outcome(parse, print_, text):
    try:
        plan = parse(text)
    except PipelineSyntaxError as exc:
        return "error", str(exc), exc.line, exc.column
    return "plan", print_(plan), plan.plan_id, plan.ops


def _eof_after_comment(text, reference, new) -> bool:
    """The outcomes differ only in the eof column after a trailing comment:
    the reference's is at the comment's '#', the new one at the text's end."""
    if reference[0] != "error" or new[0] != "error" or reference[2] != new[2]:
        return False
    last_line = text[text.rfind("\n") + 1:]
    if (new[2], new[3]) != (text.count("\n") + 1, len(last_line) + 1):
        return False
    hash_at = reference[3] - 1
    return (0 <= hash_at < len(last_line) and last_line[hash_at] == "#"
            and reference[1].replace(f"column {reference[3]})", f"column {new[3]})")
            == new[1])


def check_same(text):
    reference = _outcome(reference_parse, reference_print, text)
    new = _outcome(parse_pipeline, print_pipeline, text)
    assert new == reference or _eof_after_comment(text, reference, new), \
        (text, reference, new)


def _mutated_program(rng):
    ops = [Scan(_rand_ident(rng))] + [_rand_op(rng) for _ in range(rng.randint(1, 6))]
    text = print_pipeline(make_plan(ops))
    if rng.random() < 0.5:
        text = text.replace(" | ", "\n  | ")
    for _ in range(rng.randint(1, 3)):  # insert a piece, delete 1-3 chars, or replace them
        at = rng.randint(0, len(text))
        roll = rng.randrange(3)
        piece = "" if roll == 1 else rng.choice(PIECES)
        text = text[:at] + piece + text[at + (roll and rng.randint(1, 3)):]
    return text


def _token_soup(rng):
    pieces = [rng.choice(SOUP) for _ in range(rng.randint(1, 12))]
    text = rng.choice(("", " ")).join(pieces)
    if rng.random() < 0.5:
        text = f"scan({_rand_ident(rng)}) | " + text
    return text


def run_oracle(make_text, count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        check_same(make_text(rng))


def test_mutated_programs_match_reference():
    run_oracle(_mutated_program, MUTATED_PROGRAMS, seed=2001)


def test_token_soups_match_reference():
    run_oracle(_token_soup, TOKEN_SOUPS, seed=2002)


def test_the_only_difference_is_the_eof_column_after_a_comment():
    text = "scan(a) |  # todo"
    reference = _outcome(reference_parse, reference_print, text)
    new = _outcome(parse_pipeline, print_pipeline, text)
    assert reference[2:] == (1, 12) and new[2:] == (1, 18)
    assert _eof_after_comment(text, reference, new)
