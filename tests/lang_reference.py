"""Reference copy of the pipeline lexer, parser and printer as they were
before ``semaq.lang`` stated the language in one token regex and one operator
table: a character loop and one ladder per operator.

``tests/test_lang_oracle.py`` checks ``semaq.lang`` against it.  Everything
after ``parse_pipeline`` is the earlier code, verbatim; keep it that way.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

from semaq.errors import PipelineSyntaxError, ValidationError
from semaq.lang import (FIELD_TYPES, Compute, Limit, LogicalOp, LogicalPlan,
                        Project, Scan, Search, SemFilter, SemMap)


def parse_pipeline(text: str) -> LogicalPlan:
    if not text.strip():
        raise PipelineSyntaxError("empty pipeline")
    return _Parser(_lex(text)).parse()


def print_pipeline(plan: LogicalPlan) -> str:
    return _print_ops(plan.ops)


def make_plan(ops: Sequence[LogicalOp]) -> LogicalPlan:
    ops = tuple(ops)
    if not ops or not isinstance(ops[0], Scan):
        raise ValidationError("a pipeline must start with scan(...)")
    if any(isinstance(op, Scan) for op in ops[1:]):
        raise ValidationError("scan may only appear first")
    canonical = _print_ops(ops)
    plan_id = "lp-" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]
    return LogicalPlan(ops=ops, plan_id=plan_id)



_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}


def escape_string(text: str) -> str:
    return "".join(_ESCAPES.get(ch, ch) for ch in text)


def _quote(text: str) -> str:
    return f'"{escape_string(text)}"'


def _print_op(op: LogicalOp) -> str:
    if isinstance(op, Scan):
        return f"scan({op.context_ref})"
    if isinstance(op, SemFilter):
        return f"sem_filter({_quote(op.predicate)})"
    if isinstance(op, SemMap):
        fields = ", ".join(f"{name}: {ftype}" for name, ftype in op.output_fields)
        return f"sem_map({_quote(op.instruction)}, {{{fields}}})"
    if isinstance(op, Project):
        return f"project({', '.join(op.fields)})"
    if isinstance(op, Limit):
        return f"limit({op.count})"
    if isinstance(op, Compute):
        return f"compute({_quote(op.instruction)})"
    if isinstance(op, Search):
        return f"search({_quote(op.instruction)})"
    raise ValidationError(f"unknown operator: {op!r}")


def _print_ops(ops: Sequence[LogicalOp]) -> str:
    return " | ".join(_print_op(op) for op in ops)



@dataclass(frozen=True)
class _Token:
    kind: str  # ident | string | number | punct | eof
    value: str
    line: int
    column: int


_PUNCT = "|(){}:,"
_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in _PUNCT:
            tokens.append(_Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        if ch == '"':
            start_line, start_col = line, col
            i += 1
            col += 1
            out = []
            while True:
                if i >= n:
                    raise PipelineSyntaxError("unterminated string literal",
                                              start_line, start_col)
                ch = text[i]
                if ch == '"':
                    i += 1
                    col += 1
                    break
                if ch == "\n":
                    raise PipelineSyntaxError(
                        "raw newline in string literal (use \\n)", line, col)
                if ch == "\\":
                    if i + 1 >= n:
                        raise PipelineSyntaxError("dangling escape", line, col)
                    esc = text[i + 1]
                    if esc not in _UNESCAPES:
                        raise PipelineSyntaxError(f"unknown escape \\{esc}", line, col)
                    out.append(_UNESCAPES[esc])
                    i += 2
                    col += 2
                    continue
                out.append(ch)
                i += 1
                col += 1
            tokens.append(_Token("string", "".join(out), start_line, start_col))
            continue
        # isdecimal, not isdigit: '²' is a digit that int() rejects
        if ch.isdecimal():
            start_col = col
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(_Token("number", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _IDENT_START:
            start_col = col
            j = i
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            tokens.append(_Token("ident", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        raise PipelineSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


# --- parsing ----------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _next(self) -> _Token:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def _expect(self, kind: str, value: str | None = None) -> _Token:
        tok = self._next()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            raise PipelineSyntaxError(
                f"expected {want!r}, found {tok.value or tok.kind!r}",
                tok.line, tok.column)
        return tok

    def parse(self) -> LogicalPlan:
        ops: list[LogicalOp] = [self._parse_scan()]
        while True:
            tok = self._peek()
            if tok.kind == "eof":
                break
            if tok.kind == "punct" and tok.value == "|":
                self._next()
                ops.append(self._parse_op())
                continue
            raise PipelineSyntaxError(
                f"expected '|' or end of pipeline, found {tok.value!r}",
                tok.line, tok.column)
        try:
            return make_plan(ops)
        except ValidationError as exc:
            raise PipelineSyntaxError(str(exc)) from exc

    def _parse_scan(self) -> Scan:
        tok = self._expect("ident")
        if tok.value != "scan":
            raise PipelineSyntaxError(
                f"pipeline must start with scan(...), found {tok.value!r}",
                tok.line, tok.column)
        self._expect("punct", "(")
        ref = self._expect("ident")
        self._expect("punct", ")")
        return Scan(context_ref=ref.value)

    def _parse_op(self) -> LogicalOp:
        name_tok = self._expect("ident")
        name = name_tok.value
        self._expect("punct", "(")
        try:
            if name == "sem_filter":
                op: LogicalOp = SemFilter(predicate=self._expect("string").value)
            elif name == "sem_map":
                instruction = self._expect("string").value
                self._expect("punct", ",")
                op = SemMap(instruction=instruction, output_fields=self._parse_field_map())
            elif name == "project":
                op = Project(fields=self._parse_ident_list())
            elif name == "limit":
                count_tok = self._expect("number")
                op = Limit(count=int(count_tok.value))
            elif name == "compute":
                op = Compute(instruction=self._expect("string").value)
            elif name == "search":
                op = Search(instruction=self._expect("string").value)
            elif name == "scan":
                raise PipelineSyntaxError("scan may only appear first",
                                          name_tok.line, name_tok.column)
            else:
                raise PipelineSyntaxError(f"unknown operator {name!r}",
                                          name_tok.line, name_tok.column)
        except ValidationError as exc:
            raise PipelineSyntaxError(f"{name}: {exc}",
                                      name_tok.line, name_tok.column) from exc
        self._expect("punct", ")")
        return op

    def _parse_field_map(self) -> tuple[tuple[str, str], ...]:
        self._expect("punct", "{")
        fields: list[tuple[str, str]] = []
        while True:
            name = self._expect("ident")
            self._expect("punct", ":")
            ftype = self._expect("ident")
            if ftype.value not in FIELD_TYPES:
                raise PipelineSyntaxError(
                    f"unknown field type {ftype.value!r} "
                    f"(expected one of {', '.join(FIELD_TYPES)})",
                    ftype.line, ftype.column)
            fields.append((name.value, ftype.value))
            tok = self._next()
            if tok.kind == "punct" and tok.value == ",":
                continue
            if tok.kind == "punct" and tok.value == "}":
                break
            raise PipelineSyntaxError(
                f"expected ',' or '}}' in field map, found {tok.value!r}",
                tok.line, tok.column)
        return tuple(fields)

    def _parse_ident_list(self) -> tuple[str, ...]:
        names = [self._expect("ident").value]
        while self._peek().kind == "punct" and self._peek().value == ",":
            self._next()
            names.append(self._expect("ident").value)
        return tuple(names)

