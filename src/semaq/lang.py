"""Pipeline language: logical operators, parser, printer, and validation.

Grammar (whitespace-insensitive, ``#`` starts a comment running to end of
line)::

    pipeline := source ('|' op)*
    source   := 'scan' '(' ident ')'
    op       := name '(' args ')'

Supported operators::

    scan(ident)
    sem_filter("predicate")
    sem_map("instruction", {name: type, ...})   # type: text|number|boolean|list
    project(ident [, ident ...])
    limit(integer)
    compute("instruction")
    search("instruction")

String literals are double-quoted with backslash escapes (``\\"``, ``\\\\``,
``\\n``, ``\\t``, ``\\r``).  ``print_pipeline`` emits a canonical form and
``parse(print(parse(text)))`` is a fixed point.  A plan's id is a hash of its
canonical text, so insignificant whitespace never changes identity.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

from .errors import PipelineSyntaxError, ValidationError

FIELD_TYPES = ("text", "number", "boolean", "list")


@dataclass(frozen=True)
class Scan:
    context_ref: str

    def __post_init__(self):
        if not self.context_ref:
            raise ValidationError("scan requires a context reference")


@dataclass(frozen=True)
class SemFilter:
    predicate: str

    def __post_init__(self):
        if not self.predicate.strip():
            raise ValidationError("sem_filter predicate must be non-empty")


@dataclass(frozen=True)
class SemMap:
    instruction: str
    output_fields: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if not self.instruction.strip():
            raise ValidationError("sem_map instruction must be non-empty")
        if not self.output_fields:
            raise ValidationError("sem_map requires at least one output field")
        seen = set()
        for name, ftype in self.output_fields:
            if name in seen:
                raise ValidationError(f"sem_map output field repeated: {name!r}")
            seen.add(name)
            if ftype not in FIELD_TYPES:
                raise ValidationError(
                    f"sem_map field {name!r} has unknown type {ftype!r}")


@dataclass(frozen=True)
class Project:
    fields: tuple[str, ...]

    def __post_init__(self):
        if not self.fields:
            raise ValidationError("project requires at least one field")
        if len(set(self.fields)) != len(self.fields):
            raise ValidationError("project fields must be distinct")


@dataclass(frozen=True)
class Limit:
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValidationError("limit must be >= 1")


@dataclass(frozen=True)
class Compute:
    instruction: str

    def __post_init__(self):
        if not self.instruction.strip():
            raise ValidationError("compute instruction must be non-empty")


@dataclass(frozen=True)
class Search:
    instruction: str

    def __post_init__(self):
        if not self.instruction.strip():
            raise ValidationError("search instruction must be non-empty")


LogicalOp = Scan | SemFilter | SemMap | Project | Limit | Compute | Search

SEMANTIC_OPS = (SemFilter, SemMap, Compute, Search)
AGENTIC_OPS = (Compute, Search)


def is_semantic(op: LogicalOp) -> bool:
    return isinstance(op, SEMANTIC_OPS)


def is_agentic(op: LogicalOp) -> bool:
    return isinstance(op, AGENTIC_OPS)


@dataclass(frozen=True)
class LogicalPlan:
    ops: tuple[LogicalOp, ...]
    plan_id: str

    def __len__(self) -> int:
        return len(self.ops)


def make_plan(ops: Sequence[LogicalOp]) -> LogicalPlan:
    ops = tuple(ops)
    if not ops or not isinstance(ops[0], Scan):
        raise ValidationError("a pipeline must start with scan(...)")
    if any(isinstance(op, Scan) for op in ops[1:]):
        raise ValidationError("scan may only appear first")
    canonical = _print_ops(ops)
    plan_id = "lp-" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]
    return LogicalPlan(ops=ops, plan_id=plan_id)


# --- printing ---------------------------------------------------------------

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


def print_pipeline(plan: LogicalPlan) -> str:
    """Canonical single-line rendering of a plan."""
    return _print_ops(plan.ops)


# --- lexing -----------------------------------------------------------------

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


def parse_pipeline(text: str) -> LogicalPlan:
    """Parse pipeline text into a logical plan.

    Raises :class:`PipelineSyntaxError` with line and column on any lexical
    or structural fault.
    """
    if not text.strip():
        raise PipelineSyntaxError("empty pipeline")
    return _Parser(_lex(text)).parse()


# --- validation -------------------------------------------------------------

@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str


def validate_plan(plan: LogicalPlan, ctx=None,
                  known_refs: set[str] | None = None) -> list[Diagnostic]:
    """Static checks beyond grammar.  Returns a list of diagnostics (empty
    means valid).

    When ``ctx`` carries records, the source schema is inferred from the
    first record and projected fields are checked against it plus any
    upstream sem_map outputs; with no records the check is skipped.
    """
    diags: list[Diagnostic] = []
    scan = plan.ops[0]
    assert isinstance(scan, Scan)
    if known_refs is not None and scan.context_ref not in known_refs:
        diags.append(Diagnostic(
            code="unknown-context-ref",
            message=f"scan references unknown context {scan.context_ref!r} "
                    f"(known: {', '.join(sorted(known_refs)) or 'none'})"))

    schema: set[str] | None = None
    if ctx is not None:
        first = next(iter(ctx.source), None)
        if first is not None:
            schema = set(first.fields.keys())

    for op in plan.ops[1:]:
        if isinstance(op, SemMap):
            if schema is not None:
                schema = schema | {name for name, _ in op.output_fields}
        elif isinstance(op, Project):
            if schema is not None:
                missing = [f for f in op.fields if f not in schema]
                for name in missing:
                    diags.append(Diagnostic(
                        code="unknown-field",
                        message=f"project references field {name!r} that no "
                                f"upstream operator produces"))
                schema = set(op.fields) - set(missing)
    return diags
