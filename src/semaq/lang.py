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
``\\n``, ``\\t``, ``\\r``).  Identifiers are ASCII ``[A-Za-z_][A-Za-z0-9_]*``;
a number is decimal digits of any script.  ``_TOKEN`` is the whole token
grammar, and ``_SHAPES`` is the one place an operator's name and argument
shape live: the parser, the printer and the run report's rows all read it.

``print_pipeline`` emits a canonical form and ``parse(print(parse(text)))``
is a fixed point.  A plan's id is a hash of its canonical text, so
insignificant whitespace never changes identity.
"""

from __future__ import annotations

import hashlib
import re
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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
        if self.count > sys.maxsize:  # the largest count a run can stop at
            raise ValidationError(f"limit must be <= {sys.maxsize}")


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


def make_plan(ops: Sequence[LogicalOp]) -> LogicalPlan:
    ops = tuple(ops)
    if not ops or not isinstance(ops[0], Scan):
        raise ValidationError("a pipeline must start with scan(...)")
    if any(isinstance(op, Scan) for op in ops[1:]):
        raise ValidationError("scan may only appear first")
    try:
        canonical = _print_ops(ops).encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate in an argument
        raise ValidationError("pipeline text is not valid Unicode") from None
    plan_id = "lp-" + hashlib.sha256(canonical).hexdigest()[:12]
    return LogicalPlan(ops=ops, plan_id=plan_id)


# --- the operator table -----------------------------------------------------

# operator type -> (name, the kind of each argument in dataclass field order,
# which is the order vars(op) lists them in); the parser reads, the printer
# writes and the run report describes each argument by its kind
_SHAPES: dict[type, tuple[str, tuple[str, ...]]] = {
    Scan: ("scan", ("ident",)),
    SemFilter: ("sem_filter", ("string",)),
    SemMap: ("sem_map", ("string", "fields")),
    Project: ("project", ("idents",)),
    Limit: ("limit", ("number",)),
    Compute: ("compute", ("string",)),
    Search: ("search", ("string",)),
}
_BY_NAME = {name: op_type for op_type, (name, _) in _SHAPES.items()}


def _shape(op: LogicalOp) -> tuple[str, tuple[str, ...]]:
    shape = _SHAPES.get(type(op))
    if shape is None:
        raise ValidationError(f"unknown operator: {op!r}")
    return shape


def describe_op(op: LogicalOp) -> tuple[str, str]:
    """A run report row's kind and detail for ``op``: its name and its
    first argument, unquoted."""
    name, kinds = _shape(op)
    first = next(iter(vars(op).values()))
    return name, ", ".join(first) if kinds[0] == "idents" else str(first)


# --- printing ---------------------------------------------------------------

_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"})
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}


def escape_string(text: str) -> str:
    return text.translate(_ESCAPES)


_FORMATS = {
    "ident": str,
    "string": lambda text: f'"{escape_string(text)}"',
    "number": str,
    "idents": ", ".join,
    "fields": lambda fields: "{" + ", ".join(f"{name}: {ftype}"
                                             for name, ftype in fields) + "}",
}


def _print_op(op: LogicalOp) -> str:
    name, kinds = _shape(op)
    args = ", ".join(_FORMATS[kind](value) for kind, value in zip(kinds, vars(op).values()))
    return f"{name}({args})"


def _print_ops(ops: Sequence[LogicalOp]) -> str:
    return " | ".join(_print_op(op) for op in ops)


def print_pipeline(plan: LogicalPlan) -> str:
    """Canonical single-line rendering of a plan."""
    return _print_ops(plan.ops)


# --- lexing -----------------------------------------------------------------

class _Token(NamedTuple):
    kind: str  # ident | string | number | punct | eof
    value: str
    line: int
    column: int


# the longest valid prefix of a string literal, which lacks only the closing quote
_OPEN_STRING = re.compile(r'"[^"\\\n]*(?:\\["\\ntr][^"\\\n]*)*')
# one alternative per token kind; "error" takes any other character.  \d is
# what str.isdecimal accepts, the digits int() reads ('²' is not one)
_TOKEN = re.compile(rf"""
    (?P<blank>[ \t\r]+|\#[^\n]*)
  | (?P<newline>\n)
  | (?P<punct>[|(){{}}:,])
  | (?P<string>{_OPEN_STRING.pattern}")
  | (?P<number>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<error>.)
""", re.VERBOSE)
_ESCAPE = re.compile(r"\\(.)")


def _string_error(text: str, start: int, line: int, line_start: int) -> PipelineSyntaxError:
    """Say why the string literal opening at ``start`` does not close: the
    character after its longest valid prefix tells."""
    end = _OPEN_STRING.match(text, start).end()
    if end == len(text):
        return PipelineSyntaxError("unterminated string literal", line, start - line_start + 1)
    column = end - line_start + 1
    if text[end] == "\n":
        return PipelineSyntaxError("raw newline in string literal (use \\n)", line, column)
    if end + 1 == len(text):
        return PipelineSyntaxError("dangling escape", line, column)
    return PipelineSyntaxError(f"unknown escape \\{text[end + 1]}", line, column)


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(text):
        kind, value, start = match.lastgroup, match.group(), match.start()
        if kind == "newline":
            line, line_start = line + 1, match.end()
        elif kind == "error":
            if value == '"':
                raise _string_error(text, start, line, line_start)
            raise PipelineSyntaxError(f"unexpected character {value!r}",
                                      line, start - line_start + 1)
        elif kind != "blank":
            if kind == "string":
                value = _ESCAPE.sub(lambda esc: _UNESCAPES[esc.group(1)], value[1:-1])
            tokens.append(_Token(kind, value, line, start - line_start + 1))
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
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

    def _at(self, punct: str) -> bool:
        tok = self._peek()
        return tok.kind == "punct" and tok.value == punct

    def parse(self) -> LogicalPlan:
        ops: list[LogicalOp] = [self._parse_op(first=True)]
        while (tok := self._peek()).kind != "eof":
            if not self._at("|"):
                raise PipelineSyntaxError(
                    f"expected '|' or end of pipeline, found {tok.value!r}",
                    tok.line, tok.column)
            self._next()
            ops.append(self._parse_op(first=False))
        try:
            return make_plan(ops)
        except ValidationError as exc:
            raise PipelineSyntaxError(str(exc)) from exc

    def _parse_op(self, first: bool) -> LogicalOp:
        name_tok = self._expect("ident")
        name = name_tok.value
        if first and name != "scan":
            raise PipelineSyntaxError(
                f"pipeline must start with scan(...), found {name!r}",
                name_tok.line, name_tok.column)
        self._expect("punct", "(")
        op_type = _BY_NAME.get(name)
        if op_type is None:
            raise PipelineSyntaxError(f"unknown operator {name!r}",
                                      name_tok.line, name_tok.column)
        if op_type is Scan and not first:
            raise PipelineSyntaxError("scan may only appear first",
                                      name_tok.line, name_tok.column)
        args = []
        for i, kind in enumerate(_SHAPES[op_type][1]):
            if i:
                self._expect("punct", ",")
            args.append(self._READERS[kind](self))
        try:
            op = op_type(*args)
        except ValidationError as exc:
            raise PipelineSyntaxError(f"{name}: {exc}",
                                      name_tok.line, name_tok.column) from exc
        self._expect("punct", ")")
        return op

    def _read_idents(self) -> tuple[str, ...]:
        names = [self._expect("ident").value]
        while self._at(","):
            self._next()
            names.append(self._expect("ident").value)
        return tuple(names)

    def _read_fields(self) -> tuple[tuple[str, str], ...]:
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
            if tok.kind != "punct" or tok.value not in ",}":
                raise PipelineSyntaxError(
                    f"expected ',' or '}}' in field map, found {tok.value!r}",
                    tok.line, tok.column)
            if tok.value == "}":
                return tuple(fields)

    _READERS = {
        "ident": lambda self: self._expect("ident").value,
        "string": lambda self: self._expect("string").value,
        "number": lambda self: int(self._expect("number").value),
        "idents": _read_idents,
        "fields": _read_fields,
    }


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
