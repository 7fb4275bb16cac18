"""Pipeline DSL: parsing, printing, plan identity, validation."""

import pytest

from semaq import (LogicalPlan, PipelineSyntaxError, ValidationError,
                   context_create, make_plan, make_source_record,
                   parse_pipeline, print_pipeline, validate_plan)
from semaq.lang import (Compute, Limit, Project, Scan, Search, SemFilter,
                        SemMap, escape_string, is_agentic, is_semantic)


FULL = ('scan(emails) | sem_filter("is urgent") | '
        'sem_map("extract the sender", {sender: text, score: number}) | '
        'project(sender, score) | limit(10)')


def test_parse_full_pipeline():
    plan = parse_pipeline(FULL)
    kinds = [type(op) for op in plan.ops]
    assert kinds == [Scan, SemFilter, SemMap, Project, Limit]
    assert plan.ops[0].context_ref == "emails"
    assert plan.ops[2].output_fields == (("sender", "text"), ("score", "number"))
    assert plan.ops[4].count == 10


def test_print_parse_fixed_point():
    plan = parse_pipeline(FULL)
    text = print_pipeline(plan)
    again = parse_pipeline(text)
    assert print_pipeline(again) == text
    assert again.plan_id == plan.plan_id
    assert again.ops == plan.ops


def test_plan_id_is_canonical():
    a = parse_pipeline('scan(x)|sem_filter("p")')
    b = parse_pipeline('scan(x)   |   sem_filter("p")  # trailing comment')
    c = parse_pipeline('scan(x) | sem_filter("q")')
    assert a.plan_id == b.plan_id
    assert a.plan_id != c.plan_id
    assert a.plan_id.startswith("lp-") and len(a.plan_id) == 15


def test_comments_and_multiline():
    text = """# leading comment
scan(docs)          # the source
  | sem_filter("keep it")   # a filter
  | limit(3)
"""
    plan = parse_pipeline(text)
    assert len(plan.ops) == 3


def test_string_escapes_round_trip():
    tricky = 'quote " backslash \\ newline \n tab \t done'
    plan = make_plan([Scan("s"), SemFilter(tricky)])
    printed = print_pipeline(plan)
    assert "\\n" in printed and '\\"' in printed
    assert parse_pipeline(printed).ops[1].predicate == tricky
    assert escape_string('a"b') == 'a\\"b'


def test_agentic_ops_parse():
    plan = parse_pipeline('scan(d) | search("gather facts") | compute("answer")')
    assert isinstance(plan.ops[1], Search)
    assert isinstance(plan.ops[2], Compute)
    assert is_agentic(plan.ops[1]) and is_semantic(plan.ops[1])
    assert not is_agentic(plan.ops[0])


@pytest.mark.parametrize("text,fragment", [
    ("", "empty"),
    ("sem_filter(\"p\")", "scan"),
    ("scan(a) | scan(b)", "scan"),
    ("scan(a) | frobnicate(\"p\")", "frobnicate"),
    ("scan(a) | sem_filter(unquoted)", "string"),
    ("scan(a) | limit(0)", "limit"),
    ("scan(a) | limit(-2)", "unexpected character '-'"),
    ("scan(a) | sem_map(\"i\", {f: float})", "field type"),
    ("scan(a) | sem_map(\"i\", {f: text, f: text})", "repeated"),
    ("scan(a) | sem_filter(\"open", "string"),
    ("scan(a) | sem_filter(\"bad \\x escape\")", "escape"),
    ("scan(a", "expected"),
    ("scan(a) |", "found 'eof'"),
])
def test_syntax_errors(text, fragment):
    with pytest.raises(PipelineSyntaxError) as err:
        parse_pipeline(text)
    assert fragment.lower() in str(err.value).lower()


def test_syntax_error_carries_position():
    with pytest.raises(PipelineSyntaxError) as err:
        parse_pipeline('scan(docs)\n  | wrongop("x")')
    message = str(err.value)
    assert "line 2" in message and "column" in message


def test_number_lexing_accepts_exactly_what_int_accepts():
    # '²' passes str.isdigit() but int('²') raises; '٣' is a decimal three
    with pytest.raises(PipelineSyntaxError) as err:
        parse_pipeline("scan(a) | limit(\u00b2)")
    assert (err.value.line, err.value.column) == (1, 17)
    assert "line 1, column 17" in str(err.value)
    assert parse_pipeline("scan(a) | limit(\u0663)").ops[1] == Limit(count=3)


def test_raw_newline_in_string_rejected():
    with pytest.raises(PipelineSyntaxError):
        parse_pipeline('scan(a) | sem_filter("broken\nstring")')


def test_make_plan_requires_leading_scan():
    with pytest.raises(ValidationError):
        make_plan([SemFilter("p")])
    with pytest.raises(ValidationError):
        make_plan([Scan("a"), Scan("b")])


def test_op_constructors_validate():
    with pytest.raises(ValidationError):
        SemFilter("")
    with pytest.raises(ValidationError):
        SemMap("i", ())
    with pytest.raises(ValidationError):
        Project(())
    with pytest.raises(ValidationError):
        Limit(0)
    with pytest.raises(ValidationError):
        Compute(" ")


def test_validate_plan_context_refs_and_fields():
    records = [make_source_record({"path": "a", "text": "t"}, "a#0")]
    ctx = context_create(records, "docs")
    ok = parse_pipeline('scan(docs) | project(path)')
    assert validate_plan(ok, ctx, known_refs={"docs"}) == []

    unknown_ref = parse_pipeline('scan(ghost) | limit(1)')
    diags = validate_plan(unknown_ref, ctx, known_refs={"docs"})
    assert diags and any("ghost" in d.message for d in diags)

    unknown_field = parse_pipeline('scan(docs) | project(body)')
    diags = validate_plan(unknown_field, ctx, known_refs={"docs"})
    assert diags and any("body" in d.message for d in diags)


def test_validate_plan_sees_mapped_fields():
    records = [make_source_record({"text": "t"}, "a#0")]
    ctx = context_create(records, "docs")
    plan = parse_pipeline(
        'scan(docs) | sem_map("x", {tag: text}) | project(tag, text)')
    assert validate_plan(plan, ctx, known_refs={"docs"}) == []


def test_shipped_pipelines_parse():
    import pathlib
    root = pathlib.Path(__file__).resolve().parent.parent / "pipelines"
    paths = sorted(root.glob("*.pz"))
    assert len(paths) >= 3
    for path in paths:
        plan = parse_pipeline(path.read_text(encoding="utf-8"))
        assert isinstance(plan, LogicalPlan)


def test_lone_surrogate_in_a_string_is_invalid_text():
    with pytest.raises(ValidationError, match="not valid Unicode"):
        make_plan([Scan("a"), SemFilter("x\ud800")])
    with pytest.raises(PipelineSyntaxError, match="not valid Unicode"):
        parse_pipeline('scan(a) | sem_filter("x\ud800")')


def test_eof_after_a_trailing_comment_is_at_the_end_of_the_text():
    for text, line, column in (("scan(a) |  # todo", 1, 18),
                               ("scan(a)\n  | # todo", 2, 11)):
        with pytest.raises(PipelineSyntaxError) as err:
            parse_pipeline(text)
        assert "found 'eof'" in str(err.value)
        assert (err.value.line, err.value.column) == (line, column)


def test_a_number_is_exactly_the_characters_str_isdecimal_accepts():
    from semaq.lang import _TOKEN
    numbers = {chr(code) for code in range(0x110000)
               if _TOKEN.match(chr(code)).lastgroup == "number"}
    assert numbers == {chr(code) for code in range(0x110000) if chr(code).isdecimal()}


def test_describe_op_gives_a_report_row_its_kind_and_unquoted_detail():
    from semaq.lang import describe_op
    plan = parse_pipeline('scan(d) | sem_filter("p \\"q\\"") | sem_map("m", {a: text}) | '
                          'project(a, b) | limit(٣) | compute("c") | search("s")')
    assert [describe_op(op) for op in plan.ops] == [
        ("scan", "d"), ("sem_filter", 'p "q"'), ("sem_map", "m"), ("project", "a, b"),
        ("limit", "3"), ("compute", "c"), ("search", "s")]


@pytest.mark.parametrize("make, message", [
    (lambda: Scan(""), "scan requires a context reference"),
    (lambda: SemMap("  ", (("a", "text"),)), "sem_map instruction must be non-empty"),
    (lambda: SemMap("derive", (("a", "date"),)), "unknown type 'date'"),
    (lambda: Project(("a", "a")), "project fields must be distinct"),
])
def test_operators_reject_arguments_the_parser_never_builds(make, message):
    with pytest.raises(ValidationError, match=message):
        make()


def test_make_plan_rejects_an_operator_type_it_does_not_know():
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class Sample(Limit):
        """A limit by another type: no operator shape describes it."""

    with pytest.raises(ValidationError, match="unknown operator"):
        make_plan([Scan("s"), Sample(2)])


def test_validate_plan_skips_the_field_check_over_a_context_with_no_records():
    plan = parse_pipeline("scan(docs) | project(anything)")
    assert validate_plan(plan, context_create([], "no records yet")) == []
    ctx = context_create([make_source_record({"text": "t"}, "a#0")], "one record")
    assert [d.code for d in validate_plan(plan, ctx)] == ["unknown-field"]
