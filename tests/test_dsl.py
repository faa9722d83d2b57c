"""Series-literal grammar and document parsing."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crjets.rational import ComplexRational as CR
from crjets.series import TruncatedSeries as TS, format_series
from crjets.dsl import ParseError, parse_document, parse_series

I = CR(0, 1)
ZXT = ("z", "x", "t")


def test_parse_heisenberg_literal():
    out = parse_series("t + 2*i*z*x", ZXT, 8)
    assert out == TS(ZXT, 8, {(0, 0, 1): 1, (1, 1, 0): 2 * I})


def test_parse_zero():
    assert parse_series("0", ZXT, 4).is_zero


def test_parse_cancellation():
    assert parse_series("1/2*z^2 - 1/2*z^2", ZXT, 4).is_zero


def test_parse_signs_and_parens():
    out = parse_series("-3/4*z + (1/2+3/4*i)*x^2", ZXT, 6)
    assert out == TS(
        ZXT, 6, {(1, 0, 0): Fraction(-3, 4), (0, 2, 0): CR(Fraction(1, 2), Fraction(3, 4))}
    )


def test_parse_negative_paren_coefficient():
    out = parse_series("2*(-1/2)*x", ZXT, 3)
    assert out == TS(ZXT, 3, {(0, 1, 0): -1})


def test_parse_repeated_variable_multiplies():
    out = parse_series("z*z*x", ZXT, 5)
    assert out == TS(ZXT, 5, {(2, 1, 0): 1})


def test_exponent_beyond_order_warns_and_drops():
    warnings = []
    out = parse_series("t + z^9", ZXT, 4, warnings=warnings)
    assert out == TS(ZXT, 4, {(0, 0, 1): 1})
    assert warnings and "exceeds declared order" in warnings[0]


@pytest.mark.parametrize(
    "text",
    [
        "",
        "t +",
        "2**z",
        "z^",
        "z^x",
        "(1/2",
        "1/0*z",
        "t $ x",
        "q + t",
        "i^2",  # exponent applies to variables only
    ],
)
def test_malformed_series_located(text):
    with pytest.raises(ParseError) as err:
        parse_series(text, ZXT, 6)
    assert err.value.line >= 1 and err.value.column >= 1


@pytest.mark.parametrize("text,column", [("t*", 3), ("z*+x", 3), ("2*(1/2)*", 9)])
def test_a_dangling_star_is_a_located_error(text, column):
    with pytest.raises(ParseError) as err:
        parse_series(text, ZXT, 6)
    assert (err.value.message, err.value.line, err.value.column) == (
        "expected a factor after '*'",
        1,
        column,
    )


@pytest.mark.parametrize(
    "template,line,column",
    [
        ("vars: z x t\norder: 4\nQ: t + {}*z*x\n", 3, 8),  # a literal
        ("vars: z x t\norder: 4\nQ: t + 1/{}*z*x\n", 3, 10),  # a denominator
        ("vars: z x t\norder: 4\nQ: t + z^{}\n", 3, 10),  # an exponent
        ("vars: z x t\norder: {}\nQ: t\n", 2, 8),  # the order
    ],
)
def test_a_number_of_more_than_4300_digits_is_a_located_error(template, line, column):
    with pytest.raises(ParseError) as err:
        parse_document(template.format("1" * 4301))
    assert (err.value.message, err.value.line, err.value.column) == (
        "number has more than 4300 digits",
        line,
        column,
    )
    parse_document(template.format("0" * 4299 + "1"))  # 4300 digits are a number


def test_a_theta_name_of_more_than_4300_digits_is_an_unknown_variable():
    text = "gamma: 0\nvars: x y\norder: 4\np: theta{}*y\nq: 1\ntheta: 1/2\n"
    with pytest.raises(ParseError) as err:
        parse_document(text.format("1" * 4301))
    assert err.value.message.startswith("unknown variable 'theta111")
    assert (err.value.line, err.value.column) == (4, 4)


def test_series_print_parse_round_trip():
    examples = [
        "0",
        "t + 2*i*z*x",
        "t - 2*z^2*x^2 + (1/2-1/3*i)*z*x*t",
        "-z + x - t",
        "5/7*z^3",
    ]
    for text in examples:
        once = parse_series(text, ZXT, 9)
        again = parse_series(format_series(once), ZXT, 9)
        assert once == again


# ----------------------------------------------------------------------
# documents


SURF = """\
# the quadric model
vars: z x t
order: 10
Q: t + 2*i*z*x
"""

MAP = """\
vars: z w
order: 6
F: z + z*w
G: w
"""

ODE = """\
gamma: 0
vars: x y
order: 12
p: 2*y + theta1*x*y
q: 1
theta: 1/3
"""


def test_parse_surface_document():
    doc = parse_document(SURF)
    assert doc.kind == "surface"
    assert doc.body["order"] == 10
    assert doc.body["Q"] == TS(ZXT, 10, {(0, 0, 1): 1, (1, 1, 0): 2 * I})


def test_parse_map_document():
    doc = parse_document(MAP)
    assert doc.kind == "map"
    assert doc.body["F"] == TS(("z", "w"), 6, {(1, 0): 1, (1, 1): 1})


def test_map_document_vars_default():
    doc = parse_document("order: 5\nF: z\nG: w + w^2\n")
    assert doc.kind == "map"
    assert doc.body["vars"] == ("z", "w")


def test_parse_ode_document_with_theta():
    doc = parse_document(ODE)
    assert doc.kind == "ode"
    assert doc.body["gamma"] == 0
    assert doc.body["theta"] == [Fraction(1, 3)]
    assert doc.body["p"][0] == TS(
        ("x", "y"), 12, {(0, 1): 2, (1, 1): Fraction(1, 3)}
    )


def test_ten_thetas_substitute_whole_names():
    thetas = " ".join(str(j) for j in range(1, 11))
    doc = parse_document(
        f"gamma: 0\nvars: x y\norder: 6\np: theta10*y + theta1*x\nq: 1\ntheta: {thetas}\n"
    )
    assert doc.body["p"][0] == TS(("x", "y"), 6, {(0, 1): 10, (1, 0): 1})


def test_error_after_substituted_theta_has_source_column():
    thetas = " ".join(str(j) for j in range(1, 11))
    with pytest.raises(ParseError) as err:
        parse_document(
            f"gamma: 0\nvars: x y\norder: 6\np: theta10*y + 1/0*x\nq: 1\ntheta: {thetas}\n"
        )
    # p: theta10*y + 1/0*x
    #                  ^ column 18
    assert (err.value.message, err.value.line, err.value.column) == ("zero denominator", 4, 18)


def test_error_in_later_p_component_has_source_column():
    with pytest.raises(ParseError) as err:
        parse_document("gamma: 0\nvars: x y1 y2\norder: 6\np: y1 + x; y2 + 1/0*x\nq: 1\n")
    # p: y1 + x; y2 + 1/0*x
    #                   ^ column 19
    assert (err.value.message, err.value.line, err.value.column) == ("zero denominator", 4, 19)


def test_dropped_monomial_after_theta_has_source_column():
    doc = parse_document(
        "gamma: 0\nvars: x y1 y2\norder: 2\np: y1 + x;  y2 + theta1*x^3\nq: 1\ntheta: 1/2\n"
    )
    assert doc.warnings == [
        "monomial of degree 3 exceeds declared order 2; dropped (line 4, column 18)"
    ]


def test_document_round_trip():
    for text in (SURF, MAP, ODE):
        doc = parse_document(text)
        assert parse_document(doc.print()) == doc


@pytest.mark.parametrize(
    "text",
    [
        "vars: z x t\norder: 8\n",  # missing series
        "vars: z x\norder: 8\nQ: t\n",  # wrong arity
        "vars: z x t\norder: -1\nQ: t\n",
        "vars: z x t\norder: 8\nQ: t\nQ: t\n",  # duplicate
        "kind: widget\nvars: z x t\norder: 4\nQ: t\n",
        "vars: z i t\norder: 4\nQ: t\n",  # reserved name
        "gamma: 1\nvars: x y\norder: 4\np: y ; y\nq: 1\n",  # component count
        "just some text\n",
    ],
)
def test_malformed_documents_located(text):
    with pytest.raises(ParseError) as err:
        parse_document(text)
    assert err.value.line >= 1


# ----------------------------------------------------------------------
# digits are ASCII


@pytest.mark.parametrize(
    "text,column", [("t + ²*z*x", 5), ("z^²", 3), ("1/²*z", 3), ("٣*z", 1), ("2٣*z", 2)]
)
def test_non_ascii_digit_is_a_located_error(text, column):
    with pytest.raises(ParseError) as err:
        parse_series(text, ZXT, 6)
    assert (err.value.line, err.value.column) == (1, column)
    assert "ASCII" in err.value.message


def test_superscript_after_a_letter_stays_part_of_the_name():
    with pytest.raises(ParseError) as err:
        parse_series("x²", ZXT, 6)
    assert err.value.message.startswith("unknown variable 'x²'")


@pytest.mark.parametrize(
    "p,column",
    [("theta1*y1 + x ; ", 19), ("theta1*y1 + ; theta2*y2", 16)],
)
def test_an_empty_p_term_after_theta_substitution_is_located(p, column):
    # the first component keeps its trailing space through the substitution
    text = f"kind: ode\ngamma: 0\nvars: x y1 y2\norder: 4\np: {p}\nq: 1\ntheta: 1/2 3\n"
    with pytest.raises(ParseError) as err:
        parse_document(text)
    assert str(err.value) == f"expected a term (line 5, column {column})"


@pytest.mark.parametrize(
    "text",
    [
        "vars: z x t\norder: ٣\nQ: t\n",
        "gamma: ٣\nvars: x y\norder: 4\np: y\nq: 1\n",
        "gamma: 0\nvars: x y\norder: 4\np: y\nq: 1\ntheta: ٣\n",
        "gamma: 0\nvars: x y\norder: 4\np: theta٣*y\nq: 1\ntheta: 1 2 3\n",
    ],
)
def test_non_ascii_digits_in_documents_are_rejected(text):
    with pytest.raises(ParseError):
        parse_document(text)


# ----------------------------------------------------------------------
# properties: only located ParseErrors, and a literal is the sum of its terms

_ANY_TEXT = st.text(
    alphabet=st.one_of(st.characters(), st.sampled_from("²٣½zxtswyi0123456789+-*/^() :;\n#")),
    max_size=60,
)
_LINE_TEXT = _ANY_TEXT.map(lambda v: v.replace("\n", " "))
_KEYS = ("kind", "vars", "order", "Q", "phi", "F", "G", "gamma", "p", "q", "theta")
_VALUES = st.one_of(
    st.sampled_from(["z x t", "z x s", "z w", "x y", "x y1 y2", "0", "4", "٣", "surface"]),
    _LINE_TEXT,
)
_ORDERS = st.one_of(st.sampled_from(["4", "12", "٣", "-1"]), _LINE_TEXT)
_SERIES = st.one_of(
    st.sampled_from(["t + ²*z*x", "z^²", "1/²*z", "٣*z", "x²", "t + 2*i*z*x", "z + theta1"]),
    _LINE_TEXT,
)
_TEMPLATES = (
    "vars: z x t\norder: {}\nQ: {}\n",
    "order: {}\nF: {}\nG: w\n",
    "gamma: 0\nvars: x y\norder: {}\np: {}\nq: 1\ntheta: 1/2\n",
)
_DOCUMENTS = st.one_of(
    st.lists(
        st.one_of(st.builds("{}: {}".format, st.sampled_from(_KEYS), _VALUES), _ANY_TEXT),
        max_size=7,
    ).map("\n".join),
    st.builds(str.format, st.sampled_from(_TEMPLATES), _ORDERS, _SERIES),
)


def _raises_only_located_parse_errors(parse, text):
    try:
        parse(text)
    except ParseError as exc:
        assert exc.line >= 1 and exc.column >= 1


@settings(max_examples=300, deadline=None)
@given(_ANY_TEXT)
def test_parse_series_raises_only_located_parse_errors(text):
    _raises_only_located_parse_errors(lambda s: parse_series(s, ZXT, 6), text)


@settings(max_examples=300, deadline=None)
@given(_DOCUMENTS)
def test_parse_document_raises_only_located_parse_errors(text):
    _raises_only_located_parse_errors(parse_document, text)


_FRACTIONS = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def _coefficients(draw):
    """(source text or None for an implicit 1, value)."""
    form = draw(st.sampled_from(["none", "int", "fraction", "paren", "i"]))
    if form == "none":
        return None, CR(1)
    if form == "i":
        return "i", I
    if form == "paren":
        re_, im = draw(_FRACTIONS), draw(_FRACTIONS)
        sign = "-" if im < 0 else "+"
        return f"({re_}{sign}{abs(im)}*i)", CR(re_, im)
    value = abs(draw(_FRACTIONS)) if form == "fraction" else Fraction(draw(st.integers(0, 9)))
    return str(value), CR(value)


@st.composite
def _literals(draw):
    """A literal built term by term, with its term-by-term sum and warnings.

    Monomials come from a small pool, so they repeat; a term may be followed
    by its negation, so it cancels; exponents reach past the order, so some
    terms are dropped with a warning."""
    order = draw(st.integers(0, 5))
    pool = draw(st.lists(st.tuples(*[st.integers(0, 4)] * 3), min_size=1, max_size=4))
    text, expected, warnings = "", TS.zero(ZXT, order), []
    for index in range(draw(st.integers(1, 8))):
        mi = draw(st.sampled_from(pool))
        coeff_text, value = draw(_coefficients())
        negative = draw(st.booleans())
        factors = [coeff_text] if coeff_text else []
        for name, e in zip(ZXT, mi):
            if e:
                factors.append(draw(st.sampled_from([f"{name}^{e}", "*".join([name] * e)])))
        term = "*".join(factors) or "1"
        for repeat in range(1 + (draw(st.booleans()) and index > 0)):
            if text or negative:
                text += (" - " if negative else " + ") if text else "-"
            column = len(text) + 1
            text += term
            if sum(mi) > order:
                warnings.append(
                    f"monomial of degree {sum(mi)} exceeds declared order {order}; "
                    f"dropped (line 1, column {column})"
                )
            else:
                expected = expected + TS(ZXT, order, {mi: -value if negative else value})
            negative = not negative  # the repeat cancels the term
    return text, order, expected, warnings


@settings(max_examples=300, deadline=None)
@given(_literals())
def test_a_literal_is_the_sum_of_its_terms(literal):
    text, order, expected, expected_warnings = literal
    warnings = []
    assert parse_series(text, ZXT, order, warnings=warnings) == expected
    assert warnings == expected_warnings
