"""Series-literal grammar and document parsing."""

from fractions import Fraction

import pytest

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
