"""Text DSL for series literals and the surface/map/ode document formats.

Grammar (everything else is a located syntax error):

    series ::= ['-'] term (('+'|'-') term)*
    term   ::= factor ('*' factor)*
    factor ::= rational | 'i' | '(' coeff ')' | theta | var ('^' nat)?
    theta  ::= 'theta' nat             # the document's value nat, if it has one
    coeff  ::= ['-'] cterm (('+'|'-') cterm)*     # inside parentheses
    cterm  ::= rational ('*' 'i')? | 'i'
    rational ::= nat ('/' nat)?
    nat    ::= [0-9]+                  # ASCII digits only, at most 4300

Documents are key/value lines; '#' starts a comment.  Parsing never raises
anything but :class:`ParseError`, which always carries line and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .rational import _reduced, format_fraction
from .series import TruncatedSeries, _trusted, format_series


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


# int() refuses longer digit strings on Python 3.10.7 and later; the grammar
# refuses them on every Python
MAX_DIGITS = 4300


def _natural(text: str, line: int, column: int) -> int:
    if len(text) > MAX_DIGITS:
        raise ParseError(f"number has more than {MAX_DIGITS} digits", line, column)
    return int(text)


# a word that may name theta value J: ASCII digits, at most MAX_DIGITS
_THETA = re.compile(rf"theta([0-9]{{1,{MAX_DIGITS}}})")

# one token per match: an ASCII number, a word, an operator, or any other
# character, which is an error; only space and tab are skipped
_TOKEN = re.compile(r"[ \t]*(?:([0-9]+)|(\w+)|([-+*/^()])|([^ \t]))")


def _tokenize(text: str, line: int, column: int) -> list[tuple]:
    """The tokens ``(kind, text, column)`` of ``text`` on ``line``, whose
    first character is at source ``column``, closed by ``("", "", end
    column)``.  The kind is ``"0"`` for a number, ``"i"`` for the imaginary
    unit, ``"a"`` for any other name and the character itself for an
    operator."""
    tokens = []
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        tok = m[group]
        at = column + m.start(group)
        if group == 1:
            tokens.append(("0", tok, at))
        elif group == 3:
            tokens.append((tok, tok, at))
        elif group == 2 and (tok[0].isalpha() or tok[0] == "_"):
            tokens.append(("i" if tok == "i" else "a", tok, at))
        elif tok[0].isdigit():
            raise ParseError(f"digits must be ASCII 0-9, found {tok[0]!r}", line, at)
        else:
            raise ParseError(f"unexpected character {tok[0]!r}", line, at)
    tokens.append(("", "", column + len(text)))
    return tokens


def _rational(tokens, pos: int, line: int) -> tuple[int, int, int]:
    """``(numerator, denominator, next position)`` of the rational at ``pos``."""
    num = _natural(tokens[pos][1], line, tokens[pos][2])
    if tokens[pos + 1][0] != "/":
        return num, 1, pos + 1
    kind, text, column = tokens[pos + 2]
    if kind != "0":
        raise ParseError("expected a denominator after '/'", line, column)
    den = _natural(text, line, column)
    if den == 0:
        raise ParseError("zero denominator", line, column)
    return num, den, pos + 3


def _paren_coeff(tokens, pos: int, line: int) -> tuple[int, int, int, int]:
    """``(a, b, d, next position)`` of the coefficient ``(a + b*i) / d``
    in parentheses, from ``pos`` just past the ``(``."""
    a, b, d = 0, 0, 1
    sign = 1
    if tokens[pos][0] == "-":
        pos += 1
        sign = -1
    while True:
        kind, _, column = tokens[pos]
        if kind == "i":
            pos += 1
            x, y, e = 0, sign, 1
        elif kind == "0":
            x, e, pos = _rational(tokens, pos, line)
            x, y = sign * x, 0
            if tokens[pos][0] == "*" and tokens[pos + 1][0] == "i":
                pos += 2
                x, y = 0, x
        else:
            raise ParseError("expected a rational or 'i' in coefficient", line, column)
        a, b, d = a * e + x * d, b * e + y * d, d * e
        kind, _, column = tokens[pos]
        pos += 1
        if kind == ")":
            return a, b, d, pos
        if kind != "+" and kind != "-":
            raise ParseError("expected '+', '-' or ')' in coefficient", line, column)
        sign = 1 if kind == "+" else -1


def parse_series(
    text: str,
    variables,
    order: int,
    line: int = 1,
    column: int = 1,
    warnings: list[str] | None = None,
) -> TruncatedSeries:
    tokens = _tokenize(text, line, column)
    return _parse_tokens(tokens, tuple(variables), order, line, warnings)


def _parse_tokens(tokens, variables, order, line, warnings, theta=None) -> TruncatedSeries:
    """The series the tokens spell, in one pass.  Each term's coefficient
    is kept as integers ``(a + b*i) / d`` and reduced once; a term above
    ``order`` is dropped with a warning, added to ``warnings`` only if the
    whole series parses.  A word ``thetaJ`` is the factor ``theta[J]``
    when ``theta`` has that key, whatever the variables are named."""
    table: dict = {}  # every term adds here: a series sum per term would copy it each time
    dropped = []
    pos = 0
    sign = 1
    if tokens[0][0] == "-":
        pos = 1
        sign = -1
    while True:
        start = tokens[pos][2]
        a, b, d = sign, 0, 1
        exps = [0] * len(variables)
        saw_factor = False
        while True:
            kind, text, column = tokens[pos]
            if kind == "0":
                num, den, pos = _rational(tokens, pos, line)
                a, b, d = a * num, b * num, d * den
            elif kind == "i":
                pos += 1
                a, b = -b, a
            elif kind == "a" and theta and (j := _THETA.fullmatch(text)) and int(j[1]) in theta:
                pos += 1
                t = theta[int(j[1])]
                a, b, d = a * t.numerator, b * t.numerator, d * t.denominator
            elif kind == "a":
                pos += 1
                if text not in variables:
                    raise ParseError(
                        f"unknown variable {text!r} (declared: {' '.join(variables)})",
                        line,
                        column,
                    )
                power = 1
                if tokens[pos][0] == "^":
                    kind, exponent, column = tokens[pos + 1]
                    if kind != "0":
                        raise ParseError(
                            "expected a nonnegative integer exponent after '^'", line, column
                        )
                    pos += 2
                    power = _natural(exponent, line, column)
                exps[variables.index(text)] += power
            elif kind == "(":
                x, y, e, pos = _paren_coeff(tokens, pos + 1, line)
                a, b, d = a * x - b * y, a * y + b * x, d * e
            else:
                if saw_factor:  # after a factor, only a '*' leads here
                    raise ParseError("expected a factor after '*'", line, column)
                break
            saw_factor = True
            if tokens[pos][0] != "*":
                break
            pos += 1
        if not saw_factor:
            raise ParseError("expected a term", line, start)
        degree = sum(exps)
        if degree > order:
            dropped.append(
                f"monomial of degree {degree} exceeds declared order {order}; "
                f"dropped (line {line}, column {start})"
            )
        else:
            mi = tuple(exps)
            coeff = _reduced(a, b, d)
            table[mi] = table[mi] + coeff if mi in table else coeff
        kind, text, column = tokens[pos]
        if kind == "":
            if warnings is not None:
                warnings.extend(dropped)
            return _trusted(variables, order, table, None)
        if kind != "+" and kind != "-":
            raise ParseError(
                f"expected '+', '-' or end of series, found {text!r}", line, column
            )
        pos += 1
        sign = 1 if kind == "+" else -1


# ----------------------------------------------------------------------
# documents

DOCUMENT_KINDS = ("surface", "map", "ode")

# in document order, so a document lacking several keys names the first
_REQUIRED_KEYS = {
    "surface": (("vars", "order"), ("Q", "phi")),
    "map": (("order", "F", "G"), ()),
    "ode": (("gamma", "vars", "order", "p", "q"), ()),
}


@dataclass
class Document:
    kind: str
    body: dict  # parsed, typed values
    warnings: list[str] = field(default_factory=list)

    def print(self) -> str:
        lines = [f"kind: {self.kind}"]
        if self.kind == "ode":
            lines.append(f"gamma: {self.body['gamma']}")
        lines.append("vars: " + " ".join(self.body["vars"]))
        lines.append(f"order: {self.body['order']}")
        if self.kind == "surface":
            key = "Q" if "Q" in self.body else "phi"
            lines.append(f"{key}: {format_series(self.body[key])}")
        elif self.kind == "map":
            lines.append(f"F: {format_series(self.body['F'])}")
            lines.append(f"G: {format_series(self.body['G'])}")
        else:
            lines.append("p: " + " ; ".join(format_series(p) for p in self.body["p"]))
            lines.append(f"q: {format_series(self.body['q'])}")
            if self.body.get("theta"):
                lines.append("theta: " + " ".join(map(format_fraction, self.body["theta"])))
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        if not isinstance(other, Document):
            return NotImplemented
        return self.kind == other.kind and self.body == other.body


def _split_lines(text: str):
    for lineno, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped:
            continue
        if ":" not in stripped:
            raise ParseError("expected 'key: value'", lineno, 1)
        key, _, value = stripped.partition(":")
        # 1-based column of the value's first character
        column = len(stripped) - len(value.lstrip()) + 1
        yield lineno, key.strip(), value.strip(), column


# a theta value: ['-'] nat ('/' nat)?, with ASCII digits
_FRACTION = re.compile(r"(-?)([0-9]+)(?:/([0-9]+))?")


def _parse_fraction_token(text: str, line: int, column: int) -> Fraction:
    m = _FRACTION.fullmatch(text)
    if m:
        num = _natural(m[2], line, column)
        den = _natural(m[3], line, column + len(m[1]) + len(m[2]) + 1) if m[3] else 1
        if den:
            return Fraction(-num if m[1] else num, den)
    raise ParseError(f"bad rational {text!r}", line, column)


def parse_document(text: str) -> Document:
    entries = {}
    positions = {}
    for lineno, key, value, col in _split_lines(text):
        if key in entries:
            raise ParseError(f"duplicate key {key!r}", lineno, 1)
        entries[key] = value
        positions[key] = (lineno, col)

    if "kind" in entries:
        kind = entries.pop("kind")
        if kind not in DOCUMENT_KINDS:
            line, col = positions["kind"]
            raise ParseError(f"unknown document kind {kind!r}", line, col)
    elif "Q" in entries or "phi" in entries:
        kind = "surface"
    elif "F" in entries or "G" in entries:
        kind = "map"
    elif "gamma" in entries:
        kind = "ode"
    else:
        raise ParseError("cannot determine document kind", 1, 1)

    required, one_of = _REQUIRED_KEYS[kind]
    for key in required:
        if key not in entries:
            raise ParseError(f"{kind} document is missing {key!r}", 1, 1)
    if one_of and not any(key in entries for key in one_of):
        raise ParseError(f"{kind} document needs one of {list(one_of)}", 1, 1)

    warnings: list[str] = []
    body: dict = {}

    def intval(key):
        line, col = positions[key]
        value = entries[key]
        if not (value.isascii() and value.removeprefix("-").isdigit()):
            raise ParseError(f"{key} must be an integer", line, col)
        v = _natural(value.removeprefix("-"), line, col)
        if v and value[0] == "-":
            raise ParseError(f"{key} must be nonnegative", line, col)
        return v

    order = intval("order")
    body["order"] = order

    if kind == "ode":
        body["gamma"] = intval("gamma")
        variables = tuple(entries["vars"].split())
        if len(variables) < 2:
            line, col = positions["vars"]
            raise ParseError("ode needs at least 'x y1'", line, col)
    elif kind == "map" and "vars" not in entries:
        variables = ("z", "w")
        positions["vars"] = (1, 1)
    else:
        variables = tuple(entries["vars"].split())
        if len(variables) != (3 if kind == "surface" else 2):
            line, col = positions["vars"]
            raise ParseError(
                f"{kind} document needs exactly "
                f"{3 if kind == 'surface' else 2} variables",
                line,
                col,
            )
    if len(set(variables)) != len(variables):
        line, col = positions["vars"]
        raise ParseError("repeated variable name", line, col)
    if "i" in variables:
        line, col = positions["vars"]
        raise ParseError("'i' is reserved for the imaginary unit", line, col)
    body["vars"] = variables

    theta: list[Fraction] = []
    if kind == "ode" and "theta" in entries:
        line, col = positions["theta"]
        for tok in re.finditer(r"[^ \t,]+", entries["theta"]):
            theta.append(_parse_fraction_token(tok[0], line, col + tok.start()))
    named = dict(enumerate(theta, 1))  # the word thetaJ names theta[J - 1]

    def series_value(key, value=None, offset=0):
        """Parse the value of ``key``, or the part ``value`` of it starting
        ``offset`` characters in."""
        line, col = positions[key]
        tokens = _tokenize(entries[key] if value is None else value, line, col + offset)
        return _parse_tokens(tokens, variables, order, line, warnings, named)

    if kind == "surface":
        if "Q" in entries:
            body["Q"] = series_value("Q")
        else:
            body["phi"] = series_value("phi")
    elif kind == "map":
        body["F"] = series_value("F")
        body["G"] = series_value("G")
    else:
        comps = entries["p"].split(";")
        if len(comps) != len(variables) - 1:
            line, col = positions["p"]
            raise ParseError(
                f"p needs {len(variables) - 1} components separated by ';'",
                line,
                col,
            )
        starts = [0]
        for comp in comps[:-1]:
            starts.append(starts[-1] + len(comp) + 1)
        body["p"] = [series_value("p", comp, start) for comp, start in zip(comps, starts)]
        body["q"] = series_value("q")
        body["theta"] = theta

    return Document(kind, body, warnings)
