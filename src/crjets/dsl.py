"""Text DSL for series literals and the surface/map/ode document formats.

Grammar (everything else is a located syntax error):

    series ::= ['-'] term (('+'|'-') term)*
    term   ::= factor ('*' factor)*
    factor ::= rational | 'i' | '(' coeff ')' | var ('^' nat)?
    coeff  ::= ['-'] cterm (('+'|'-') cterm)*     # inside parentheses
    cterm  ::= rational ('*' 'i')? | 'i'

Documents are key/value lines; '#' starts a comment.  Parsing never raises
anything but :class:`ParseError`, which always carries line and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .rational import ComplexRational as CR
from .series import TruncatedSeries, format_series


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


@dataclass
class _Token:
    kind: str  # NUM IDENT OP EOF
    text: str
    line: int
    column: int


def _tokenize(text: str, line: int = 1, col0: int = 1) -> list[_Token]:
    tokens = []
    i, col = 0, col0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t":
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("NUM", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("OP", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


class _SeriesParser:
    def __init__(self, tokens: list[_Token], variables: tuple[str, ...], order: int):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables
        self.order = order
        self.dropped: list[str] = []

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.column)

    def parse(self) -> TruncatedSeries:
        acc = TruncatedSeries.zero(self.variables, self.order)
        sign = CR(1)
        if self.peek().kind == "OP" and self.peek().text == "-":
            self.take()
            sign = CR(-1)
        acc = acc + self.term(sign)
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in "+-":
                self.take()
                acc = acc + self.term(CR(1) if tok.text == "+" else CR(-1))
            elif tok.kind == "EOF":
                return acc
            else:
                self.error(f"expected '+', '-' or end of series, found {tok.text!r}")

    def term(self, sign: CR) -> TruncatedSeries:
        coeff = sign
        exps = [0] * len(self.variables)
        start = self.peek()
        saw_factor = False
        while True:
            tok = self.peek()
            if tok.kind == "NUM":
                coeff = coeff * self.rational()
                saw_factor = True
            elif tok.kind == "IDENT" and tok.text == "i":
                self.take()
                coeff = coeff * CR(0, 1)
                saw_factor = True
            elif tok.kind == "IDENT":
                self.take()
                if tok.text not in self.variables:
                    raise ParseError(
                        f"unknown variable {tok.text!r} (declared: {' '.join(self.variables)})",
                        tok.line,
                        tok.column,
                    )
                power = 1
                if self.peek().kind == "OP" and self.peek().text == "^":
                    self.take()
                    ptok = self.peek()
                    if ptok.kind != "NUM":
                        self.error("expected a nonnegative integer exponent after '^'")
                    self.take()
                    power = int(ptok.text)
                exps[self.variables.index(tok.text)] += power
                saw_factor = True
            elif tok.kind == "OP" and tok.text == "(":
                coeff = coeff * self.paren_coeff()
                saw_factor = True
            else:
                break
            nxt = self.peek()
            if nxt.kind == "OP" and nxt.text == "*":
                self.take()
                continue
            break
        if not saw_factor:
            raise ParseError("expected a term", start.line, start.column)
        degree = sum(exps)
        if degree > self.order:
            self.dropped.append(
                f"monomial of degree {degree} exceeds declared order {self.order}; "
                f"dropped (line {start.line}, column {start.column})"
            )
            return TruncatedSeries.zero(self.variables, self.order)
        return TruncatedSeries(self.variables, self.order, {tuple(exps): coeff})

    def rational(self) -> CR:
        tok = self.take()
        num = int(tok.text)
        if self.peek().kind == "OP" and self.peek().text == "/":
            self.take()
            dtok = self.peek()
            if dtok.kind != "NUM":
                self.error("expected a denominator after '/'")
            self.take()
            den = int(dtok.text)
            if den == 0:
                raise ParseError("zero denominator", dtok.line, dtok.column)
            return CR(Fraction(num, den))
        return CR(num)

    def paren_coeff(self) -> CR:
        self.take()  # '('
        acc = CR(0)
        sign = CR(1)
        if self.peek().kind == "OP" and self.peek().text == "-":
            self.take()
            sign = CR(-1)
        acc = acc + sign * self.coeff_term()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in "+-":
                self.take()
                acc = acc + (CR(1) if tok.text == "+" else CR(-1)) * self.coeff_term()
            elif tok.kind == "OP" and tok.text == ")":
                self.take()
                return acc
            else:
                self.error("expected '+', '-' or ')' in coefficient")

    def coeff_term(self) -> CR:
        tok = self.peek()
        if tok.kind == "IDENT" and tok.text == "i":
            self.take()
            return CR(0, 1)
        if tok.kind != "NUM":
            self.error("expected a rational or 'i' in coefficient")
        value = self.rational()
        if self.peek().kind == "OP" and self.peek().text == "*":
            nxt = self.tokens[self.pos + 1]
            if nxt.kind == "IDENT" and nxt.text == "i":
                self.take()
                self.take()
                return value * CR(0, 1)
        return value


def parse_series(
    text: str,
    variables,
    order: int,
    line: int = 1,
    column: int = 1,
    warnings: list[str] | None = None,
) -> TruncatedSeries:
    tokens = _tokenize(text, line, column)
    parser = _SeriesParser(tokens, tuple(variables), order)
    out = parser.parse()
    if warnings is not None:
        warnings.extend(parser.dropped)
    return out


# ----------------------------------------------------------------------
# documents

DOCUMENT_KINDS = ("surface", "map", "ode")

_THETA = re.compile(r"\btheta(\d+)\b")

_REQUIRED_KEYS = {
    "surface": ({"vars", "order"}, {"Q", "phi"}),
    "map": ({"order", "F", "G"}, set()),
    "ode": ({"gamma", "vars", "order", "p", "q"}, set()),
}


@dataclass
class Document:
    kind: str
    body: dict  # parsed, typed values
    warnings: list[str] = field(default_factory=list)

    def print(self) -> str:
        lines = [f"kind: {self.kind}"]
        if self.kind == "surface":
            lines.append("vars: " + " ".join(self.body["vars"]))
            lines.append(f"order: {self.body['order']}")
            key = "Q" if "Q" in self.body else "phi"
            lines.append(f"{key}: {format_series(self.body[key])}")
        elif self.kind == "map":
            lines.append("vars: " + " ".join(self.body["vars"]))
            lines.append(f"order: {self.body['order']}")
            lines.append(f"F: {format_series(self.body['F'])}")
            lines.append(f"G: {format_series(self.body['G'])}")
        else:
            lines.append(f"gamma: {self.body['gamma']}")
            lines.append("vars: " + " ".join(self.body["vars"]))
            lines.append(f"order: {self.body['order']}")
            lines.append("p: " + " ; ".join(format_series(p) for p in self.body["p"]))
            lines.append(f"q: {format_series(self.body['q'])}")
            if self.body.get("theta"):
                from .rational import format_fraction

                lines.append(
                    "theta: " + " ".join(format_fraction(t) for t in self.body["theta"])
                )
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        if not isinstance(other, Document):
            return NotImplemented
        return self.kind == other.kind and self.body == other.body


def _split_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped:
            continue
        if ":" not in stripped:
            raise ParseError("expected 'key: value'", lineno, 1)
        key, _, value = stripped.partition(":")
        # 1-based column of the value's first character
        column = len(stripped) - len(value.lstrip()) + 1
        yield lineno, key.strip(), value.strip(), column


def _parse_fraction_token(text: str, line: int, column: int) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational {text!r}", line, column) from None


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
    if one_of and not (one_of & set(entries)):
        raise ParseError(
            f"{kind} document needs one of {sorted(one_of)}", 1, 1
        )

    warnings: list[str] = []
    body: dict = {}

    def intval(key):
        line, col = positions[key]
        try:
            v = int(entries[key])
        except ValueError:
            raise ParseError(f"{key} must be an integer", line, col) from None
        if v < 0:
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
        for tok in entries["theta"].replace(",", " ").split():
            theta.append(_parse_fraction_token(tok, line, col))
        body["theta"] = theta

    def theta_value(match):
        j = int(match[1])
        return f"({theta[j - 1]})" if 1 <= j <= len(theta) else match[0]

    def series_value(key, value=None):
        line, col = positions[key]
        text_value = entries[key] if value is None else value
        text_value = _THETA.sub(theta_value, text_value)
        return parse_series(text_value, variables, order, line, col, warnings)

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
        body["p"] = [series_value("p", comp) for comp in comps]
        body["q"] = series_value("q")
        if "theta" not in body:
            body["theta"] = []

    return Document(kind, body, warnings)
