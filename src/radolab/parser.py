"""Recursive-descent parser for Diophantine equations, and the inverse
canonical renderer.

Grammar (whitespace between tokens is ignored):

    equation := expr "=" expr
    expr     := ["-"] term (("+"|"-") term)*
    term     := factor ("*"? factor)*
    factor   := integer | variable ("^" integer)?
    variable := letter (letter|digit)*
    integer  := digit+

Digits are the ASCII digits 0-9; letters are whatever `str.isalpha` accepts.
Juxtaposition multiplies ("3x", "x y"), written exponents must be >= 1,
coefficients are integer literals only.  The parsed equation is normalized
to LHS - RHS = 0 with the leading graded-lex monomial positive.

Each grammar rule is a function of the token list and an index that returns
what it parsed and the next index; the list ends with an 'end' token, so
every lookahead is a plain index.

Integer literals, the running product of the literals in each term, the
combined coefficient of each monomial and the summed exponent of a name
repeated in a term (x^a*x^b) may have at most `sys.get_int_max_str_digits()`
decimal digits (4300 by default; 0 means no limit), so that every
coefficient and exponent can be written back out in a report.  A term's
product is checked after each literal, before anything to its right is
parsed.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .model import Equation, Polynomial


@dataclass
class ParseError(Exception):
    position: int
    message: str
    expected: str

    def __str__(self) -> str:
        return f"{self.message} at position {self.position} (expected {self.expected})"


_TOKEN_CHARS = set("+-*^=")
_DIGITS = set("0123456789")


def _digit_limit() -> int:
    """The interpreter's limit on the digits of an int/str conversion, 0 for
    none (Python 3.10 before 3.10.7 has none)."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get else 0


def _check_digits(c: int, at: int, what: str = "coefficient") -> None:
    """Raise a ParseError at `at` if `c` has more digits than the limit."""
    limit = _digit_limit()
    # |c| >= 10^limit needs more than 3*limit bits
    if limit and c.bit_length() > 3 * limit and abs(c) >= 10 ** limit:
        raise ParseError(at, f"{what} has more than {limit} digits",
                         f"at most {limit} digits")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Returns (kind, value, position) triples; kind in
    {'int', 'name', '+', '-', '*', '^', '=', 'end'}, the list closed by one
    'end' token at len(text)."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_CHARS:
            tokens.append((ch, ch, i))
            i += 1
        elif ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            limit = _digit_limit()
            if limit and j - i > limit:
                raise ParseError(i, f"integer literal has {j - i} digits",
                                 f"at most {limit} digits")
            tokens.append(("int", text[i:j], i))
            i = j
        elif ch.isalpha():
            j = i
            while j < n and (text[j].isalpha() or text[j] in _DIGITS):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        else:
            raise ParseError(i, f"unexpected character {ch!r}", "token")
    tokens.append(("end", "", n))
    return tokens


def _unexpected(token: tuple[str, str, int], expected: str) -> ParseError:
    kind, value, pos = token
    if kind == "end":
        return ParseError(pos, "unexpected end of input", expected)
    return ParseError(pos, f"unexpected {value!r}", expected)


def _term(tokens: list, i: int) -> tuple[tuple, int, int]:
    """term := factor ("*"? factor)*, from tokens[i]: the monomial key
    ((name, exp), ...), the coefficient and the next index.  The running
    coefficient is checked after each literal, so a long product stops at
    the first factor that takes it past the digit limit; a name's summed
    exponent is checked when the name repeats."""
    at = tokens[i][2]
    coeff, exps = 1, {}
    while True:
        kind, value, _ = tokens[i]
        if kind == "int":
            coeff *= int(value)
            _check_digits(coeff, at)
            i += 1
        elif kind == "name":
            exp = 1
            if tokens[i + 1][0] == "^":
                etok = tokens[i + 2]
                if etok[0] != "int":
                    raise _unexpected(etok, "int")
                exp = int(etok[1])
                if exp < 1:
                    raise ParseError(etok[2], "written exponents must be >= 1",
                                     "integer >= 1")
                i += 2
            if value in exps:
                # a repeated name: its summed exponent must print too
                exp += exps[value]
                _check_digits(exp, at, "exponent")
            exps[value] = exp
            i += 1
        else:
            raise _unexpected(tokens[i], "integer or variable")
        if tokens[i][0] == "*":
            i += 1
        elif tokens[i][0] not in ("int", "name"):
            return tuple(sorted(exps.items())), coeff, i


def _expr(text: str, tokens: list, i: int) -> tuple[dict, str, dict, int]:
    """expr := ["-"] term (("+"|"-") term)*, from tokens[i]: the terms
    {key: coeff}, the source text, the position of each monomial's first
    term and the next index."""
    start = tokens[i][2]
    sign = 1
    if tokens[i][0] == "-":
        sign, i = -1, i + 1
    terms: dict[tuple, int] = {}
    first_at: dict[tuple, int] = {}
    while True:
        at = tokens[i][2]
        key, coeff, i = _term(tokens, i)
        terms[key] = terms.get(key, 0) + sign * coeff
        first_at.setdefault(key, at)
        kind, _, pos = tokens[i]
        if kind not in ("+", "-"):
            return terms, text[start:pos], first_at, i
        sign, i = (1 if kind == "+" else -1), i + 1


def parse(text: str) -> Equation:
    """Parse one equation; raises ParseError on malformed input."""
    if not text.strip():
        raise ParseError(0, "empty input", "equation")
    tokens = _tokenize(text)
    terms, lhs_text, lhs_at, i = _expr(text, tokens, 0)
    if tokens[i][0] != "=":
        raise _unexpected(tokens[i], "=")
    rhs_terms, rhs_text, rhs_at, i = _expr(text, tokens, i + 1)
    kind, value, pos = tokens[i]
    if kind != "end":
        raise ParseError(pos, f"unexpected {value!r} after equation", "end of input")
    for key, c in rhs_terms.items():
        terms[key] = terms.get(key, 0) - c
    for key, c in terms.items():
        _check_digits(c, lhs_at.get(key, rhs_at.get(key)))
    return Equation.from_polynomial(
        Polynomial.from_terms(terms), lhs_text.strip(), rhs_text.strip()
    )


def _render_monomial(poly: Polynomial, index: int) -> str:
    m = poly.monomials[index]
    parts = [
        poly.variables[i] if e == 1 else f"{poly.variables[i]}^{e}"
        for i, e in m.exponents
    ]
    c = abs(m.coeff)
    if not parts:
        return str(c)
    if c != 1:
        parts.insert(0, str(c))
    return "*".join(parts)


def pretty(eq: Equation) -> str:
    """Canonical text (graded-lex order, explicit * and ^); re-parseable."""
    poly = eq.poly
    if poly.is_zero():
        return "0 = 0"
    pieces = []
    for idx, m in enumerate(poly.monomials):
        body = _render_monomial(poly, idx)
        if idx == 0:
            pieces.append(f"-{body}" if m.coeff < 0 else body)
        else:
            pieces.append(("- " if m.coeff < 0 else "+ ") + body)
    return " ".join(pieces) + " = 0"
