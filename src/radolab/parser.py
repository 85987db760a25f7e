"""Recursive-descent parser for Diophantine equations, and the inverse
canonical renderer.

Grammar (whitespace between tokens is ignored):

    equation := expr "=" expr
    expr     := ["-"] term (("+"|"-") term)*
    term     := factor ("*"? factor)*
    factor   := integer | variable ("^" integer)?
    variable := letter (letter|digit)*
    integer  := digit+

Juxtaposition multiplies ("3x", "x y"), written exponents must be >= 1,
coefficients are integer literals only.  The parsed equation is normalized
to LHS - RHS = 0 with the leading graded-lex monomial positive.

Integer literals, and the combined coefficient of each monomial, may have at
most `sys.get_int_max_str_digits()` decimal digits (4300 by default; 0 means
no limit), so that every coefficient can be written back out in a report.
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


def _digit_limit() -> int:
    """The interpreter's limit on the digits of an int/str conversion, 0 for
    none (Python 3.10 before 3.10.7 has none)."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get else 0


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Returns (kind, value, position) triples; kind in
    {'int', 'name', '+', '-', '*', '^', '='}."""
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
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            limit = _digit_limit()
            if limit and j - i > limit:
                raise ParseError(i, f"integer literal has {j - i} digits",
                                 f"at most {limit} digits")
            tokens.append(("int", text[i:j], i))
            i = j
        elif ch.isalpha():
            j = i
            while j < n and (text[j].isalnum()):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        else:
            raise ParseError(i, f"unexpected character {ch!r}", "token")
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _take(self):
        tok = self._peek()
        if tok is None:
            raise ParseError(len(self.text), "unexpected end of input", "token")
        self.pos += 1
        return tok

    def _expect(self, kind: str):
        tok = self._peek()
        if tok is None:
            raise ParseError(len(self.text), "unexpected end of input", kind)
        if tok[0] != kind:
            raise ParseError(tok[2], f"unexpected {tok[1]!r}", kind)
        return self._take()

    # terms are accumulated as {((name, exp), ...): coeff}

    def parse_equation(self) -> Equation:
        lhs_terms, lhs_text, lhs_at = self.parse_expr()
        self._expect("=")
        rhs_terms, rhs_text, rhs_at = self.parse_expr()
        tok = self._peek()
        if tok is not None:
            raise ParseError(tok[2], f"unexpected {tok[1]!r} after equation", "end of input")
        terms = dict(lhs_terms)
        for key, c in rhs_terms.items():
            terms[key] = terms.get(key, 0) - c
        limit = _digit_limit()
        for key, c in terms.items():
            # |c| >= 10^limit needs more than 3*limit bits
            if limit and c.bit_length() > 3 * limit and abs(c) >= 10 ** limit:
                raise ParseError(lhs_at.get(key, rhs_at.get(key)),
                                 f"coefficient has more than {limit} digits",
                                 f"at most {limit} digits")
        return Equation.from_polynomial(
            Polynomial.from_terms(terms), lhs_text.strip(), rhs_text.strip()
        )

    def parse_expr(self) -> tuple[dict, str, dict]:
        """Terms, source text, and the position of each monomial's first
        term."""
        start = self._peek()[2] if self._peek() else len(self.text)
        sign = 1
        if self._peek() and self._peek()[0] == "-":
            self._take()
            sign = -1
        terms: dict[tuple, int] = {}
        first_at: dict[tuple, int] = {}

        def add(sign):
            at = self._peek()[2] if self._peek() else len(self.text)
            key, coeff = self.parse_term()
            terms[key] = terms.get(key, 0) + sign * coeff
            first_at.setdefault(key, at)

        add(sign)
        while self._peek() and self._peek()[0] in ("+", "-"):
            add(1 if self._take()[0] == "+" else -1)
        end = self._peek()[2] if self._peek() else len(self.text)
        return terms, self.text[start:end], first_at

    def parse_term(self) -> tuple[tuple, int]:
        coeff, exps = self.parse_factor()
        while True:
            tok = self._peek()
            if tok and tok[0] == "*":
                self._take()
                c, e = self.parse_factor()
            elif tok and tok[0] in ("int", "name"):
                c, e = self.parse_factor()
            else:
                break
            coeff *= c
            for v, k in e.items():
                exps[v] = exps.get(v, 0) + k
        key = tuple(sorted((v, k) for v, k in exps.items() if k))
        return key, coeff

    def parse_factor(self) -> tuple[int, dict]:
        tok = self._peek()
        if tok is None:
            raise ParseError(len(self.text), "unexpected end of input", "integer or variable")
        kind, value, pos = tok
        if kind == "int":
            self._take()
            return int(value), {}
        if kind == "name":
            self._take()
            exp = 1
            nxt = self._peek()
            if nxt and nxt[0] == "^":
                self._take()
                etok = self._expect("int")
                exp = int(etok[1])
                if exp < 1:
                    raise ParseError(etok[2], "written exponents must be >= 1", "integer >= 1")
            return 1, {value: exp}
        raise ParseError(pos, f"unexpected {value!r}", "integer or variable")


def parse(text: str) -> Equation:
    """Parse one equation; raises ParseError on malformed input."""
    if not text.strip():
        raise ParseError(0, "empty input", "equation")
    return _Parser(text).parse_equation()


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
