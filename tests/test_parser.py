import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import oracle_parse
from radolab.model import Equation, Polynomial
from radolab.parser import ParseError, parse, pretty


def P(terms):
    return Polynomial.from_terms(terms)


class TestParse:
    def test_pythagorean(self):
        eq = parse("x^2 + y^2 = z^2")
        assert eq.poly == P({(("x", 2),): 1, (("y", 2),): 1, (("z", 2),): -1})

    def test_linear_zero_rhs(self):
        eq = parse("3x - 2y + z = 0")
        assert eq.poly == P({(("x", 1),): 3, (("y", 1),): -2, (("z", 1),): 1})

    def test_subscripted_product(self):
        eq = parse("x^4 - y^4 = z1*z2")
        assert eq.poly == P({(("x", 4),): 1, (("y", 4),): -1,
                             (("z1", 1), ("z2", 1)): -1})

    def test_implicit_multiplication(self):
        assert parse("3x + 2y = z").poly == parse("3*x + 2*y = z").poly
        assert parse("x y = z").poly == parse("x*y = z").poly

    def test_unary_minus_both_sides(self):
        eq = parse("-x + y = -z + w")
        assert eq.poly == parse("y + z = x + w").poly

    def test_sources_kept(self):
        eq = parse("x + y = z")
        assert eq.source_lhs == "x + y" and eq.source_rhs == "z"


class TestPretty:
    def test_schur(self):
        eq = Equation.from_polynomial(
            P({(("x", 1),): 1, (("y", 1),): 1, (("z", 1),): -1}))
        assert pretty(eq) == "x + y - z = 0"

    def test_quartic_product(self):
        eq = parse("x^4 - y^4 = z1*z2")
        assert pretty(eq) == "x^4 - y^4 - z1*z2 = 0"

    def test_coefficients_rendered(self):
        assert pretty(parse("3x - 2y + z = 0")) == "3*x - 2*y + z = 0"

    def test_zero_polynomial(self):
        assert pretty(parse("x = x")) == "0 = 0"
        assert parse("0 = 0").poly.is_zero()

    def test_constant_term(self):
        assert pretty(parse("x = y + 1")) == "x - y - 1 = 0"


class TestErrors:
    @pytest.mark.parametrize("text", [
        "", "   ", "x + y", "x = y = z", "x + = z", "x ^ = 2",
        "1.5x = y", "x^0 = y", "x^-2 = y", "x? = y", "= x",
        "x = ", "(x) = y",
    ])
    def test_malformed(self, text):
        with pytest.raises(ParseError):
            parse(text)

    def test_position_within_input(self):
        for text in ["x^0 = y", "x + = z", "x = y = z", "x = y @"]:
            with pytest.raises(ParseError) as info:
                parse(text)
            assert 0 <= info.value.position <= len(text)
            assert info.value.expected

    def test_exponent_error_position(self):
        with pytest.raises(ParseError) as info:
            parse("x^0 = y")
        assert info.value.position == 2

    def test_digit_limit_boundary(self):
        # the interpreter's int/str digit limit; combined coefficients count
        limit = sys.get_int_max_str_digits()
        nines = "9" * limit
        assert parse(f"x = y + {nines}").poly.constant_term() == -(10 ** limit - 1)
        assert parse(f"x = y + 0{nines[1:]}") is not None
        for text, at in [(f"x = y + 0{nines}", 8), (f"x = y + {nines} + 1", 8),
                         (f"{nines}z + x = y - z", 0), (f"x^1{nines} = y", 2)]:
            with pytest.raises(ParseError) as info:
                parse(text)
            assert info.value.position == at, text

    def test_summed_exponent_digit_limit(self):
        # each written exponent fits the limit, their sum in one term does
        # not: pretty() could not print it.  Distinct names are not summed
        # (their total degree is the degree cap's to reject)
        nines = "9" * sys.get_int_max_str_digits()
        for text, at in [(f"x^{nines}*x^{nines} = y", 0),
                         (f"z = 1 + 2x^{nines} x^{nines}", 8)]:
            with pytest.raises(ParseError) as info:
                parse(text)
            assert info.value.position == at, text
            assert info.value.message.startswith("exponent has more than")
        assert parse(f"x^{nines}*y^{nines} = z").poly.total_degree() \
            == 2 * (10 ** len(nines) - 1)
        half = "4" + "9" * (len(nines) - 1)
        assert pretty(parse(f"x^{half}*x^{half} = y")).startswith("x^9")

    def test_digits_are_ascii(self):
        # int() read these as digits, or raised a bare ValueError
        for text, at in [("x = \u00b2", 4), ("x^\u00b2 = y", 2),
                         ("x = \u0661y", 4)]:
            with pytest.raises(ParseError) as info:
                parse(text)
            assert info.value.position == at, text
        assert parse("x\u00e9 = y").poly.variables == ("x\u00e9", "y")

    def test_product_checked_after_each_literal(self):
        # the first factor past the limit stops the term, at its position,
        # even where the products would cancel or an error lies to the right
        big = "7" * (sys.get_int_max_str_digits() * 2 // 3)
        for text, at in [(f"x = y + {big}*{big} - {big}*{big}", 8),
                         (f"{big}*{big}*x = y^0", 0)]:
            with pytest.raises(ParseError) as info:
                parse(text)
            assert info.value.position == at, text
            assert info.value.message.startswith("coefficient has more than")


@given(st.text(st.one_of(st.sampled_from(list("xy19^*+-= \u00b2\u0661\u00e9")),
                         st.characters()), max_size=12))
@settings(max_examples=1000, deadline=None)
def test_any_text_parses_or_raises_parse_error(text):
    try:
        assert isinstance(parse(text), Equation)
    except ParseError:
        pass


def _outcome(parse_fn, text):
    try:
        eq = parse_fn(text)
    except ParseError as exc:
        return exc.position, exc.message, exc.expected
    return eq.poly, eq.source_lhs, eq.source_rhs


def _token_soup(rng: random.Random) -> str:
    """An equation-shaped token string over an ASCII alphabet, then up to
    three tokens replaced at random; literals have at most 5 digits."""
    factors = ["x", "y", "z1", "w", "ab", "0", "1", "2", "3", "12", "99999"]
    tokens = []
    for side in range(2):
        tokens += [rng.choice(["", "-"]) if side == 0 else "="]
        for k in range(rng.randint(1, 3)):
            if k:
                tokens.append(rng.choice("+-"))
            for f in range(rng.randint(1, 3)):
                tokens += [rng.choice(["", "*"]) if f else "", rng.choice(factors)]
                if tokens[-1].isalpha() and rng.random() < 0.3:
                    tokens += ["^", rng.choice(factors[5:])]
    for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
        tokens.insert(rng.randint(0, len(tokens)),
                      rng.choice(factors + list("+-*^=?")))
        del tokens[rng.randrange(len(tokens))]
    out = ""
    for tok in tokens:
        # a space keeps two literals apart
        sep = " " if out[-1:].isdigit() and tok[:1].isdigit() else rng.choice(["", " ", " ", "\t"])
        out += sep + tok
    return out


def test_matches_oracle_on_seeded_corpus():
    # the class-based parser this one replaced: the same polynomial and
    # source texts, or the same error position, message and expected text
    rng = random.Random(12)
    for _ in range(100_000):
        text = _token_soup(rng)
        assert _outcome(parse, text) == _outcome(oracle_parse, text), text


names_st = st.lists(st.sampled_from(["a", "b", "w", "x", "y", "z",
                                     "x1", "x2", "z1", "z2"]),
                    min_size=1, max_size=6, unique=True)


@st.composite
def equations(draw):
    names = draw(names_st)
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        degrees = []
        budget = 7
        key = []
        for v in names:
            if draw(st.booleans()):
                e = draw(st.integers(1, min(4, budget)))
                budget -= e
                key.append((v, e))
                if budget == 0:
                    break
        coeff = draw(st.integers(-99, 99).filter(bool))
        k = tuple(key)
        terms[k] = terms.get(k, 0) + coeff
    return Equation.from_polynomial(Polynomial.from_terms(terms))


@given(equations())
@settings(max_examples=300, deadline=None)
def test_round_trip(eq):
    assert parse(pretty(eq)).poly == eq.poly


@given(equations(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_whitespace_insensitive(eq, rng):
    import re
    text = pretty(eq)
    tokens = re.findall(r"\d+|[A-Za-z][A-Za-z0-9]*|[-+*^=]", text)
    # inserting whitespace at token boundaries never changes the parse
    respaced = "".join(tok + " " * rng.randint(1, 3) for tok in tokens)
    assert parse(respaced).poly == eq.poly
    assert parse(" ".join(tokens)).poly == eq.poly


def test_lhs_rhs_symmetry():
    rng = random.Random(3)
    cases = ["x + y = z", "x^2 + y^2 = z^2", "3x - 2y = 5z", "x*y = 2z",
             "x^4 - y^4 = z1*z2"]
    for text in cases:
        lhs, rhs = text.split("=")
        assert parse(text).poly == parse(f"{rhs} = {lhs}").poly
    for _ in range(50):
        a = rng.randint(1, 9)
        b = rng.randint(1, 9)
        assert (parse(f"{a}x + {b}y = z").poly
                == parse(f"z = {a}x + {b}y").poly)
