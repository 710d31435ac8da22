"""Exact bivariate polynomials and rational functions in the probe parameters.

A polynomial in the two probe parameters x and y is stored sparsely as a map
from exponent pairs (i, j) to exact rational coefficients:

    ParamExpr  ~  { (i, j): Fraction }        # x**i * y**j terms

The zero polynomial is the empty map; canonical form never stores a zero
coefficient, so two values are equal iff their term maps are equal.  All
arithmetic is exact over the rationals; binary floating point enters only at
evaluation time.

The module also owns the expression grammar used by probe files:

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' INT)? | '-' factor
    atom   := RATIONAL | DECIMAL | 'x' | 'y' | '(' expr ')'

Whitespace is insignificant.  Implicit multiplication is not allowed; the
division slash only appears inside rational literals such as ``1/2``.
Decimal literals are exact rationals (``0.25`` means 25/100).
"""

from __future__ import annotations

import random
import warnings
from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import ExactDivisionError, ExprSyntaxError, SingularPointError

Exponents = tuple[int, int]

# Graded lexicographic order with x before y: compare total degree first,
# then the power of x.
def _grlex(key: Exponents) -> tuple[int, int]:
    return (key[0] + key[1], key[0])


def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    """gcd over the rationals: gcd(p1/q1, p2/q2) = gcd(p1,p2)/lcm(q1,q2)."""
    num = gcd(a.numerator, b.numerator)
    den = a.denominator * b.denominator // gcd(a.denominator, b.denominator)
    return Fraction(num, den)


class ParamExpr:
    """Immutable exact polynomial in the two probe parameters."""

    __slots__ = ("_terms", "_int_cache")

    def __init__(self, terms: Mapping[Exponents, Fraction] | None = None):
        canonical: dict[Exponents, Fraction] = {}
        if terms:
            for key, coeff in terms.items():
                i, j = key
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent in term {key}")
                coeff = Fraction(coeff)
                if coeff != 0:
                    canonical[(int(i), int(j))] = coeff
        self._terms = canonical
        self._int_cache: tuple[int, IntTerms, int] | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "ParamExpr":
        return cls()

    @classmethod
    def one(cls) -> "ParamExpr":
        return cls({(0, 0): Fraction(1)})

    @classmethod
    def const(cls, value) -> "ParamExpr":
        return cls({(0, 0): Fraction(value)})

    @classmethod
    def var_x(cls) -> "ParamExpr":
        return cls({(1, 0): Fraction(1)})

    @classmethod
    def var_y(cls) -> "ParamExpr":
        return cls({(0, 1): Fraction(1)})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[Exponents, Fraction]:
        """A copy of the canonical term map."""
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def term_count(self) -> int:
        return len(self._terms)

    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        if not self._terms:
            return 0
        return max(i + j for i, j in self._terms)

    def max_abs_coeff(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        return max(abs(c) for c in self._terms.values())

    def content(self) -> Fraction:
        """gcd of all coefficients (nonnegative); 0 for the zero polynomial."""
        acc = Fraction(0)
        for coeff in self._terms.values():
            acc = _frac_gcd(acc, abs(coeff))
        return acc

    def leading_coefficient(self) -> Fraction:
        """Coefficient of the graded-lex leading term; 0 for the zero polynomial."""
        if not self._terms:
            return Fraction(0)
        return self._terms[max(self._terms, key=_grlex)]

    def is_affine(self) -> bool:
        return self.degree() <= 1

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "ParamExpr") -> "ParamExpr":
        if not isinstance(other, ParamExpr):
            return NotImplemented
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            new = out[key] + coeff if key in out else coeff
            if new:
                out[key] = new
            else:
                out.pop(key, None)
        return _wrap(out)

    def __sub__(self, other: "ParamExpr") -> "ParamExpr":
        if not isinstance(other, ParamExpr):
            return NotImplemented
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            new = out[key] - coeff if key in out else -coeff
            if new:
                out[key] = new
            else:
                out.pop(key, None)
        return _wrap(out)

    def __neg__(self) -> "ParamExpr":
        return _wrap({k: -c for k, c in self._terms.items()})

    def __mul__(self, other: "ParamExpr") -> "ParamExpr":
        if not isinstance(other, ParamExpr):
            return NotImplemented
        if not self._terms or not other._terms:
            return ParamExpr()
        out: dict[Exponents, Fraction] = {}
        for (i1, j1), c1 in self._terms.items():
            for (i2, j2), c2 in other._terms.items():
                key = (i1 + i2, j1 + j2)
                new = out[key] + c1 * c2 if key in out else c1 * c2
                if new:
                    out[key] = new
                else:
                    out.pop(key, None)
        return _wrap(out)

    def __pow__(self, exponent: int) -> "ParamExpr":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = ParamExpr.one()
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, factor) -> "ParamExpr":
        factor = Fraction(factor)
        if factor == 0:
            return ParamExpr()
        return _wrap({k: c * factor for k, c in self._terms.items()})

    # -- evaluation --------------------------------------------------------

    def evaluate_exact(self, x: Fraction, y: Fraction) -> Fraction:
        return Fraction(*self._exact_ratio(Fraction(x), Fraction(y)))

    def _evaluate_rounded(self, x: float, y: float) -> float:
        """The exact value at a float point, rounded once: equal to
        float(evaluate_exact(x, y)), since int / int is correctly rounded."""
        num, den = self._exact_ratio(float(x), float(y))
        return num / den

    def _integer_terms(self) -> tuple[int, IntTerms, int]:
        """(total degree, integer terms, scale), computed once: the
        polynomial is the integer terms divided by the scale, the lcm of its
        coefficient denominators."""
        if self._int_cache is None:
            (weights,), scale = _integer_row([self])
            self._int_cache = (self.degree(), weights, scale)
        return self._int_cache

    def _exact_ratio(self, x, y) -> tuple[int, int]:
        # Over the common denominator of the coefficients, x**d and y**d
        # (d the total degree) every term is an integer, so only the sum
        # is normalised.
        d, weights, scale = self._integer_terms()
        xn, xd = x.as_integer_ratio()
        yn, yd = y.as_integer_ratio()
        total = 0
        for (i, j), weight in weights.items():
            total += weight * xn**i * xd ** (d - i) * yn**j * yd ** (d - j)
        return total, scale * xd**d * yd**d

    def _residue(self, x_powers: Sequence[int], y_powers: Sequence[int], p: int) -> int | None:
        """The value modulo the prime p at the point whose k-th powers modulo
        p are x_powers[k] and y_powers[k], k up to the total degree; None
        when p divides the scale, so that the value has no residue."""
        _, weights, scale = self._integer_terms()
        if not scale % p:
            return None
        total = sum(w * x_powers[i] * y_powers[j] for (i, j), w in weights.items())
        return total * pow(scale, -1, p) % p

    # -- comparison / rendering --------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParamExpr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def sorted_terms(self) -> Iterator[tuple[Exponents, Fraction]]:
        """Terms in descending graded-lex order (deterministic)."""
        for key in sorted(self._terms, key=_grlex, reverse=True):
            yield key, self._terms[key]

    def render(self) -> str:
        """Deterministic serialization; re-parses to an equal polynomial."""
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for idx, (key, coeff) in enumerate(self.sorted_terms()):
            body = _render_term(abs(coeff), key)
            if idx == 0:
                pieces.append(body if coeff > 0 else "-" + body)
            else:
                pieces.append((" + " if coeff > 0 else " - ") + body)
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"ParamExpr({self.render()!r})"


def _wrap(terms: dict[Exponents, Fraction]) -> ParamExpr:
    """Internal constructor for maps already in canonical form."""
    out = ParamExpr.__new__(ParamExpr)
    out._terms = terms
    out._int_cache = None
    return out


class PolyTable:
    """Polynomials compiled for evaluation at many points at once; the one
    place where a polynomial becomes floats.

    The monomials of all the polynomials form one basis, and column e of the
    coefficient matrix holds polynomial e's coefficients in it, so the values
    at N points are one (N x K) @ (K x E) product.

    A float sum errs by a few ulps of the summed term magnitudes, so a
    value's relative error is that times magnitude / |value|.  Terms of one
    sign cannot cancel for x, y >= 0; for the polynomials whose terms have
    both signs, |monomials| @ |coefficients| gives the summed term
    magnitudes, and a value below 1/16 of its magnitude is computed exactly
    instead and rounded once.  Floats convert to integer ratios losslessly,
    so that is the correctly rounded value at the point.
    """

    def __init__(self, exprs: Sequence[ParamExpr]):
        self.exprs = tuple(exprs)
        basis = sorted({key for e in self.exprs for key in e._terms}, key=_grlex, reverse=True)
        row = {key: k for k, key in enumerate(basis)}
        self.coeffs = np.zeros((len(basis), len(self.exprs)))
        for col, e in enumerate(self.exprs):
            for key, coeff in e._terms.items():
                self.coeffs[row[key], col] = float(coeff)
        self.powers = np.array(basis, dtype=float).reshape(-1, 2).T
        self.mixed = np.flatnonzero(
            (self.coeffs > 0).any(axis=0) & (self.coeffs < 0).any(axis=0)
        )

    def evaluate(self, xs, ys) -> np.ndarray:
        """Values (N, E) of every polynomial at the points (xs[p], ys[p])."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        monomials = xs[:, None] ** self.powers[0] * ys[:, None] ** self.powers[1]
        values = monomials @ self.coeffs
        if self.mixed.size:
            magnitude = np.abs(monomials) @ np.abs(self.coeffs[:, self.mixed])
            points, cols = np.nonzero(np.abs(values[:, self.mixed]) < magnitude / 16)
            for p, e in zip(points.tolist(), self.mixed[cols].tolist()):
                values[p, e] = self.exprs[e]._evaluate_rounded(xs[p], ys[p])
        return values


def _render_term(coeff: Fraction, key: Exponents) -> str:
    i, j = key
    mono: list[str] = []
    if i == 1:
        mono.append("x")
    elif i > 1:
        mono.append(f"x^{i}")
    if j == 1:
        mono.append("y")
    elif j > 1:
        mono.append(f"y^{j}")
    if not mono:
        return str(coeff)
    body = "*".join(mono)
    if coeff == 1:
        return body
    return f"{coeff}*{body}"


# ---------------------------------------------------------------------------
# Expression parsing
# ---------------------------------------------------------------------------

_TOKEN_INT = "INT"
_TOKEN_DECIMAL = "DECIMAL"
_TOKEN_VAR = "VAR"
_TOKEN_OP = "OP"
_TOKEN_END = "END"


class _Token:
    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind: str, text: str, offset: int):
        self.kind = kind
        self.text = text
        self.offset = offset


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch in " \t\r\n":
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            if pos < n and text[pos] == "." and pos + 1 < n and text[pos + 1].isdigit():
                pos += 1
                while pos < n and text[pos].isdigit():
                    pos += 1
                tokens.append(_Token(_TOKEN_DECIMAL, text[start:pos], start))
            else:
                tokens.append(_Token(_TOKEN_INT, text[start:pos], start))
            continue
        if ch in "xy":
            tokens.append(_Token(_TOKEN_VAR, ch, pos))
            pos += 1
            continue
        if ch in "+-*^()/":
            tokens.append(_Token(_TOKEN_OP, ch, pos))
            pos += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", pos)
    tokens.append(_Token(_TOKEN_END, "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> ParamExpr:
        value = self.parse_expr()
        tok = self.peek()
        if tok.kind != _TOKEN_END:
            if tok.text == "/":
                raise ExprSyntaxError(
                    "division is only allowed inside rational literals", tok.offset
                )
            raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.offset)
        return value

    def parse_expr(self) -> ParamExpr:
        value = self.parse_term()
        while True:
            tok = self.peek()
            if tok.kind == _TOKEN_OP and tok.text in "+-":
                self.advance()
                rhs = self.parse_term()
                value = value + rhs if tok.text == "+" else value - rhs
            else:
                return value

    def parse_term(self) -> ParamExpr:
        value = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == _TOKEN_OP and tok.text == "*":
                self.advance()
                value = value * self.parse_factor()
            else:
                return value

    def parse_factor(self) -> ParamExpr:
        tok = self.peek()
        if tok.kind == _TOKEN_OP and tok.text == "-":
            self.advance()
            return -self.parse_factor()
        value = self.parse_atom()
        tok = self.peek()
        if tok.kind == _TOKEN_OP and tok.text == "^":
            self.advance()
            exp = self.peek()
            if exp.kind != _TOKEN_INT:
                raise ExprSyntaxError(
                    "exponent must be a nonnegative integer literal", exp.offset
                )
            self.advance()
            value = value ** int(exp.text)
        return value

    def parse_atom(self) -> ParamExpr:
        tok = self.advance()
        if tok.kind == _TOKEN_INT:
            numerator = int(tok.text)
            nxt = self.peek()
            if nxt.kind == _TOKEN_OP and nxt.text == "/":
                after = self.tokens[self.pos + 1]
                if after.kind != _TOKEN_INT:
                    raise ExprSyntaxError(
                        "division is only allowed inside rational literals", nxt.offset
                    )
                self.advance()
                self.advance()
                if int(after.text) == 0:
                    raise ExprSyntaxError("zero denominator in rational literal", after.offset)
                return ParamExpr.const(Fraction(numerator, int(after.text)))
            return ParamExpr.const(numerator)
        if tok.kind == _TOKEN_DECIMAL:
            whole, frac = tok.text.split(".")
            value = Fraction(int(whole + frac), 10 ** len(frac))
            return ParamExpr.const(value)
        if tok.kind == _TOKEN_VAR:
            return ParamExpr.var_x() if tok.text == "x" else ParamExpr.var_y()
        if tok.kind == _TOKEN_OP and tok.text == "(":
            value = self.parse_expr()
            closing = self.advance()
            if not (closing.kind == _TOKEN_OP and closing.text == ")"):
                raise ExprSyntaxError("expected ')'", closing.offset)
            return value
        if tok.kind == _TOKEN_END:
            raise ExprSyntaxError("unexpected end of expression", tok.offset)
        raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.offset)


def expr_parse(text: str) -> ParamExpr:
    """Parse expression text into a canonical polynomial."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Integer term maps and Kronecker-packed integers
# ---------------------------------------------------------------------------

# The closed-form elimination scales each row of its system to integer
# coefficients, {(i, j): int}, and then packs each polynomial into one
# integer: x -> 2**width and y -> 2**(width * x_span) is a ring homomorphism
# Z[x, y] -> Z, so products, differences and exact quotients of packed
# values are the packed products, differences and quotients, computed by
# Python's big-integer arithmetic.
IntTerms = dict[Exponents, int]


def _integer_row(row: Sequence[ParamExpr]) -> tuple[list[IntTerms], int]:
    """The row's polynomials times the lcm of all their coefficient
    denominators, as integer term maps, and that lcm."""
    scale = lcm(*(c.denominator for e in row for c in e._terms.values()))
    return [
        {key: c.numerator * (scale // c.denominator) for key, c in e._terms.items()}
        for e in row
    ], scale


def _from_integer(terms: IntTerms, divisor: int) -> ParamExpr:
    """The polynomial terms / divisor."""
    return _wrap({key: Fraction(c, divisor) for key, c in terms.items()})


def _pack(terms: IntTerms, width: int, x_span: int) -> int:
    """The polynomial's value at x = 2**width, y = 2**(width * x_span)."""
    return sum(c << width * (i + x_span * j) for (i, j), c in terms.items())


def _unpack(value: int, width: int, x_span: int) -> IntTerms:
    """The polynomial whose packed value is `value`, read as balanced base
    2**width digits: digit k is the coefficient of x**(k % x_span) *
    y**(k // x_span).

    Exact when every coefficient is below 2**(width - 1) in magnitude and
    every power of x below x_span.  Then the top nonzero digit t has
    |value| >= 2**(width * t - 1), so value.bit_length() // width + 1
    digits hold them all, and adding 2**(width - 1) to every digit makes each one
    a plain width-bit field of the sum's binary text.
    """
    digits = value.bit_length() // width + 1
    half = 1 << (width - 1)
    offset = int(("1" + "0" * (width - 1)) * digits, 2)
    text = bin(value + offset)[2:].zfill(digits * width)
    terms: IntTerms = {}
    for k, end in enumerate(range(len(text), 0, -width)):
        coeff = int(text[end - width : end], 2) - half
        if coeff:
            terms[(k % x_span, k // x_span)] = coeff
    return terms


def _exact_quotient(a: int, b: int) -> int:
    """a / b, raising ExactDivisionError unless b divides a."""
    quotient, remainder = divmod(a, b)
    if remainder:
        raise ExactDivisionError(
            f"packed division leaves a remainder of {remainder.bit_length()} bits"
        )
    return quotient


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------

# Scale-aware threshold below which an evaluated denominator counts as zero.
DEN_ZERO_RTOL = 1e-12


class RationalFn:
    """Quotient of two ParamExpr values, normalized on construction.

    Normalization removes the common rational content of numerator and
    denominator and makes the denominator's graded-lex leading coefficient
    positive.  Polynomial (multivariate) common factors are not cancelled;
    equivalence testing uses exact cross-multiplication instead.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: ParamExpr, den: ParamExpr | None = None):
        if den is None:
            den = ParamExpr.one()
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        num_content = num.content()
        den_content = den.content()
        common = _frac_gcd(num_content, den_content)
        if common not in (0, 1):
            num = num.scale(Fraction(1) / common)
            den = den.scale(Fraction(1) / common)
        if den.leading_coefficient() < 0:
            num = -num
            den = -den
        self.num = num
        self.den = den

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFn):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RationalFn({self.num.render()!r}, {self.den.render()!r})"


def ratfn_eval(f: RationalFn, x: float, y: float) -> float:
    """f at (x, y): the batch of one of `ratfn_values`."""
    return float(ratfn_values(f, [x], [y])[0])


def ratfn_values(f: RationalFn, xs, ys) -> np.ndarray:
    """f at the points (xs[p], ys[p]).  A SingularPointError names the first
    point where the denominator is zero to within a scale-aware tolerance."""
    num, den = PolyTable([f.num, f.den]).evaluate(xs, ys).T
    vanishes = np.abs(den) < DEN_ZERO_RTOL * (1.0 + float(f.den.max_abs_coeff()))
    if vanishes.any():
        p = int(np.argmax(vanishes))
        raise SingularPointError(float(np.asarray(xs)[p]), float(np.asarray(ys)[p]))
    return num / den


def ratfn_equiv(f: RationalFn, g: RationalFn) -> bool:
    """Exact equivalence test via cross-multiplication.

    The verdict is purely symbolic: f == g iff f.num*g.den - g.num*f.den is
    the zero polynomial.  Eight random interior points are additionally
    evaluated as a sanity check; a disagreement emits a warning but never
    changes the verdict.
    """
    cross = f.num * g.den - g.num * f.den
    verdict = cross.is_zero()

    rng = random.Random(0x5EED)
    xs, ys = [], []
    for _ in range(8):
        xs.append(rng.uniform(0.0, 1.0))
        ys.append(rng.uniform(0.0, 1.0 - xs[-1]))
    f_num, f_den, g_num, g_den = PolyTable([f.num, f.den, g.num, g.den]).evaluate(xs, ys).T
    lhs = f_num * g_den
    rhs = g_num * f_den
    scale = np.maximum(1.0, np.abs([lhs, rhs]).max(axis=0))
    if verdict and not (np.abs(lhs - rhs) <= 1e-9 * scale).all():
        warnings.warn(
            "ratfn_equiv: exact test says equal but numeric samples disagree",
            RuntimeWarning,
            stacklevel=2,
        )
    return verdict
