"""Exact univariate polynomial arithmetic over the rationals.

Representation
--------------
A polynomial is a ``UniPoly``: a variable symbol plus a tuple of exact
coefficients in ascending power order with no trailing zeros.  A coefficient
is an ``int`` when it is integral and a ``fractions.Fraction`` (denominator
> 1) otherwise, so integer polynomials, the common case, never pay for
Fraction arithmetic.  An integral Fraction and the equal int compare and hash
equal, so this choice never changes equality, hashing or ``render``.  Every
true division of coefficients goes through ``Fraction``: ``/`` on two ints
would give a float.  The zero polynomial has an empty coefficient tuple and
``degree`` ``None`` (the "no degree" marker); every formula in this package
guards on it explicitly instead of inventing a numeric degree for zero.

Polynomials are immutable and hashable.  Constants compare equal regardless
of their variable symbol, so ``parse_poly("3")`` interoperates with both
``x`` and ``y`` polynomials.

Algorithms
----------
Resultants, and through them discriminants, critical values and every
squarefreeness test in the package, go through the one subresultant PRS
over the integers (Collins, J. ACM 14, 1967; Brown and Traub, J. ACM 18,
1971), which keeps intermediate coefficients polynomially bounded.  Each
step builds the next remainder already divided by the PRS's g h^delta:
at a drop of one degree, nearly every step, in one pass over the
coefficients, from the two-term pseudo-quotient read off the top
coefficients; at any other drop, in the pass of the last quotient digit
of a long division.  ``resultant``, and for discriminants and critical values
``_derivative_resultants``, split the contents off and hand it primitive
parts.  ``resultant`` follows the convention

    Res(a, b) = lc(a)^deg(b) * prod b(alpha)  over the roots alpha of a,

so Res(x - 2, x - 3) = -1 and Res(a, b) = (-1)^(deg a * deg b) Res(b, a).

Integer utilities (perfect squares, primality, squarefree parts) live here
too; ``int_squarefree_part`` factors by trial division by the primes below
2^10, screened by one gcd with their product, then, up to 2,048 bits,
Miller-Rabin (a proof below 3.3e24, with the fewest bases that are exact
below n), a perfect-power test and Brent rho with a deterministic
iteration budget, raising ``FactorizationIncomplete`` instead of ever
guessing.

Text grammar
------------
``parse_poly`` accepts one variable, integer or rational or decimal
coefficients, the operators ``+ - * / ^``, parentheses, and juxtaposition
as multiplication ("2x", "3(x+1)"):

    expr     ::= term { ("+" | "-") term }
    term     ::= unary { ("*" | "/") unary | unary }
    unary    ::= { "+" | "-" } power
    power    ::= atom [ "^" exponent ]
    atom     ::= INTEGER | DECIMAL | VARIABLE | "(" expr ")"
    exponent ::= [ "+" ] INTEGER | "(" exponent ")"

An INTEGER is decimal digits (``str.isdecimal``, so "²" is none) and a
DECIMAL two runs of them around one ".", either run maybe empty but not
both; a VARIABLE is a letter or "_", then letters, decimal digits or "_".

Division is only by a nonzero constant subexpression; anything else raises
``NonRationalCoefficient``.  The parser holds each subexpression as its
nonzero terms, so a sum of n monomials costs O(n) whatever their degrees.
``render`` (also ``str()``) emits descending powers with explicit signs and
``^``, and ``parse_poly(render(p)) == p``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Collection, Iterable, Iterator, Sequence
from fractions import Fraction

from .errors import (
    ConstantPolynomialError,
    DivisionByZeroPoly,
    FactorizationIncomplete,
    MultiVariableError,
    NonRationalCoefficient,
    PolySyntaxError,
    ZeroInput,
    ZeroPolynomialError,
)

__all__ = [
    "UniPoly",
    "parse_poly",
    "derivative",
    "resultant",
    "discriminant",
    "integer_model",
    "int_squarefree_part",
    "factor_int",
    "rational_is_square",
    "is_prime",
    "primes_up_to",
]


def _exact(c) -> int | Fraction:
    """c as an int when integral, else as a reduced Fraction."""
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class UniPoly:
    """Immutable dense univariate polynomial over Q.

    Coefficients are ints where integral and Fractions elsewhere; the
    constructor accepts anything ``Fraction`` accepts and normalizes it.
    """

    __slots__ = ("var", "coeffs")

    def __init__(self, coeffs: Iterable = (), var: str = "x"):
        cs = [c if type(c) is int else _exact(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "var", var)

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    def __reduce__(self):
        return UniPoly, (self.coeffs, self.var)

    @classmethod
    def constant(cls, c, var: str = "x") -> "UniPoly":
        return cls((c,), var)

    @classmethod
    def variable(cls, name: str) -> "UniPoly":
        return cls((0, 1), name)

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    @property
    def leading_coefficient(self) -> int | Fraction:
        return self.coeffs[-1] if self.coeffs else 0

    def coefficient(self, k: int) -> int | Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    # -- ring structure -----------------------------------------------------

    def _coerce(self, other) -> "UniPoly | None":
        if isinstance(other, UniPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return UniPoly((other,), self.var)
        return None

    def _join_var(self, other: "UniPoly") -> str:
        if self.is_constant:
            return other.var if not other.is_constant else self.var
        if other.is_constant:
            return self.var
        if self.var != other.var:
            raise MultiVariableError(
                f"cannot combine polynomials in {self.var!r} and {other.var!r}"
            )
        return self.var

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        var = self._join_var(other)
        a, b = self.coeffs, other.coeffs
        tail = list(a[len(b):] or b[len(a):])  # the longer operand's top terms
        return UniPoly([x + y for x, y in zip(a, b)] + tail, var)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly((-c for c in self.coeffs), self.var)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        var = self._join_var(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly((), var)
        if min(len(a), len(b)) >= _KRONECKER_TERMS and all(
            type(c) is int for c in a + b
        ):
            return UniPoly(_kronecker_product(a, b), var)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                out[i + j] += x * y
        return UniPoly(out, var)

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if not isinstance(exp, int) or exp < 0:
            raise ValueError("polynomial exponent must be a nonnegative int")
        # left to right, so each product by the base is by the short operand
        result = UniPoly.constant(1, self.var)
        for i in range(exp.bit_length() - 1, -1, -1):
            result = result * result
            if exp >> i & 1:
                result = result * self
        return result

    def __divmod__(self, other):
        """Quotient and remainder over Q with deg r < deg other."""
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        if b.is_zero:
            raise DivisionByZeroPoly("polynomial division by zero")
        var = self._join_var(b)
        rem = list(self.coeffs)
        db = len(b.coeffs) - 1
        lb = b.coeffs[-1]
        quot = [0] * (len(rem) - db)
        for k in range(len(rem) - 1, db - 1, -1):
            c = rem[k]
            if c == 0:
                continue
            q = c if lb == 1 else _exact(Fraction(c, lb))
            quot[k - db] = q
            for j, bc in enumerate(b.coeffs):
                rem[k - db + j] -= q * bc
        return UniPoly(quot, var), UniPoly(rem[:db], var)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, point) -> Fraction:
        """Evaluate by Horner's rule."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * Fraction(point) + c
        return acc

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.coeffs != other.coeffs:
            return False
        # constants are variable-agnostic
        return self.is_constant or self.var == other.var

    def __hash__(self):
        key = None if self.is_constant else self.var
        return hash((key, self.coeffs))

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """Canonical text form: descending powers, explicit signs, '^'."""
        if self.is_zero:
            return "0"
        parts: list[tuple[str, str]] = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            if k == 0:
                body = str(mag)
            else:
                vpart = self.var if k == 1 else f"{self.var}^{k}"
                body = vpart if mag == 1 else f"{mag}*{vpart}"
            parts.append((sign, body))
        head_sign, head = parts[0]
        text = ("-" + head) if head_sign == "-" else head
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"UniPoly({self.render()!r})"


# Both factors need this many terms before an integer product goes through
# one big-integer product: below it the double loop is faster.
_KRONECKER_TERMS = 16


def _kronecker_product(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The coefficients of a * b, integer polynomials, by signed Kronecker
    substitution: each is packed into one integer at x = 2^k, with k bits
    enough for every product coefficient c, |c| < 2^(k-1), the integers
    are multiplied, and the product is read back k bits at a time.  Adding
    2^(k-1) to every slot makes each one a plain k-bit field, so packing
    and unpacking are byte conversions."""
    bits = (
        max(abs(c) for c in a).bit_length()
        + max(abs(c) for c in b).bit_length()
        + min(len(a), len(b)).bit_length()
        + 1
    )
    width = -(-bits // 8)  # bytes per slot
    half = 1 << (8 * width - 1)
    slot = b"\0" * (width - 1) + b"\x80"  # half, as one slot's bytes

    def halves(count: int) -> int:
        return int.from_bytes(slot * count, "little")

    def pack(cs: Sequence[int]) -> int:
        raw = b"".join((c + half).to_bytes(width, "little") for c in cs)
        return int.from_bytes(raw, "little") - halves(len(cs))

    n = len(a) + len(b) - 1
    raw = (pack(a) * pack(b) + halves(n)).to_bytes(width * n, "little")
    return [
        int.from_bytes(raw[i : i + width], "little") - half
        for i in range(0, width * n, width)
    ]


# -- parsing ------------------------------------------------------------------

_OPS = set("+-*/^()")


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch))
            i += 1
            continue
        if ch.isdecimal() or (ch == "." and i + 1 < n and text[i + 1].isdecimal()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdecimal() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            if j - i - seen_dot > _ParseState.MAX_LITERAL_DIGITS:
                raise PolySyntaxError(
                    f"numeric literal at position {i} has more than "
                    f"{_ParseState.MAX_LITERAL_DIGITS} digits: {text[i:i + 20]!r}..."
                )
            tokens.append(("num", text[i:j]))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalpha() or text[j].isdecimal() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
            continue
        raise PolySyntaxError(f"unexpected character {ch!r} at position {i}")
    return tokens


# The parser's values are dicts {exponent: nonzero coefficient}; parse_poly
# builds the dense UniPoly once, at the end.


def _dense_len(a: dict) -> int:
    """The coefficient count of a as a UniPoly: degree + 1, or 0 for zero."""
    return max(a) + 1 if a else 0


def _to_dense(a: dict) -> list:
    cs = [0] * _dense_len(a)
    for k, c in a.items():
        cs[k] = c
    return cs


class _ParseState:
    # Recursive descent spends a few interpreter frames per open parenthesis,
    # so nesting is capped well below Python's recursion limit; deeper input
    # raises PolySyntaxError instead of RecursionError.
    MAX_NESTING = 100
    # Degrees are capped too, checked before each power or product is built,
    # so "x^<huge>" raises PolySyntaxError instead of allocating without bound.
    MAX_DEGREE = 10_000
    # So are coefficient sizes, which a nested power such as "(2^9999)^9999"
    # grows past any degree cap: see _height_bits for the bound checked.
    MAX_COEFF_BITS = 1 << 16
    # And numeric literals, at the digits Python converts from a string to an
    # int (sys.get_int_max_str_digits), so a longer one is a syntax error.
    MAX_LITERAL_DIGITS = 4_300
    # And the size of a power of more than one term, its degree times the
    # coefficient bound of _height_bits: the caps above admit (1+x)^10000,
    # 10^8 bits that took 116 s of CPU on a 2-core machine.  2^23 admits
    # (1+x)^2048.
    MAX_POWER_BITS = 1 << 23

    def __init__(self, tokens: list[tuple[str, str]]):
        self.tokens = tokens
        self.pos = 0
        self.var: str | None = None
        self.depth = 0

    def open_paren(self) -> None:
        self.next()
        self.depth += 1
        if self.depth > self.MAX_NESTING:
            raise PolySyntaxError(
                f"parentheses nested deeper than {self.MAX_NESTING} levels"
            )

    def close_paren(self, message: str) -> None:
        if self.peek() != ")":
            raise PolySyntaxError(message)
        self.next()
        self.depth -= 1

    def check_degree(self, degree: int) -> None:
        if degree > self.MAX_DEGREE:
            raise PolySyntaxError(f"degree above {self.MAX_DEGREE}")

    def check_height(self, bits: int) -> None:
        if bits > self.MAX_COEFF_BITS:
            raise PolySyntaxError(f"coefficients above {self.MAX_COEFF_BITS} bits")

    def times(self, a: dict, b: dict) -> dict:
        self.check_degree(max(a, default=0) + max(b, default=0))
        terms = min(_dense_len(a), _dense_len(b))
        self.check_height(
            _height_bits(a.values()) + _height_bits(b.values()) + _log2_ceil(terms)
        )
        if min(len(a), len(b)) >= _KRONECKER_TERMS and all(
            type(c) is int for c in (*a.values(), *b.values())
        ):
            dense = _kronecker_product(_to_dense(a), _to_dense(b))
            return {k: c for k, c in enumerate(dense) if c}
        out: dict = {}
        for i, x in a.items():
            for j, y in b.items():
                out[i + j] = out.get(i + j, 0) + x * y
        return {k: c for k, c in out.items() if c}

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, str]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self) -> dict:
        acc = self.term()
        while self.peek() in ("+", "-"):
            op, _ = self.next()
            for k, c in self.term().items():
                total = acc.pop(k, 0) + (c if op == "+" else -c)
                if total:
                    acc[k] = total
        return acc

    def term(self) -> dict:
        acc = self.unary()
        while True:
            nxt = self.peek()
            if nxt in ("*", "/"):
                op, _ = self.next()
                rhs = self.unary()
                if op == "/":
                    if not rhs:
                        raise NonRationalCoefficient("division by zero constant")
                    if max(rhs):
                        raise NonRationalCoefficient(
                            "division only by a nonzero constant"
                        )
                    rhs = {0: _exact(1 / Fraction(rhs[0]))}
                acc = self.times(acc, rhs)
            elif nxt in ("name", "("):
                acc = self.times(acc, self.unary())  # juxtaposition, e.g. "2x"
            else:
                return acc

    def unary(self) -> dict:
        sign = 1
        while self.peek() in ("+", "-"):
            op, _ = self.next()
            if op == "-":
                sign = -sign
        p = self.power()
        return p if sign > 0 else {k: -c for k, c in p.items()}

    def power(self) -> dict:
        base = self.atom()
        if self.peek() == "^":
            self.next()
            e = self.exponent()
            # a constant's exponent counts as its degree, as documented
            degree = max(max(base, default=0), 1) * e
            self.check_degree(degree)
            bits = e * (_height_bits(base.values()) + _log2_ceil(_dense_len(base)))
            self.check_height(bits)
            if len(base) == 1:  # (c x^k)^e = c^e x^(k e)
                [(k, c)] = base.items()
                return {k * e: c**e}
            if degree * bits > self.MAX_POWER_BITS:
                raise PolySyntaxError(
                    f"power above {self.MAX_POWER_BITS} bits (degree times coefficient bits)"
                )
            # (b/d)^e = b^e / d^e, so the squarings multiply integers
            ints, den = _cleared(base.values())
            dense = UniPoly(_to_dense(dict(zip(base, ints)))) ** e
            scale = den**e
            return {k: _exact(Fraction(c, scale)) for k, c in enumerate(dense.coeffs) if c}
        return base

    def exponent(self) -> int:
        nxt = self.peek()
        if nxt == "(":
            self.open_paren()
            e = self.exponent()
            self.close_paren("expected ')' after exponent")
            return e
        if nxt == "+":
            self.next()
            nxt = self.peek()
        if nxt == "-":
            raise PolySyntaxError("negative exponents are not polynomial")
        if nxt != "num":
            raise PolySyntaxError("expected an integer after '^'")
        _, text = self.next()
        if "." in text:
            raise PolySyntaxError("exponent must be an integer")
        if len(text.lstrip("0")) > len(str(self.MAX_DEGREE)):
            # over the cap whatever the base; rejected before int() of it
            raise PolySyntaxError(f"degree above {self.MAX_DEGREE}")
        return int(text)

    def atom(self) -> dict:
        nxt = self.peek()
        if nxt == "num":
            value = Fraction(self.next()[1])
            return {0: _exact(value)} if value else {}
        if nxt == "name":
            _, name = self.next()
            if self.var is None:
                self.var = name
            elif name != self.var:
                raise MultiVariableError(
                    f"second variable {name!r} after {self.var!r}"
                )
            return {1: 1}
        if nxt == "(":
            self.open_paren()
            inner = self.expr()
            self.close_paren("missing ')'")
            return inner
        raise PolySyntaxError(
            "unexpected end of input" if nxt is None else f"unexpected token {nxt!r}"
        )


def _log2_ceil(n: int) -> int:
    return (n - 1).bit_length() if n > 1 else 0


def _height_bits(cs: Collection) -> int:
    """Bits H(a) with |n| * d < 2^H(a) for every coefficient n/d in cs, the
    nonzero coefficients of a polynomial a.

    H(a) is the largest numerator's bit length plus 2 * ceil(log2 D), D the
    common denominator, so D * a has integer coefficients below
    2^(H(a) - ceil(log2 D)).  Every coefficient n/d of a * b then has
    |n| * d < 2^(H(a) + H(b) + ceil(log2 t)), t the shorter operand's
    length, and every one of a^e has |n| * d < 2^(e * (H(a) + ceil(log2 len a))).
    """
    num = max((abs(c.numerator).bit_length() for c in cs), default=0)
    den = math.lcm(*[c.denominator for c in cs])
    return num + 2 * _log2_ceil(den)


def parse_poly(text: str) -> UniPoly:
    """Parse one-variable polynomial text into a canonical UniPoly.

    Parentheses may nest at most ``_ParseState.MAX_NESTING`` (100) levels,
    and no power or product may exceed degree ``_ParseState.MAX_DEGREE``
    (10,000); a constant's exponent counts as its degree.  Nor may a power
    or product have a coefficient n/d with |n| * d >= 2^65,536
    (``_ParseState.MAX_COEFF_BITS``), by a bound from the operands'
    coefficient bit lengths and term counts checked before it is built.
    Nor may a power of more than one term have degree times that bound
    above 2^23 bits (``_ParseState.MAX_POWER_BITS``), which admits
    (1+x)^2048.  Nor may a numeric literal have more than 4,300 digits,
    the dot not counted (``_ParseState.MAX_LITERAL_DIGITS``).  Each cap
    raises ``PolySyntaxError``.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise PolySyntaxError("empty polynomial text")
    state = _ParseState(tokens)
    poly = state.expr()
    if state.pos != len(tokens):
        kind, text_ = state.tokens[state.pos]
        raise PolySyntaxError(f"trailing input starting at {text_!r}")
    return UniPoly(_to_dense(poly), state.var or "x")


# -- derivative, resultant -----------------------------------------------------


def derivative(a: UniPoly) -> UniPoly:
    return UniPoly((k * a.coeffs[k] for k in range(1, len(a.coeffs))), a.var)


def _cleared(coeffs: Collection) -> tuple[list[int], int]:
    """(e coeffs, e) for the least e > 0 that makes every coefficient an
    integer: the one place denominators are cleared."""
    if all(type(c) is int for c in coeffs):
        return list(coeffs), 1
    e = math.lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (e // c.denominator) for c in coeffs], e


def _rational_split(a: UniPoly) -> tuple[int | Fraction, list[int]]:
    """Write a = scale * A with scale > 0 rational and A primitive integers."""
    ints, den = _cleared(a.coeffs)
    g = math.gcd(*ints)
    if g == 0:
        return 0, []
    scale = g if den == 1 else Fraction(g, den)
    return scale, ints if g == 1 else [c // g for c in ints]


def integer_model(a: UniPoly) -> UniPoly:
    """The primitive integer polynomial with the same roots and sign as a."""
    _, ints = _rational_split(a)
    return UniPoly(ints, a.var)


def _subresultant_resultant(A: list[int], B: list[int]) -> int:
    """Res(A, B) of nonzero primitive integer polynomials, subresultant PRS.

    A step, deg A = n >= deg B = m and delta = n - m, divides lb^(delta+1) A
    by B, lb = lc(B), and takes the remainder divided by g h^delta as the
    next B.  At delta = 1, nearly every step, the quotient is q1 x + q0 with
    q1 = lb a_n and q0 = lb a_(n-1) - a_n b_(m-1), so each coefficient of
    the next B is (lb^2 a_i - q0 b_i - q1 b_(i-1)) / (g h), built in one
    list pass.  Any other delta runs long division on lb^(delta+1) A, whose
    quotient digits are exact, and the pass of its last digit divides by
    g h^delta."""
    s = 1
    dA, dB = len(A) - 1, len(B) - 1
    if dA < dB:
        if dA & dB & 1:
            s = -s
        A, B, dA, dB = B, A, dB, dA
    g = h = 1
    while dB > 0:
        delta = dA - dB
        if dA & dB & 1:
            s = -s
        lb = B[-1]
        if delta == 1:
            an = A[-1]
            q1, q0, scale, divisor = lb * an, lb * A[-2] - an * B[-2], lb * lb, g * h
            R = [(scale * a - q0 * b - q1 * c) // divisor for a, b, c in zip(A, B[:-1], [0, *B])]
            h = lb
        else:
            scale = lb ** (delta + 1)
            W = [scale * a for a in A]
            for k in range(delta, 0, -1):  # the quotient digit at x^k
                q = W[dB + k] // lb
                if q:
                    for i in range(dB):
                        W[k + i] -= q * B[i]
            q, divisor = W[dB] // lb, g * h**delta
            R = [(w - q * b) // divisor for w, b in zip(W, B[:-1])]
            if delta:
                h = lb**delta // h ** (delta - 1)
        while R and not R[-1]:
            R.pop()
        if not R:
            return 0
        A, dA, B, dB, g = B, dB, R, len(R) - 1, lb
    if dA == 0:
        return s  # two constants
    res = B[0] ** dA if h == 1 else B[0] ** dA // h ** (dA - 1)
    return s * res


def resultant(a: UniPoly, b: UniPoly) -> Fraction:
    """Res(a, b) = lc(a)^deg(b) * prod of b over the roots of a."""
    a._join_var(b)
    if a.is_zero or b.is_zero:
        raise ZeroPolynomialError("resultant with a zero polynomial")
    ca, A = _rational_split(a)
    cb, B = _rational_split(b)
    res = ca ** (len(B) - 1) * cb ** (len(A) - 1) * _subresultant_resultant(A, B)
    return Fraction(res)


def _derivative_resultants(A: list[int], shifts: Iterable[int]) -> list[int]:
    """Res_x(A - s, A') for each integer s, A an integer polynomial of degree
    m >= 1: the contents g of A - s and h of A' come off as g^(m-1) h^m, so
    each value is one subresultant PRS on primitive parts."""
    m = len(A) - 1
    dA = [k * A[k] for k in range(1, m + 1)]
    h = math.gcd(*dA)
    Q = dA if h == 1 else [c // h for c in dA]
    values = []
    for s in shifts:
        P = [A[0] - s, *A[1:]]
        g = math.gcd(*P)
        if g != 1:
            P = [c // g for c in P]
        values.append(g ** (m - 1) * h**m * _subresultant_resultant(P, Q))
    return values


def _shift_facts(a: UniPoly, shifts: Sequence[int]) -> Iterator[tuple | None]:
    """For each integer c in shifts, (F, disc(F), disc(a - c)), F the
    primitive integer model of a - c and disc(F) an int, or None when a - c
    has a repeated root; deg a >= 1.

    disc(b) = (-1)^(m(m-1)/2) Res(b, b') / lc(b), m = deg b.  With A = L a
    over Z, L (a - c) = A - L c, so one batch of resultants Res(A - L c, A')
    gives every disc(A - L c), an integer, and disc(u b) = u^(2m-2) disc(b)
    rescales it to disc(F), F = (A - L c) / g for the content g, and to
    disc(a - c)."""
    m = a.degree
    if m is None or m < 1:
        raise ConstantPolynomialError("discriminant needs degree >= 1")
    A, L = _cleared(a.coeffs)
    sign = -1 if (m * (m - 1) // 2) % 2 else 1
    for c, res in zip(shifts, _derivative_resultants(A, [L * c for c in shifts])):
        disc = sign * res // A[-1]  # disc(A - L c)
        if not disc:
            yield None
            continue
        model = integer_model(UniPoly([A[0] - L * c, *A[1:]], a.var))
        g = A[-1] // model.coeffs[-1]
        yield model, disc // g ** (2 * m - 2), Fraction(disc, L ** (2 * m - 2))


def discriminant(a: UniPoly) -> Fraction:
    """disc(a) = (-1)^(m(m-1)/2) Res(a, a') / lc(a), m = deg a >= 1, from one
    integer resultant (``_shift_facts``)."""
    (facts,) = _shift_facts(a, (0,))
    return facts[2] if facts else Fraction(0)


# -- integer utilities ---------------------------------------------------------


def is_perfect_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def rational_is_square(q: Fraction) -> bool:
    """True iff q is the square of a rational."""
    return q >= 0 and is_perfect_square(q.numerator) and is_perfect_square(q.denominator)


# Miller-Rabin with the first k prime bases decides primality exactly for
# n < psi_k, the least strong pseudoprime to all of them (OEIS A014233:
# Jaeschke, Math. Comp. 61, 1993, to psi_8; Jiang and Deng, Math. Comp. 83,
# 2014, psi_9 .. psi_11; Sorenson and Webster, Math. Comp. 86, 2017, psi_12
# and psi_13), so n takes the shortest prefix of the thirteen bases 2 .. 41
# that is exact below it.  At or above psi_13 = 3.317e24 the test is a
# strong-probable-prime test to 25 fixed bases, not a proof.  Most n that
# reach the rounds are the prime factors of 11 to 53 bits that Brent rho
# splits off in _factor_int, which take one to nine bases instead of 13.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXTRA = (43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
_MR_PSI = (  # psi_1 .. psi_13
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051,
    3825123056546413051, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:  # a composite below 43^2 has a prime factor <= 41
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    k = bisect_right(_MR_PSI, n)  # psi_k <= n < psi_(k+1): k + 1 bases are exact
    bases = _MR_BASES[: k + 1] if k < len(_MR_PSI) else _MR_BASES + _MR_EXTRA
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, ascending."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(2, n + 1) if sieve[i]]


def _int_root(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0, k >= 2."""
    if k == 2:
        return math.isqrt(n)
    if n < 2:
        return n
    # Newton from a float estimate raised above the root (its relative error
    # is a few b * 2^-52 for a b-bit n): from at or above the floor root,
    # each step falls until it reaches the floor root, where it stops
    b = n.bit_length()
    e = math.log2(n) / k
    shift = max(0, int(e) - 50)
    x = (int(2.0 ** (e - shift) * (1 + b * 2.0 ** -48)) + 1) << shift
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(n: int, max_k: int) -> tuple[int, int] | None:
    """(root, k) with n = root^k for the least prime k <= max_k, or None.

    Prime exponents suffice: a perfect (ab)-th power is a perfect a-th power.
    """
    for k in primes_up_to(max_k):
        root = _int_root(n, k)
        if root ** k == n:
            return root, k
    return None


def _brent_rho(n: int, c: int, max_iter: int) -> tuple[int | None, int]:
    """One deterministic Brent-rho round: a proper factor of n or None, and
    the number of steps it took."""
    y, r, q = 2, 1, 1
    g = 1
    x = ys = y
    count = 0
    while g == 1 and count < max_iter:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            steps = min(128, r - k)
            for _ in range(steps):
                y = (y * y + c) % n
                q = q * (x - y) % n  # the sign leaves gcd(q, n) unchanged
            count += steps  # read only between batches
            g = math.gcd(q, n)
            k += 128
        r *= 2
    if g == n:
        # gcd batching overshot; replay one step at a time
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
    return (g if 1 < g < n else None), count


# Trial division stops below 2^10, and is screened by one gcd with the
# product of those primes (1,420 bits), so it tries primes only while that
# gcd has a factor left: a cofactor below 2^20 left by it is prime, one over
# _COFACTOR_BITS is refused (is_prime, which has no budget, takes 0.58 s on
# a prime of 2,048 bits and 4.9 s at 4,096 bits on one Xeon core, Python
# 3.11), and the rest goes to is_prime, the perfect-power test and Brent
# rho.  Rho takes at most _RHO_ITER_CAP steps in all, a step on a b-bit
# operand counting 1 + b^2 / 2^16 (its cost relative to one below 256
# bits), so its work does not grow with the operand; a composite tries up
# to _RHO_TRIES constants c, while steps remain.
_TRIAL_LIMIT = 1 << 10
_TRIAL_PRIMES = tuple(primes_up_to(_TRIAL_LIMIT))
_TRIAL_PRODUCT = math.prod(_TRIAL_PRIMES)
_RHO_TRIES = 24
_RHO_ITER_CAP = 1 << 18
_COFACTOR_BITS = 2048


def _factor_int(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1; FactorizationIncomplete on budget."""
    factors: dict[int, int] = {}
    small = math.gcd(n, _TRIAL_PRODUCT)  # the primes below 2^10 dividing n
    for p in _TRIAL_PRIMES:
        if small == 1:
            break
        if small % p == 0:
            small //= p
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors[p] = e
    if n < _TRIAL_LIMIT * _TRIAL_LIMIT:  # no prime factor below its square root
        if n > 1:
            factors[n] = 1
        return factors
    if n.bit_length() > _COFACTOR_BITS:
        raise FactorizationIncomplete(f"{n.bit_length()}-bit cofactor over the cap")
    budget = _RHO_ITER_CAP
    stack = [n]
    while stack:
        m = stack.pop()
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        # every prime factor of m exceeds 2^10, so m = r^k forces 10k < bits
        power = _perfect_power(m, m.bit_length() // 10)
        if power is not None:
            root, k = power
            stack.extend([root] * k)
        else:
            weight = 1 + (m.bit_length() ** 2 >> 16)
            for c in range(1, _RHO_TRIES + 1):
                f, steps = _brent_rho(m, c, budget // weight)
                budget -= steps * weight
                if f is not None:
                    stack.append(f)
                    stack.append(m // f)
                    break
            else:
                raise FactorizationIncomplete(
                    f"could not factor {m} within the deterministic budget"
                )
    return factors


def _squarefree_split(n: int) -> tuple[int, dict[int, int]]:
    """(d, factors): the squarefree integer d with n = d * (square), sign
    preserved, the sign times every prime to an odd power in ``factor_int(n)``."""
    if n == 0:
        raise ZeroInput("squarefree part of 0 is undefined")
    factors = factor_int(n)
    return math.prod((p for p, e in factors.items() if e % 2), start=-1 if n < 0 else 1), factors


def int_squarefree_part(n: int) -> int:
    """The squarefree integer d with n = d * (square), sign preserved.

    It is read off ``factor_int(n)``, so above psi_13 ~ 3.3e24 a prime in
    d is only a 25-base strong probable prime.  No verdict reads d."""
    return _squarefree_split(n)[0]


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; n must be nonzero.

    A listed factor above psi_13 ~ 3.3e24 is only a strong probable prime
    to 25 bases (see ``is_prime``), not a proved prime.  No verdict reads
    these factors: only ``poly-disc`` and a scan row's ``quad_tag`` show them."""
    if n == 0:
        raise ZeroInput("factorization of 0 is undefined")
    return _factor_int(abs(n))
