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
Resultants, and through them discriminants and every squarefreeness test
in the package, go through the one subresultant PRS over the integers after
clearing denominators, which keeps intermediate coefficients polynomially
bounded.  ``resultant`` follows the convention

    Res(a, b) = lc(a)^deg(b) * prod b(alpha)  over the roots alpha of a,

so Res(x - 2, x - 3) = -1 and Res(a, b) = (-1)^(deg a * deg b) Res(b, a).

Integer utilities (perfect squares, primality, squarefree parts) live here
too; ``int_squarefree_part`` factors by trial division by the primes below
2^10, then Miller-Rabin (a proof below 3.3e24), a perfect-power test and
Brent rho with a deterministic iteration budget, raising
``FactorizationIncomplete`` instead of ever guessing.

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

Division is only by a nonzero constant subexpression; anything else raises
``NonRationalCoefficient``.  ``render`` (also ``str()``) emits descending
powers with explicit signs and ``^``, and ``parse_poly(render(p)) == p``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

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
    "poly_divmod",
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
        var = self._join_var(other)
        a, b = self.coeffs, other.coeffs
        tail = list(a[len(b):]) or [-y for y in b[len(a):]]
        return UniPoly([x - y for x, y in zip(a, b)] + tail, var)

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
        if self.is_zero or other.is_zero:
            return UniPoly((), var)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out, var)

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if not isinstance(exp, int) or exp < 0:
            raise ValueError("polynomial exponent must be a nonnegative int")
        result = UniPoly.constant(1, self.var)
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return poly_divmod(self, other)

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
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
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
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
            continue
        raise PolySyntaxError(f"unexpected character {ch!r} at position {i}")
    return tokens


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

    def times(self, a: UniPoly, b: UniPoly) -> UniPoly:
        self.check_degree((a.degree or 0) + (b.degree or 0))
        terms = min(len(a.coeffs), len(b.coeffs))
        self.check_height(_height_bits(a) + _height_bits(b) + _log2_ceil(terms))
        return a * b

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, str]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self) -> UniPoly:
        acc = self.term()
        while self.peek() in ("+", "-"):
            op, _ = self.next()
            rhs = self.term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def term(self) -> UniPoly:
        acc = self.unary()
        while True:
            nxt = self.peek()
            if nxt in ("*", "/"):
                op, _ = self.next()
                rhs = self.unary()
                if op == "*":
                    acc = self.times(acc, rhs)
                else:
                    if rhs.is_zero:
                        raise NonRationalCoefficient("division by zero constant")
                    if not rhs.is_constant:
                        raise NonRationalCoefficient(
                            "division only by a nonzero constant"
                        )
                    acc = self.times(
                        acc, UniPoly.constant(Fraction(1) / rhs.coefficient(0))
                    )
            elif nxt in ("name", "("):
                acc = self.times(acc, self.unary())  # juxtaposition, e.g. "2x"
            else:
                return acc

    def unary(self) -> UniPoly:
        sign = 1
        while self.peek() in ("+", "-"):
            op, _ = self.next()
            if op == "-":
                sign = -sign
        p = self.power()
        return p if sign > 0 else -p

    def power(self) -> UniPoly:
        base = self.atom()
        if self.peek() == "^":
            self.next()
            e = self.exponent()
            # a constant's exponent counts as its degree, as documented
            self.check_degree(max(base.degree or 0, 1) * e)
            self.check_height(e * (_height_bits(base) + _log2_ceil(len(base.coeffs))))
            return base ** e
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

    def atom(self) -> UniPoly:
        nxt = self.peek()
        if nxt == "num":
            _, text = self.next()
            try:
                value = Fraction(text)
            except ValueError as exc:
                raise NonRationalCoefficient(f"bad numeric literal {text!r}") from exc
            return UniPoly.constant(value, self.var or "x")
        if nxt == "name":
            _, name = self.next()
            if self.var is None:
                self.var = name
            elif name != self.var:
                raise MultiVariableError(
                    f"second variable {name!r} after {self.var!r}"
                )
            return UniPoly.variable(name)
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


def _height_bits(a: UniPoly) -> int:
    """Bits H(a) with |n| * d < 2^H(a) for every coefficient n/d of a.

    H(a) is the largest numerator's bit length plus 2 * ceil(log2 D), D the
    common denominator, so D * a has integer coefficients below
    2^(H(a) - ceil(log2 D)).  Every coefficient n/d of a * b then has
    |n| * d < 2^(H(a) + H(b) + ceil(log2 t)), t the shorter operand's
    length, and every one of a^e has |n| * d < 2^(e * (H(a) + ceil(log2 len a))).
    """
    cs = a.coeffs
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
    Nor may a numeric literal have more than 4,300 digits, the dot not
    counted (``_ParseState.MAX_LITERAL_DIGITS``).  Each cap raises
    ``PolySyntaxError``.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise PolySyntaxError("empty polynomial text")
    state = _ParseState(tokens)
    poly = state.expr()
    if state.pos != len(tokens):
        kind, text_ = state.tokens[state.pos]
        raise PolySyntaxError(f"trailing input starting at {text_!r}")
    if poly.is_constant and state.var is not None:
        return UniPoly(poly.coeffs, state.var)
    return poly


# -- division, resultant -------------------------------------------------------


def poly_divmod(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Quotient and remainder over Q with deg r < deg b."""
    if b.is_zero:
        raise DivisionByZeroPoly("polynomial division by zero")
    var = a._join_var(b)
    if a.is_zero or (a.degree or 0) < (b.degree or 0):
        if b.is_constant:
            inv = 1 / Fraction(b.coefficient(0))
            return UniPoly((c * inv for c in a.coeffs), var), UniPoly((), var)
        return UniPoly((), var), a
    rem = list(a.coeffs)
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


def derivative(a: UniPoly) -> UniPoly:
    return UniPoly((k * a.coeffs[k] for k in range(1, len(a.coeffs))), a.var)


def _rational_split(a: UniPoly) -> tuple[int | Fraction, list[int]]:
    """Write a = scale * A with scale > 0 rational and A primitive integers."""
    cs = a.coeffs
    den = math.lcm(*[c.denominator for c in cs])
    # den == 1 means every coefficient is already an int
    ints = list(cs) if den == 1 else [c.numerator * (den // c.denominator) for c in cs]
    g = _int_content(ints)
    if g == 0:
        return 0, []
    scale = g if den == 1 else Fraction(g, den)
    return scale, ints if g == 1 else [c // g for c in ints]


def integer_model(a: UniPoly) -> UniPoly:
    """The primitive integer polynomial with the same roots and sign as a."""
    _, ints = _rational_split(a)
    return UniPoly(ints, a.var)


def _int_deg(A: Sequence[int]) -> int:
    return len(A) - 1


def _int_trim(A: list[int]) -> list[int]:
    while A and A[-1] == 0:
        A.pop()
    return A


def _int_prem(A: Sequence[int], B: Sequence[int]) -> list[int]:
    """Pseudo-remainder: lc(B)^(deg A - deg B + 1) * A mod B, deg A >= deg B."""
    dB = _int_deg(B)
    lb = B[-1]
    R = list(A)
    e = _int_deg(A) - dB + 1
    while len(R) > dB:
        lr = R.pop()  # the top term cancels: lb * lr - lr * lb
        shift = len(R) - dB
        R = [lb * c for c in R]
        for i in range(dB):
            R[shift + i] -= lr * B[i]
        _int_trim(R)
        e -= 1
    if e > 0:
        scale = lb ** e
        R = [scale * c for c in R]
    return R


def _int_content(A: Sequence[int]) -> int:
    return math.gcd(*A)


def _subresultant_resultant(A: list[int], B: list[int]) -> int:
    """Res(A, B) for nonzero integer polynomials, subresultant PRS."""
    s = 1
    if _int_deg(A) < _int_deg(B):
        if _int_deg(A) % 2 == 1 and _int_deg(B) % 2 == 1:
            s = -s
        A, B = B, A
    ca, cb = _int_content(A), _int_content(B)
    A = [c // ca for c in A]
    B = [c // cb for c in B]
    t = ca ** _int_deg(B) * cb ** _int_deg(A)
    g = h = 1
    while _int_deg(B) > 0:
        delta = _int_deg(A) - _int_deg(B)
        if _int_deg(A) % 2 == 1 and _int_deg(B) % 2 == 1:
            s = -s
        R = _int_prem(A, B)
        A = B
        if not R:
            return 0
        divisor = g * h ** delta
        B = [c // divisor for c in R]
        g = A[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = g ** delta // h ** (delta - 1)
    if _int_deg(A) == 0:
        return s * t  # two constants
    dA = _int_deg(A)
    res = B[0] ** dA if h == 1 else B[0] ** dA // h ** (dA - 1)
    return s * t * res


def resultant(a: UniPoly, b: UniPoly) -> Fraction:
    """Res(a, b) = lc(a)^deg(b) * prod of b over the roots of a."""
    a._join_var(b)
    if a.is_zero or b.is_zero:
        raise ZeroPolynomialError("resultant with a zero polynomial")
    ca, A = _rational_split(a)
    cb, B = _rational_split(b)
    res = ca ** _int_deg(B) * cb ** _int_deg(A) * _subresultant_resultant(A, B)
    return Fraction(res)


def discriminant(a: UniPoly) -> Fraction:
    """disc(a) = (-1)^(m(m-1)/2) Res(a, a') / lc(a), m = deg a >= 1."""
    if a.degree is None or a.degree < 1:
        raise ConstantPolynomialError("discriminant needs degree >= 1")
    m = a.degree
    if m == 1:
        return Fraction(1)
    r = resultant(a, derivative(a))
    sign = -1 if (m * (m - 1) // 2) % 2 else 1
    return sign * r / a.leading_coefficient


# -- integer utilities ---------------------------------------------------------


def is_perfect_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def rational_is_square(q: Fraction) -> bool:
    """True iff q is the square of a rational."""
    return q >= 0 and is_perfect_square(q.numerator) and is_perfect_square(q.denominator)


# Miller-Rabin with the first thirteen prime bases, 2 .. 41, decides
# primality exactly for n < psi_13 = 3.317e24 (Sorenson-Webster; the twelve
# bases up to 37 decide only n < psi_12 = 3.187e23).  At or above psi_13 the
# test is a strong-probable-prime test to more fixed bases, not a proof.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXTRA = (43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
_MR_CERTIFIED = 3317044064679887385961981


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
    bases = _MR_BASES if n < _MR_CERTIFIED else _MR_BASES + _MR_EXTRA
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


def _int_nth_root(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0."""
    if n < 2 or k == 1:
        return n
    lo, hi = 1, 1 << (n.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid ** k <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _brent_rho(n: int, c: int, max_iter: int) -> int | None:
    """One deterministic Brent-rho round; a proper factor of n or None."""
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
            for _ in range(min(128, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
                count += 1
            g = math.gcd(q, n)
            k += 128
        r *= 2
    if g == n:
        # gcd batching overshot; replay one step at a time
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
    if 1 < g < n:
        return g
    return None


# Trial division stops below 2^10: a cofactor below 2^20 left by it is
# prime, and anything larger goes to is_prime, the perfect-power test and
# Brent rho, which find a factor p in about sqrt(p) steps.
_TRIAL_LIMIT = 1 << 10
_TRIAL_PRIMES = tuple(primes_up_to(_TRIAL_LIMIT))
_RHO_TRIES = 24
_RHO_ITER_CAP = 1 << 18


def _factor_int(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1; FactorizationIncomplete on budget."""
    factors: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors[p] = e
    if n < _TRIAL_LIMIT * _TRIAL_LIMIT:  # no prime factor below its square root
        if n > 1:
            factors[n] = 1
        return factors
    stack = [n]
    while stack:
        m = stack.pop()
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        # every prime factor of m exceeds 2^10, so m = r^k forces 10k < bits
        for k in range(2, m.bit_length() // 10 + 1):
            root = _int_nth_root(m, k)
            if root ** k == m:
                stack.extend([root] * k)
                break
        else:
            for c in range(1, _RHO_TRIES + 1):
                f = _brent_rho(m, c, _RHO_ITER_CAP)
                if f is not None:
                    stack.append(f)
                    stack.append(m // f)
                    break
            else:
                raise FactorizationIncomplete(
                    f"could not factor {m} within the deterministic budget"
                )
    return factors


def int_squarefree_part(n: int) -> int:
    """The squarefree integer d with n = d * (square), sign preserved."""
    if n == 0:
        raise ZeroInput("squarefree part of 0 is undefined")
    sign = -1 if n < 0 else 1
    out = sign
    for p, e in _factor_int(abs(n)).items():
        if e % 2:
            out *= p
    return out


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; n must be nonzero."""
    if n == 0:
        raise ZeroInput("factorization of 0 is undefined")
    return _factor_int(abs(n))
