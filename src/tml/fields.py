"""Exact arithmetic over F_q, the ring F_q[T], the field F_q(T), and
explicit towers of finite extensions on top of it.

Elements of F_q are plain ints in [0, q) packing the polynomial-basis
coefficients base p.  A polynomial holds the native form of its field
kind, chosen once when it is built: over F_2 one int whose bit i is the
T**i coefficient, so that addition is XOR and multiplication, division
and gcd are shifts and XORs of that int; over any other field a tuple of
coefficients, lowest degree first, with no trailing zeros, whose kernels
look every coefficient operation up in FiniteField's tables, over prime
and extension fields alike.  Rational functions keep a monic, coprime
denominator at all times.  A tower element above F_q(T) is
the tuple of its coordinates over F_q(T) in the tower's monomial basis:
products go through a cached table of basis products, and an inverse is
one exact linear solve.
"""

from __future__ import annotations

from functools import partial

from .errors import (BadParameter, CertificateError, FieldMismatch,
                     ShapeMismatch, ZeroDivisor)
from .linalg import gauss_solve

P_LIMIT = 13
E_LIMIT = 4
TABLE_LIMIT = 256


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# kernels on the bit-packed ints of F_2[T], and helpers for coefficient
# tuples and base-p digits


def _strip(c):
    k = len(c)
    while k and not c[k - 1]:
        k -= 1
    return tuple(c[:k])


def _gf2_mul(a, b):
    if a.bit_length() > b.bit_length():
        a, b = b, a
    out = 0
    while a:
        low = a & -a
        out ^= b << (low.bit_length() - 1)
        a ^= low
    return out


def _gf2_divmod(a, b):
    db = b.bit_length()
    q = 0
    sh = a.bit_length() - db
    while sh >= 0:
        q |= 1 << sh
        a ^= b << sh
        sh = a.bit_length() - db
    return q, a


def _gf2_gcd(a, b):
    while b:
        db = b.bit_length()
        sh = a.bit_length() - db
        while sh >= 0:
            a ^= b << sh
            sh = a.bit_length() - db
        a, b = b, a
    return a


def _is_irreducible(f):
    """Trial division of f in F_p[T] by every monic polynomial of degree
    at most deg/2; a constant is not irreducible."""
    fp, p = f.field, f.field.p
    for d in range(1, f.degree // 2 + 1):
        for k in range(p ** d):
            if not f % Poly(fp, _digits(k, p, d) + (1,)):
                return False
    return f.degree >= 1


def _sum_text(coeffs, var):
    """The expression sum(coeffs[i] * var**i), highest power first, from
    printed coefficients: a "0" term is left out, a "1" coefficient
    leaves the bare power, and a coefficient that is a sum is put in
    parentheses; "0" when every coefficient is "0"."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        cs = coeffs[i]
        if cs == "0":
            continue
        if i:
            power = var if i == 1 else f"{var}^{i}"
            cs = (power if cs == "1" else f"({cs})*{power}" if "+" in cs
                  else f"{cs}*{power}")
        terms.append(cs)
    return "+".join(terms) or "0"


def _digits(n, p, width):
    out = []
    for _ in range(width):
        out.append(n % p)
        n //= p
    return tuple(out)


def _undigits(digits, p):
    n = 0
    for d in reversed(digits):
        n = n * p + d
    return n


class _OnDemand:
    """A read-only table whose entry [a] is fn(a), computed on access."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __getitem__(self, a):
        return self.fn(a)


class FiniteField:
    """F_q with q = p**e in a polynomial basis over the prime field.

    An element sum(c_i * gen**i) is encoded as the int sum(c_i * p**i).
    The defining modulus is the first monic irreducible of degree e in
    lexicographic coefficient order unless one is supplied.

    The arithmetic is four tables built with the field, add_table[a][b],
    neg_table[a], mul_table[a][b] and inv_table[a] (inv_table[0] is 0):
    lists up to q = TABLE_LIMIT, and above it entries computed on access.
    """

    __slots__ = ("p", "e", "q", "modulus", "gen_name", "key", "add_table",
                 "neg_table", "mul_table", "inv_table")

    def __init__(self, p, e=1, modulus=None, gen_name=None):
        if not _is_prime(p):
            raise BadParameter(f"p must be prime, got {p}")
        if e < 1:
            raise BadParameter(f"e must be positive, got {e}")
        if p > P_LIMIT or e > E_LIMIT:
            raise BadParameter(f"field size out of range: p={p}, e={e} "
                               f"(p <= {P_LIMIT}, e <= {E_LIMIT})")
        self.p = p
        self.e = e
        self.q = p ** e
        if modulus is None:
            modulus = self._find_modulus(p, e)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise BadParameter("modulus must be monic of degree e")
            if e > 1 and not _is_irreducible(Poly(FiniteField(p), modulus)):
                raise BadParameter("modulus is reducible")
        self.modulus = modulus
        if gen_name is None and e > 1:
            gen_name = "g"
        self.gen_name = gen_name
        self.key = (p, e, modulus)
        self._build_tables()

    @staticmethod
    def _find_modulus(p, e):
        if e == 1:
            return (0, 1)
        fp = FiniteField(p)
        for k in range(p ** e):
            cand = _digits(k, p, e) + (1,)
            if _is_irreducible(Poly(fp, cand)):
                return cand
        raise AssertionError("no irreducible modulus found")

    def _build_tables(self):
        p, q = self.p, self.q
        if self.e == 1:
            cycle = list(range(p)) * 2
            add = [cycle[a:a + p] for a in range(p)]
            mul = [[a * b % p for b in range(p)] for a in range(p)]
        elif q <= TABLE_LIMIT:
            add = [[self._add_slow(a, b) for b in range(q)] for a in range(q)]
            mul = [[self._mul_slow(a, b) for b in range(q)] for a in range(q)]
        else:
            add = _OnDemand(lambda a: _OnDemand(partial(self._add_slow, a)))
            mul = _OnDemand(lambda a: _OnDemand(partial(self._mul_slow, a)))
        self.add_table, self.mul_table = add, mul
        # p - 1 encodes -1 of the prime subfield
        self.neg_table = mul[p - 1]
        self.inv_table = ([0] + [row.index(1) for row in mul[1:]]
                          if q <= TABLE_LIMIT
                          else _OnDemand(lambda a: self.pow(a, q - 2)))

    def _add_slow(self, a, b):
        if not (a and b):
            return a or b
        p, e = self.p, self.e
        return _undigits([(x + y) % p for x, y in
                          zip(_digits(a, p, e), _digits(b, p, e))], p)

    def _mul_slow(self, a, b):
        if not (a and b):
            return 0
        p, e, m = self.p, self.e, self.modulus
        conv = [0] * (2 * e - 1)
        for i, x in enumerate(_digits(a, p, e)):
            if x:
                for j, y in enumerate(_digits(b, p, e)):
                    conv[i + j] += x * y
        # gen**e = -(m_0 + m_1 gen + ... + m_(e-1) gen**(e-1)), top down
        for k in range(2 * e - 2, e - 1, -1):
            c = conv[k]
            if c:
                for i in range(e):
                    conv[k - e + i] -= c * m[i]
        return _undigits([c % p for c in conv[:e]], p)

    # -- encoded element helpers

    def elem(self, n: int) -> int:
        """An integer literal, reduced into the prime subfield."""
        return int(n) % self.p

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def sub(self, a: int, b: int) -> int:
        return self.add_table[a][self.neg_table[b]]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisor("inverse of zero in F_q")
        return self.inv_table[a]

    def pow(self, a: int, n: int) -> int:
        out = 1
        base = a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def pth_root(self, a: int) -> int:
        """The unique b with b**p == a; F_q is perfect."""
        return self.pow(a, self.p ** (self.e - 1))

    def fmt(self, a: int) -> str:
        """Canonical expression string for an encoded element."""
        if self.e == 1:
            return str(a)
        return _sum_text(list(map(str, _digits(a, self.p, self.e))),
                         self.gen_name)

    def __eq__(self, other):
        return isinstance(other, FiniteField) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"FiniteField(p={self.p}, e={self.e})"


# ---------------------------------------------------------------------------
# polynomials


_new = object.__new__


def _poly(field, rep):
    """A Poly from a native form that is already reduced and stripped."""
    out = _new(Poly)
    out.field = field
    out.rep = rep
    return out


def _power(x, n, one):
    """x**n by repeated squaring from the lowest set bit of n: one
    squaring per bit below the top one and one product per further set
    bit, so T**2 is one product and T**16 four."""
    if n < 0:
        raise BadParameter(f"negative power {n}")
    if not n:
        return one
    while not n & 1:
        x = x * x
        n >>= 1
    out = x
    n >>= 1
    while n:
        x = x * x
        if n & 1:
            out = out * x
        n >>= 1
    return out


class Poly:
    """Polynomial in T over F_q, held in the native form of its field kind.

    rep is one int whose bit i is the T**i coefficient when q == 2, and
    otherwise a tuple of encoded coefficients, lowest degree first, with
    no trailing zeros.  Over F_2 the kernels are shifts and XORs of that
    int; over any other field they look every coefficient operation up in
    FiniteField's tables, a row at a time.
    """

    __slots__ = ("field", "rep", "_coeffs")

    def __init__(self, field, coeffs):
        """coeffs lists the T**0, T**1, ... coefficients: any ints over a
        prime field, reduced mod p, or encoded elements of [0, q) over an
        extension field."""
        if field.e == 1:
            cs = [c % field.p for c in coeffs]
        else:
            cs = list(coeffs)
            for c in cs:
                if not 0 <= c < field.q:
                    raise BadParameter(f"coefficient {c} is not an encoded "
                                       f"element of F_{field.q}")
        self.field = field
        if field.q == 2:
            self.rep = int("".join(map(str, reversed(cs))) or "0", 2)
        else:
            self.rep = _strip(cs)

    @classmethod
    def zero(cls, field):
        return _poly(field, 0 if field.q == 2 else ())

    @classmethod
    def one(cls, field):
        return _poly(field, 1 if field.q == 2 else (1,))

    @classmethod
    def gen(cls, field):
        return _poly(field, 2 if field.q == 2 else (0, 1))

    @classmethod
    def constant(cls, field, c):
        return cls(field, (c,))

    @property
    def coeffs(self):
        """The coefficient tuple, lowest degree first, no trailing zeros."""
        rep = self.rep
        if self.field.q != 2:
            return rep
        try:
            return self._coeffs
        except AttributeError:
            self._coeffs = tuple(map(int, bin(rep)[:1:-1])) if rep else ()
            return self._coeffs

    @property
    def degree(self) -> int:
        rep = self.rep
        return rep.bit_length() - 1 if self.field.q == 2 else len(rep) - 1

    def is_zero(self) -> bool:
        return not self.rep

    def lc(self) -> int:
        if not self.rep:
            raise ValueError("zero polynomial has no leading coefficient")
        return 1 if self.field.q == 2 else self.rep[-1]

    def is_monic(self) -> bool:
        return bool(self.rep) and (self.field.q == 2 or self.rep[-1] == 1)

    def _check(self, other):
        if other.field is not self.field and other.field != self.field:
            raise FieldMismatch("polynomials over different fields")

    def __add__(self, other):
        self._check(other)
        f = self.field
        a, b = self.rep, other.rep
        if f.q == 2:
            return _poly(f, a ^ b)
        if len(a) < len(b):
            a, b = b, a
        add = f.add_table
        low = [add[x][y] for x, y in zip(a, b)]
        if len(a) > len(b):
            return _poly(f, tuple(low) + a[len(b):])
        return _poly(f, _strip(low))

    def __neg__(self):
        f = self.field
        if f.p == 2:
            return self
        neg = f.neg_table
        return _poly(f, tuple([neg[c] for c in self.rep]))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        f = self.field
        a, b = self.rep, other.rep
        if not a:
            return self
        if not b:
            return other
        if f.q == 2:
            return _poly(f, _gf2_mul(a, b))
        if len(a) < len(b):
            a, b = b, a
        n = len(a)
        out = [0] * (n + len(b) - 1)
        add, mul = f.add_table, f.mul_table
        for i, y in enumerate(b):
            if y:
                row = mul[y]
                out[i:i + n] = [add[s][row[x]] if x else s
                                for s, x in zip(out[i:i + n], a)]
        return _poly(f, tuple(out))

    def scale(self, c: int):
        """The product with an encoded element c of F_q."""
        f = self.field
        if c == 0:
            return Poly.zero(f)
        if c == 1:
            return self
        row = f.mul_table[c]
        return _poly(f, tuple([row[x] for x in self.rep]))

    def __pow__(self, n: int):
        return _power(self, n, Poly.one(self.field))

    def __divmod__(self, other):
        self._check(other)
        f = self.field
        a, b = self.rep, other.rep
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        if f.q == 2:
            q, r = _gf2_divmod(a, b)
            return _poly(f, q), _poly(f, r)
        db = len(b) - 1
        n = len(a) - db
        add, neg, mul = f.add_table, f.neg_table, f.mul_table
        lead = mul[f.inv_table[b[-1]]]
        low = b[:-1]
        rem = list(a)
        quo = [0] * n
        for off in range(n - 1, -1, -1):
            c = lead[rem[off + db]]
            if c:
                quo[off] = c
                row = mul[neg[c]]
                rem[off:off + db] = [add[r][row[y]] if y else r
                                     for r, y in zip(rem[off:off + db], low)]
        return _poly(f, tuple(quo)), _poly(f, _strip(rem[:db]))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divexact(self, other):
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def gcd(self, other):
        """Monic greatest common divisor."""
        self._check(other)
        f = self.field
        if f.q == 2:
            return _poly(f, _gf2_gcd(self.rep, other.rep))
        a, b = self, other
        while b.rep:
            a, b = b, a % b
        return a.monic()

    def monic(self):
        if self.is_zero() or self.is_monic():
            return self
        return self.scale(self.field.inv_table[self.rep[-1]])

    def stretch(self, k: int):
        """Substitute T -> T**k; with k = q**i this is the i-fold Frobenius."""
        rep = self.rep
        if k == 1 or not rep:
            return self
        if self.field.q == 2:
            # bit i moves to bit i*k: k - 1 zeros between binary digits
            return _poly(self.field, int(("0" * (k - 1)).join(bin(rep)[2:]), 2))
        out = [0] * ((len(rep) - 1) * k + 1)
        out[::k] = rep
        return _poly(self.field, tuple(out))

    def at(self, x, const):
        """Horner's rule at x in any ring with * and +, where const(c)
        embeds an encoded coefficient; zero coefficients add nothing."""
        coeffs = self.coeffs
        if not coeffs:
            return const(0)
        acc = const(coeffs[-1])
        for c in reversed(coeffs[:-1]):
            acc = acc * x
            if c:
                acc = acc + const(c)
        return acc

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.rep == other.rep
                and (self.field is other.field or self.field == other.field))

    def __hash__(self):
        return hash((self.field.key, self.rep))

    def __bool__(self):
        return bool(self.rep)

    def to_expr(self) -> str:
        """Canonical expression string, highest degree first."""
        fmt = self.field.fmt
        return _sum_text([fmt(c) if c else "0" for c in self.coeffs], "T")

    def __repr__(self):
        return f"Poly({self.to_expr()})"


class RatFunc:
    """Element of F_q(T) as a reduced fraction with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly, trusted=False):
        if trusted:
            self.num = num
            self.den = den
            return
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        f = num.field
        if den.field is not f and den.field != f:
            raise FieldMismatch("numerator and denominator over different fields")
        if f.q == 2:
            # every nonzero polynomial over F_2 is monic
            a, b = num.rep, den.rep
            if not a:
                den = Poly.one(f)
            elif b != 1:
                g = _gf2_gcd(a, b)
                if g != 1:
                    num = _poly(f, _gf2_divmod(a, g)[0])
                    den = _poly(f, _gf2_divmod(b, g)[0])
            self.num = num
            self.den = den
            return
        if num.is_zero():
            self.num = num
            self.den = Poly.one(f)
            return
        if den.degree > 0:
            g = num.gcd(den)
            if g.degree > 0:
                num = num.divexact(g)
                den = den.divexact(g)
        if not den.is_monic():
            c = f.inv_table[den.lc()]
            num = num.scale(c)
            den = den.scale(c)
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, p: Poly):
        return cls(p, Poly.one(p.field), trusted=True)

    @classmethod
    def zero(cls, field):
        return cls.from_poly(Poly.zero(field))

    @classmethod
    def one(cls, field):
        return cls.from_poly(Poly.one(field))

    @classmethod
    def gen(cls, field):
        return cls.from_poly(Poly.gen(field))

    @property
    def field(self):
        return self.num.field

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        # the monic denominator of a polynomial is 1: rep 1 over F_2, else (1,)
        rep = self.den.rep
        return rep == 1 or rep == (1,)

    def __add__(self, other):
        if self.field is other.field:
            if other.is_zero():
                return self
            if self.is_zero():
                return other
        if self.den == other.den:
            # a sum of polynomials is already reduced
            return RatFunc(self.num + other.num, self.den,
                           trusted=self.is_poly())
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    def __neg__(self):
        return RatFunc(-self.num, self.den, trusted=True)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.den.rep, other.den.rep
        if (a == 1 or a == (1,)) and (b == 1 or b == (1,)):
            return RatFunc(self.num * other.num, self.den, trusted=True)
        return RatFunc(self.num * other.num, self.den * other.den)

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisor("inverse of zero rational function")
        return RatFunc(self.den, self.num)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, n: int):
        return RatFunc(self.num ** n, self.den ** n)

    def frob(self, i: int = 1):
        """The q**i power; on F_q(T) this just stretches exponents."""
        if i < 0:
            raise BadParameter(f"negative Frobenius power {i}")
        if i == 0 or self.is_zero():
            return self
        k = self.field.q ** i
        return RatFunc(self.num.stretch(k), self.den.stretch(k), trusted=True)

    def graded_root_parts(self):
        """p-th roots of the components of x over the subfield of p-th powers.

        F_q(T) is free over its subfield of p-th powers with basis
        1, T, ..., T**(p-1).  Returns (r_0, ..., r_{p-1}) with
        x = sum(r_i**p * T**i); every component of the decomposition is a
        p-th power, so the roots always exist.
        """
        f = self.field
        p = f.p
        coeffs = (self.num * self.den ** (p - 1)).coeffs
        return tuple(RatFunc(Poly(f, [f.pth_root(c) for c in coeffs[r::p]]),
                             self.den) for r in range(p))

    def pth_root(self):
        """The y with y**p == x, or None when x is not a p-th power."""
        parts = self.graded_root_parts()
        if any(not parts[r].is_zero() for r in range(1, len(parts))):
            return None
        return parts[0]

    def __eq__(self, other):
        return (isinstance(other, RatFunc) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def to_expr(self) -> str:
        if self.is_poly():
            return self.num.to_expr()
        return f"({self.num.to_expr()})/({self.den.to_expr()})"

    def __repr__(self):
        return f"RatFunc({self.to_expr()})"


def _sparse(vec, one):
    """(j, c) for the nonzero coordinates c of vec, with None for c == 1."""
    return [(j, None if c == one else c) for j, c in enumerate(vec)
            if not c.is_zero()]


def _add_into(out, x, cell, zero):
    """out += x * cell, where cell is a sparse vector in _sparse's format;
    coordinates of out that are still the object zero are overwritten."""
    for k, c in cell:
        term = x if c is None else x * c
        out[k] = term if out[k] is zero else out[k] + term


class FieldTower:
    """F_q(T) with a chain of named quotient-ring extension steps.

    Each step adjoins a generator with a monic defining polynomial of
    degree at least two over the previous level.  Defining polynomials
    are not checked for irreducibility, so a level is a quotient ring in
    which a unit inverts and a zero divisor raises ZeroDivisor.

    Above the base, an element is the tuple of its coordinates over the
    base field k = F_q(T) in the monomial basis e_(j*m + i) = gen**j * f_i,
    where f_0 .. f_(m-1) is the parent's basis.  An extension level builds
    its tables with itself: mul_table[i][j] lists (k, c) for the nonzero
    coordinates c of e_i * e_j, from the parent's table and the defining
    polynomial; frob_table[i] lists (j, c) for those of frob(e_i), the
    images of the q-semilinear Frobenius frob(sum x_i e_i) =
    sum x_i**q * frob(e_i); c is None where the coordinate is 1.
    basis_pth_powers[i] is the coordinate vector of e_i**p.  The base
    level needs no table.  Towers and their elements are immutable, so
    zero() and one() are built once per tower and shared.
    """

    __slots__ = ("fq", "parent", "name", "modulus", "depth", "_dim", "_zero",
                 "_one", "mul_table", "frob_table", "basis_pth_powers",
                 "_key")

    def __init__(self, fq: FiniteField, _parent=None, _name=None, _modulus=None):
        self.fq = fq
        self.parent = _parent
        self.name = _name
        self.modulus = _modulus
        self.depth = 0 if _parent is None else _parent.depth + 1
        zero, one = RatFunc.zero(fq), RatFunc.one(fq)
        if _parent is None:
            self._dim = 1
            self._key = (fq.key,)
            self._zero = TowerElement(self, zero)
            self._one = TowerElement(self, one)
        else:
            self._dim = _parent._dim * (len(_modulus) - 1)
            self._key = _parent._key + ((_name, tuple(c.data_key() for c in _modulus)),)
            pad = (zero,) * (self._dim - 1)
            self._zero = TowerElement(self, (zero,) + pad)
            self._one = TowerElement(self, (one,) + pad)
            self.mul_table = self._build_mul_table()
            qth = self._basis_powers(fq.q)
            self.frob_table = [_sparse(v, one) for v in qth]
            self.basis_pth_powers = (qth if fq.e == 1
                                     else self._basis_powers(fq.p))

    def extend(self, name: str, modulus_coeffs) -> "FieldTower":
        """A new tower with one more step.

        modulus_coeffs lists the full monic defining polynomial over this
        tower, constant term first, leading coefficient one.
        """
        coeffs = tuple(modulus_coeffs)
        if len(coeffs) < 3:
            raise ValueError("defining polynomial must have degree at least 2")
        for c in coeffs:
            if not isinstance(c, TowerElement) or c.tower != self:
                raise FieldMismatch("modulus coefficients must live in the parent tower")
        if coeffs[-1] != self.one():
            raise ValueError("defining polynomial must be monic")
        if name == "T" or name in self.names() or name == self.fq.gen_name:
            raise ValueError(f"generator name {name!r} already in use")
        return FieldTower(self.fq, _parent=self, _name=name, _modulus=coeffs)

    def names(self):
        return tuple(t.name for t in self.ancestors()[1:])

    def step_degree(self) -> int:
        return len(self.modulus) - 1 if self.parent is not None else 1

    def total_degree(self) -> int:
        """Dimension over the base field F_q(T)."""
        return self._dim

    def base(self) -> "FieldTower":
        return self.ancestors()[0]

    def ancestors(self):
        out = []
        t = self
        while t is not None:
            out.append(t)
            t = t.parent
        out.reverse()
        return out

    def extends(self, other: "FieldTower") -> bool:
        return self._key[:len(other._key)] == other._key

    # -- element constructors

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def T(self):
        return self.from_ratfunc(RatFunc.gen(self.fq))

    def const(self, c: int):
        """Embed an encoded F_q element."""
        return self.from_ratfunc(RatFunc.from_poly(Poly.constant(self.fq, c)))

    def from_ratfunc(self, rf: RatFunc):
        if rf.field != self.fq:
            raise FieldMismatch("rational function over a different F_q")
        if self.parent is None:
            return TowerElement(self, rf)
        return TowerElement(self, (rf,) + self._zero.data[1:])

    def gen(self):
        """The generator adjoined by the top step."""
        if self.parent is None:
            return self.T()
        return self._unit(self.parent._dim)

    def embed(self, elem: "TowerElement") -> "TowerElement":
        """Lift an element of an ancestor tower into this one."""
        if elem.tower == self:
            return elem
        if not self.extends(elem.tower):
            raise FieldMismatch("element does not live below this tower")
        vec = elem.tower.flatten(elem)
        return TowerElement(self, vec + self._zero.data[len(vec):])

    # -- coordinates over the base field k = F_q(T)

    def flatten(self, elem: "TowerElement"):
        """Coordinates of elem in the monomial basis over the base field."""
        return elem.data if self.parent is not None else (elem.data,)

    def unflatten(self, vec):
        """Inverse of flatten; vec is a sequence of RatFunc of full length."""
        if len(vec) != self._dim:
            raise ShapeMismatch(f"{len(vec)} coordinates for a tower of "
                                f"degree {self._dim}")
        if self.parent is None:
            return TowerElement(self, vec[0])
        return TowerElement(self, tuple(vec))

    def _unit(self, i):
        """The monomial basis element e_i."""
        vec = self.flatten(self._zero)
        return self.unflatten(vec[:i] + (RatFunc.one(self.fq),) + vec[i + 1:])

    def _build_mul_table(self):
        up, d, m = self.parent, self.step_degree(), self.parent._dim
        # gen**s for s <= 2d - 2 as d coefficients over the parent: shift
        # by gen, then replace gen**d by -(sum of mu_t * gen**t)
        low = self.modulus[:-1]
        pw = [[up.one()] + [up.zero()] * (d - 1)]
        for _ in range(2 * d - 2):
            prev = pw[-1]
            pw.append([c - prev[-1] * mu
                       for c, mu in zip([up.zero()] + prev[:-1], low)])
        fb = [up._unit(i) for i in range(m)]
        prods = [[x * y for y in fb] for x in fb]
        one = RatFunc.one(self.fq)
        # e_(a*m + i) * e_(b*m + j) = f_i * f_j * gen**(a + b)
        return [[_sparse([x for c in pw[a // m + b // m]
                          for x in up.flatten(prods[a % m][b % m] * c)], one)
                 for b in range(self._dim)] for a in range(self._dim)]

    def _basis_powers(self, k):
        return [self.flatten(self._unit(i) ** k) for i in range(self._dim)]

    def __eq__(self, other):
        return isinstance(other, FieldTower) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        steps = ", ".join(self.names())
        return f"FieldTower(q={self.fq.q}" + (f"; {steps})" if steps else ")")


class TowerElement:
    """Element of a FieldTower: a RatFunc at the base level, and above it
    the tuple of its coordinates over F_q(T) in the tower's monomial
    basis (see FieldTower)."""

    __slots__ = ("tower", "data")

    def __init__(self, tower, data):
        self.tower = tower
        self.data = data

    def data_key(self):
        if self.tower.parent is None:
            return (self.data.num.rep, self.data.den.rep)
        return tuple((c.num.rep, c.den.rep) for c in self.data)

    def _check(self, other):
        if not isinstance(other, TowerElement) or (
                other.tower is not self.tower and other.tower != self.tower):
            raise FieldMismatch("tower elements from different towers")

    def is_zero(self) -> bool:
        if self.tower.parent is None:
            return self.data.is_zero()
        # a coordinate is zero exactly when its numerator's rep is empty
        for c in self.data:
            if c.num.rep:
                return False
        return True

    def zero(self):
        return self.tower.zero()

    def one(self):
        return self.tower.one()

    def parts(self):
        """The step_degree() coefficients over the parent level, constant
        term first."""
        t = self.tower
        m = t.parent._dim
        return [t.parent.unflatten(self.data[j * m:(j + 1) * m])
                for j in range(t.step_degree())]

    def __add__(self, other):
        self._check(other)
        if self.tower.parent is None:
            return TowerElement(self.tower, self.data + other.data)
        return TowerElement(self.tower,
                            tuple(a + b for a, b in zip(self.data, other.data)))

    def __neg__(self):
        if self.tower.parent is None:
            return TowerElement(self.tower, -self.data)
        return TowerElement(self.tower, tuple(-c for c in self.data))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        t = self.tower
        if t.parent is None:
            return TowerElement(t, self.data * other.data)
        zero = t._zero.data[0]
        out = list(t._zero.data)
        for x, row in zip(self.data, t.mul_table):
            if x.num.rep:
                for y, cell in zip(other.data, row):
                    if y.num.rep:
                        _add_into(out, x * y, cell, zero)
        return TowerElement(t, tuple(out))

    def __pow__(self, n: int):
        return _power(self, n, self.tower.one())

    def inverse(self):
        """The y with self * y == 1, by one exact linear solve over
        F_q(T).  A unit has exactly one solution; a zero divisor has
        none and raises ZeroDivisor."""
        t = self.tower
        if t.parent is None:
            return TowerElement(t, self.data.inverse())
        if self.is_zero():
            raise ZeroDivisor("inverse of zero tower element", self)
        # cols[j] gathers the coordinates of self * e_j
        n, zero = t._dim, t._zero.data[0]
        cols = [list(t._zero.data) for _ in range(n)]
        for x, row in zip(self.data, t.mul_table):
            if x.num.rep:
                for col, cell in zip(cols, row):
                    _add_into(col, x, cell, zero)
        base = t.base()
        rows = [[TowerElement(base, col[k]) for col in cols] for k in range(n)]
        sol = gauss_solve(base, rows, [base.one()] + [base.zero()] * (n - 1))
        if sol is None:
            raise ZeroDivisor("defining polynomial is reducible", self)
        return t.unflatten([c.data for c in sol])

    def __truediv__(self, other):
        return self * other.inverse()

    def frob(self, i: int = 1):
        """The q**i power, computed as a ring homomorphism: each of the i
        steps stretches every nonzero coordinate x_j to x_j**q and adds
        x_j**q * frob(e_j) from the tower's Frobenius table."""
        if i < 0:
            raise BadParameter(f"negative Frobenius power {i}")
        if i == 0:
            return self
        t = self.tower
        if t.parent is None:
            return TowerElement(t, self.data.frob(i))
        table, zero = t.frob_table, t._zero.data[0]
        vec = self.data
        for _ in range(i):
            out = list(t._zero.data)
            for x, cell in zip(vec, table):
                if x.num.rep:
                    _add_into(out, x.frob(1), cell, zero)
            vec = tuple(out)
        return TowerElement(t, vec)

    def __eq__(self, other):
        if not isinstance(other, TowerElement) or (
                other.tower is not self.tower and other.tower != self.tower):
            return False
        return self.data == other.data

    def __hash__(self):
        return hash((self.tower._key, self.data_key()))

    def __bool__(self):
        return not self.is_zero()

    def to_expr(self) -> str:
        t = self.tower
        if t.parent is None:
            return self.data.to_expr()
        return _sum_text([c.to_expr() for c in self.parts()], t.name)

    def __repr__(self):
        return f"TowerElement({self.to_expr()})"


def pth_root(x: TowerElement):
    """The y in the same tower with y**p == x, or None when absent.

    At the base level the monomial-exponent test applies directly.  At an
    extension level the candidate root is written in the monomial basis,
    its p-th power becomes a linear system in the base-level coordinates
    after splitting along the basis 1, T, ..., T**(p-1) of F_q(T) over its
    subfield of p-th powers, and the system is solved exactly.
    """
    tower = x.tower
    if tower.parent is None:
        r = x.data.pth_root()
        return None if r is None else TowerElement(tower, r)
    p = tower.fq.p
    base = tower.base()
    gvecs = tower.basis_pth_powers
    xs = tower.flatten(x)
    dim = len(gvecs)
    rows = []
    rhs = []
    for i in range(dim):
        xparts = xs[i].graded_root_parts()
        gparts = [gvecs[j][i].graded_root_parts() for j in range(dim)]
        for r in range(p):
            rows.append([TowerElement(base, gparts[j][r]) for j in range(dim)])
            rhs.append(TowerElement(base, xparts[r]))
    sol = gauss_solve(base, rows, rhs)
    if sol is None:
        return None
    y = tower.unflatten([c.data for c in sol])
    if y ** p != x:
        raise CertificateError("p-th root failed its re-check y**p == x")
    return y


def substitute(poly: Poly, value: TowerElement) -> TowerElement:
    """Evaluate a base polynomial at a tower element."""
    return poly.at(value, value.tower.const)


def ratfunc_substitute(rf: RatFunc, value: TowerElement) -> TowerElement:
    """Evaluate a rational function at a tower element (denominator must not vanish)."""
    num = substitute(rf.num, value)
    den = substitute(rf.den, value)
    return num * den.inverse()
