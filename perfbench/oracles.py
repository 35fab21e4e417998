"""Reference arithmetic the benchmark checks results against.

Nothing here imports tml.  Polynomials over a prime field F_p are lists
of ints, lowest degree first, with no trailing zeros; the zero polynomial
is [].  Rational functions are (numerator, denominator) pairs that are
never reduced: two of them are compared by cross-multiplication, so no
gcd is needed.  Polynomials over F_2 used for the Carlitz module are
Python ints whose bit i is the coefficient of T^i.
"""

from math import comb


# -- polynomials over F_p as lists -------------------------------------------

def trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def p_add(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return trim(out)


def p_neg(a, p):
    return [(-c) % p for c in a]


def p_sub(a, b, p):
    return p_add(a, p_neg(b, p), p)


def p_scale(a, c, p):
    return trim([x * c % p for x in a])


def p_mul(a, b, p):
    if not a or not b:
        return []
    if len(a) > len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return trim([c % p for c in out])


def monomial(k, c=1):
    return [0] * k + [c]


def stretch(a, k):
    """a(T^k); with k = q^i this is the i-fold Frobenius of a over F_p."""
    if not a:
        return []
    out = [0] * ((len(a) - 1) * k + 1)
    for i, c in enumerate(a):
        out[i * k] = c
    return out


def hasse(a, k, p):
    """The k-th Hasse derivative: T^m -> C(m, k) T^(m-k)."""
    return trim([comb(m, k) * a[m] % p for m in range(k, len(a))])


def carlitz_denominator(q, i):
    """D_i = prod_{j<i} (T^(q^i) - T^(q^j)) over F_q, q prime."""
    out = [1]
    for j in range(i):
        out = p_mul(out, p_sub(monomial(q ** i), monomial(q ** j), q), q)
    return out


# -- unreduced rational functions --------------------------------------------

ONE = ([1], [1])
ZERO = ([], [1])


def rf_add(x, y, p):
    if x[1] == y[1]:
        return p_add(x[0], y[0], p), x[1]
    return (p_add(p_mul(x[0], y[1], p), p_mul(y[0], x[1], p), p),
            p_mul(x[1], y[1], p))


def rf_sub(x, y, p):
    return rf_add(x, (p_neg(y[0], p), y[1]), p)


def rf_mul(x, y, p):
    if not x[0] or not y[0]:
        return ZERO
    return p_mul(x[0], y[0], p), p_mul(x[1], y[1], p)


def rf_eq(x, y, p):
    return p_mul(x[0], y[1], p) == p_mul(y[0], x[1], p)


def mat_mul(a, b, p):
    n, m, k = len(a), len(b), len(b[0])
    out = []
    for r in range(n):
        row = []
        for c in range(k):
            acc = ZERO
            for j in range(m):
                acc = rf_add(acc, rf_mul(a[r][j], b[j][c], p), p)
            row.append(acc)
        out.append(row)
    return out


def exp_equation_holds(a_mats, e_mats, i, q):
    """Order-i equation of the exponential of T -> sum A_j tau^j:

        E_i A_0^(i) - A_0 E_i == sum_{j=1..min(i,d)} A_j E_{i-j}^(j)

    a_mats and e_mats are square grids of rational functions; ^(j) is
    the entrywise q^j power.
    """
    p = q
    a0 = a_mats[0]
    ei = e_mats[i]
    a0i = [[rf_frob_n(x, q, i) for x in row] for row in a0]
    lhs = mat_mul(ei, a0i, p)
    right = mat_mul(a0, ei, p)
    lhs = [[rf_sub(x, y, p) for x, y in zip(r1, r2)]
           for r1, r2 in zip(lhs, right)]
    n = len(a0)
    rhs = [[ZERO] * n for _ in range(n)]
    for j in range(1, min(i, len(a_mats) - 1) + 1):
        tw = [[rf_frob_n(x, q, j) for x in row] for row in e_mats[i - j]]
        term = mat_mul(a_mats[j], tw, p)
        rhs = [[rf_add(x, y, p) for x, y in zip(r1, r2)]
               for r1, r2 in zip(rhs, term)]
    return all(rf_eq(x, y, p) for r1, r2 in zip(lhs, rhs)
               for x, y in zip(r1, r2))


def rf_frob_n(x, q, n):
    """x^(q^n) over the prime field F_q: coefficients are fixed by the
    Frobenius, so only exponents scale."""
    return (stretch(x[0], q ** n), stretch(x[1], q ** n)) if n else x


# -- the Carlitz module over F_2[T], polynomials as ints ---------------------

def clmul(a, b):
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def carlitz_gf2(a_bits, x):
    """C_a(x) over F_2: C_T(x) = T*x + x^2, extended F_2-linearly in a."""
    acc = 0
    cur = x
    i = 0
    while a_bits >> i:
        if (a_bits >> i) & 1:
            acc ^= cur
        cur = clmul(0b10, cur) ^ clmul(cur, cur)
        i += 1
    return acc


def monic_divisors_gf2(a_bits):
    """Monic divisors of a over F_2 other than a itself."""
    out = []
    for d in range(1, a_bits):
        if d.bit_length() <= a_bits.bit_length() and _gf2_mod(a_bits, d) == 0:
            out.append(d)
    return out


def _gf2_mod(a, b):
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def bits_from_list(a):
    return sum(1 << i for i, c in enumerate(a) if c)


# -- reading tml's printed expressions ---------------------------------------

def parse_poly_text(text, p):
    """'2*T^3+T+1' -> [1, 1, 0, 2]; accepts exactly the printed form."""
    text = text.strip()
    if text == "0":
        return []
    out = {}
    for term in text.split("+"):
        if "*" in term:
            c, var = term.split("*")
            c = int(c)
        elif "T" in term:
            c, var = 1, term
        else:
            c, var = int(term), ""
        if var == "":
            k = 0
        elif var == "T":
            k = 1
        elif var.startswith("T^"):
            k = int(var[2:])
        else:
            raise ValueError(f"unexpected term {term!r}")
        if k in out:
            raise ValueError(f"repeated degree in {text!r}")
        out[k] = c % p
    size = max(out) + 1
    return trim([out.get(k, 0) for k in range(size)])


def parse_ratfunc_text(text, p):
    """'(num)/(den)' or a polynomial -> (num, den) lists."""
    text = text.strip()
    if text.startswith("(") and ")/(" in text and text.endswith(")"):
        num, den = text[1:-1].split(")/(")
        return parse_poly_text(num, p), parse_poly_text(den, p)
    return parse_poly_text(text, p), [1]
