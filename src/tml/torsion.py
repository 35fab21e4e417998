"""Torsion certification and the square-root twist counterexample family.

A point is torsion when some nonzero base polynomial acts on it as zero.
Its annihilator is an ideal of F_q[T], because a -> phi_a is a ring
homomorphism, so the monic generator of that ideal is the point's order.
The search finds it as the first F_q-linear dependency among the iterates
P, phi_T(P), phi_T^2(P), ... (the Krylov sequence of the point): each
iterate is flattened to F_q(T) coordinates, put over one common
denominator, and the numerators' coefficients are eliminated as F_q
vectors.  The cost is polynomial in the size of the iterates, where
testing every monic candidate took sum q^d steps.  Any order found is
re-verified through a second evaluation path (composing the full twisted
polynomial first).

The square-root twist construction adjoins U with U^2 = T and restricts
the rank-one U-action U + tau to the subring generated by T, giving the
twisted polynomial T + (U + U^q) tau + tau^2.  Because the q-power map
intertwines the U-action with the plain T-action, every torsion point y
of the restriction puts the pair (y^q, y) on the curve x1 = x2^q inside
the product with a plain T + tau factor, and those pairs are torsion for
the product while the curve itself admits no stability witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadParameter, CertificateError, FieldMismatch, ShapeMismatch
from .fields import FieldTower, Poly, pth_root
from .ore import OrePoly
from .subgroups import KernelSubgroup, MinimalJScan, minimal_j_scan
from .tmodule import TModule, carlitz, drinfeld, product


@dataclass(frozen=True)
class TorsionCertificate:
    """point, its monic minimal annihilator, the iterated T-images
    P, phi_T(P), ..., up to the order's degree, and tried: the order's
    position in the degree-then-base-q enumeration of monic candidates;
    every earlier candidate is excluded."""
    point: tuple
    order: Poly
    iterates: tuple
    tried: int


@dataclass(frozen=True)
class TorsionRefuted:
    """No monic annihilator up to the searched degree; tried counts
    every monic candidate of degree at most max_degree."""
    point: tuple
    max_degree: int
    tried: int


def act_on_point(module: TModule, a: Poly, point):
    """Evaluate the action of a on a point by iterating the T-action and
    combining iterates; never composes twisted polynomials."""
    if a.field != module.tower.fq:
        raise FieldMismatch("polynomial over a different F_q")
    point = tuple(point)
    if len(point) != module.dimension:
        raise ShapeMismatch("point has wrong number of coordinates")
    vt = point[0].tower
    zero = tuple(vt.zero() for _ in point)
    if a.is_zero():
        return zero
    acc = zero
    cur = point
    for j, c in enumerate(a.coeffs):
        if j > 0:
            cur = module.phi_t.evaluate(cur)
        if c:
            s = vt.const(c)
            acc = tuple(x + y * s for x, y in zip(acc, cur))
    return acc


def is_torsion(module: TModule, point, a: Poly) -> bool:
    """Does a annihilate the point?  Both evaluation paths are run and
    must agree."""
    direct = act_on_point(module, a, point)
    composed = module.act(a).evaluate(point)
    if direct != tuple(composed):
        raise CertificateError("evaluation paths disagree")
    return all(x.is_zero() for x in direct)


def _numerator_vector(flat, den: Poly) -> dict:
    """The F_q coefficients of den * flat as a sparse vector keyed by
    (coordinate, power of T); den is a multiple of every denominator."""
    vec = {}
    for j, rf in enumerate(flat):
        num = rf.num if rf.den == den else rf.num * (den // rf.den)
        for k, c in enumerate(num.coeffs):
            if c:
                vec[(j, k)] = c
    return vec


def _axpy(fq, y: dict, a: int, x: dict):
    """y += a * x in place, dropping entries that cancel."""
    for k, v in x.items():
        s = fq.add(y.get(k, 0), fq.mul(a, v))
        if s:
            y[k] = s
        else:
            y.pop(k, None)


def _eliminate(fq, basis: list, vec: dict, index: int):
    """Reduce vec (the index-th Krylov vector) against the echelon basis.
    On a dependency return (c_0, ..., c_{index-1}) with
    vec + sum c_i v_i = 0; otherwise add the reduced vector to the basis
    and return None.  Each basis row is (pivot, row with 1 at the pivot
    and 0 at every earlier pivot, its combination of Krylov vectors)."""
    combo = {index: 1}
    for pivot, row, row_combo in basis:
        c = vec.get(pivot)
        if c:
            neg = fq.neg(c)
            _axpy(fq, vec, neg, row)
            _axpy(fq, combo, neg, row_combo)
    if not vec:
        return tuple(combo.get(i, 0) for i in range(index))
    pivot = min(vec)
    inv = fq.inv(vec[pivot])
    basis.append((pivot, {k: fq.mul(inv, v) for k, v in vec.items()},
                  {k: fq.mul(inv, v) for k, v in combo.items()}))
    return None


def torsion_order_search(module: TModule, point, max_degree: int):
    """The point's order if it has degree at most max_degree, else a
    refutation.

    Computes the iterates phi_T^d(P) one at a time and stops at the
    first d where the d-th iterate is an F_q-combination of the earlier
    ones; T^d + sum c_i T^i read off that dependency is the monic
    generator of the annihilating ideal.  The test runs on the F_q
    coefficients of the iterates' flattened coordinates over their least
    common denominator, an injective F_q-linear image, so dependencies
    are exactly those of the iterates.  tried is the order's position in
    the enumeration of monic candidates by degree, then by the base-q
    integer whose digits are the lower coefficients: no earlier
    candidate annihilates, since a lower degree would contradict
    minimality and another monic of the same degree would differ from
    the order by a lower-degree annihilator."""
    if max_degree < 0:
        raise BadParameter("search degree must be nonnegative, "
                           f"got {max_degree}")
    fq = module.tower.fq
    q = fq.q
    point = tuple(point)
    vt = point[0].tower
    iterates = []
    flats = []
    den = Poly.one(fq)
    basis = []
    for d in range(max_degree + 1):
        it = tuple(module.phi_t.evaluate(iterates[-1])) if d else point
        iterates.append(it)
        flat = [rf for x in it for rf in vt.flatten(x)]
        flats.append(flat)
        common = den
        for rf in flat:
            if rf.den.degree > 0:
                common = common // common.gcd(rf.den) * rf.den
        if common != den:
            # rescaling changes the numerators, so eliminate afresh
            den = common
            basis = []
            for i in range(d):
                _eliminate(fq, basis, _numerator_vector(flats[i], den), i)
        low = _eliminate(fq, basis, _numerator_vector(flat, den), d)
        if low is None:
            continue
        order = Poly(fq, low + (1,))
        composed = module.act(order).evaluate(point)
        if not all(x.is_zero() for x in composed):
            raise CertificateError(f"order {order.to_expr()} failed the "
                                   "composed re-check")
        tried = (sum(q ** k for k in range(d))
                 + sum(c * q ** i for i, c in enumerate(low)) + 1)
        return TorsionCertificate(point, order, tuple(iterates), tried)
    return TorsionRefuted(point, max_degree,
                          sum(q ** k for k in range(max_degree + 1)))


@dataclass(frozen=True)
class Degree1Kernel:
    """All q kernel points of a degree-one scalar twisted polynomial,
    living in tower (the input tower or a radical extension of it)."""
    tower: FieldTower
    theta: object
    elements: tuple


def _fresh_name(tower, base):
    used = set(tower.names()) | {"T"}
    if base not in used:
        return base
    i = 2
    while f"{base}{i}" in used:
        i += 1
    return f"{base}{i}"


def degree1_kernel(c0, c1, name="W") -> Degree1Kernel:
    """Kernel of the scalar additive map x -> c0*x + c1*x^q: zero plus
    the (q-1)-th roots of -c0/c1 scaled through the constants, extending
    the tower when no root is already present."""
    tower = c0.tower
    if c1.tower != tower:
        raise FieldMismatch("coefficients live in different towers")
    if c1.is_zero():
        raise ValueError("leading coefficient must be nonzero")
    fq = tower.fq
    q = fq.q
    zero = tower.zero()
    if c0.is_zero():
        return Degree1Kernel(tower, zero, (zero,))
    w = zero - c0 / c1
    theta = None
    if q == 2:
        # x^(q-1) = x here, so the root is w itself
        theta = w
    else:
        for c in range(1, q):
            cand = tower.const(c)
            if cand ** (q - 1) == w:
                theta = cand
                break
    out_tower = tower
    if theta is None:
        modulus = [zero - w] + [tower.zero()] * (q - 2) + [tower.one()]
        out_tower = tower.extend(_fresh_name(tower, name), modulus)
        theta = out_tower.gen()
    lifted_theta = out_tower.embed(theta)
    a0 = out_tower.embed(c0)
    a1 = out_tower.embed(c1)
    elems = [out_tower.zero()]
    for c in range(1, q):
        elems.append(lifted_theta * out_tower.const(c))
    for e in elems:
        img = a0 * e + a1 * e.frob(1)
        if not img.is_zero():
            raise CertificateError("kernel element check failed")
    return Degree1Kernel(out_tower, lifted_theta, tuple(elems))


def sqrt_tower(base: FieldTower, name="U") -> FieldTower:
    """Adjoin a square root of T."""
    return base.extend(name, (base.zero() - base.T(), base.zero(), base.one()))


def root_action_step(ext: FieldTower) -> OrePoly:
    """The rank-one action of the adjoined root: U + tau."""
    return OrePoly.scalar(ext, (ext.gen(), ext.one()))


def root_action(ext: FieldTower, b: Poly) -> OrePoly:
    """The action of b evaluated at the adjoined root, by Horner
    composition in U + tau."""
    return OrePoly.identity(ext, 1).horner(b, root_action_step(ext))


def sqrt_twist(ext: FieldTower) -> TModule:
    """The square of the root action as a T-module:
    T + (U + U^q) tau + tau^2."""
    u = ext.gen()
    return drinfeld(ext, (u + u.frob(1), ext.one()))


def frobenius_intertwines(ext: FieldTower, b: Poly) -> bool:
    """Exact identity tau * rho_b == C_b * tau: the q-power map carries
    the root action of b to the plain Carlitz action of b."""
    tau = OrePoly.scalar(ext, (ext.zero(), ext.one()))
    lhs = tau * root_action(ext, b)
    rhs = carlitz(ext).act(b) * tau
    return lhs == rhs


def root_of_square_identity(ext: FieldTower, w) -> bool:
    """Pointwise form of the intertwining: the twist action of T at w,
    raised to the q-th power, equals the plain Carlitz action of T^2 at
    w^q.  For a square z = w^q this says the twist sends the root of z
    to the root of the Carlitz image of z under T^2."""
    fq = ext.fq
    t_squared = Poly(fq, (0, 0, 1))
    lhs = sqrt_twist(ext).phi_t.evaluate((w,))[0]
    rhs = act_on_point(carlitz(ext), t_squared, (w.frob(1),))[0]
    return lhs.frob(1) == rhs


@dataclass(frozen=True)
class SquareRootFamily:
    """A verified curve point (z, root of z) with its torsion order."""
    point: tuple
    certificate: TorsionCertificate


def square_root_family(ext: FieldTower, z,
                       order_cap: int = 6) -> SquareRootFamily:
    """The product-module point (z, p-th root of z) for a torsion z:
    checks the pair lies on the curve of squares and certifies it is
    torsion.  Raises when the root is missing from the tower (adjoin a
    square root of T and embed first) or when a check fails."""
    r = pth_root(z)
    if r is None:
        raise BadParameter("element has no p-th root here; adjoin a square "
                           "root of T and embed the element there first")
    module = counterexample_module(ext)
    curve = curve_of_squares(module)
    pt = (z, r)
    if not curve.contains(pt):
        raise CertificateError("pair is not on the curve of squares")
    cert = torsion_order_search(module, pt, order_cap)
    if not isinstance(cert, TorsionCertificate):
        raise BadParameter("element is not torsion within the searched degree")
    return SquareRootFamily(pt, cert)


def curve_of_squares(module: TModule) -> KernelSubgroup:
    """The curve x1 = x2^q inside a two-dimensional module."""
    tower = module.tower
    o, z = tower.one(), tower.zero()
    return KernelSubgroup.from_entries(module, [[(o,), (z, z - o)]])


def counterexample_module(ext: FieldTower) -> TModule:
    """Plain Carlitz factor times the square-root twist factor."""
    return product([carlitz(ext), sqrt_twist(ext)])


def square_family_points(ext: FieldTower):
    """Two explicit curve points (y^q, y) from the root-action division
    tower: y = U at level one, then a root of the next division equation
    at level two; returned with the towers they live in."""
    u = ext.gen()
    level1 = (u.frob(1), u)
    step = root_action_step(ext)
    # level two solves rho_U(y) = U, i.e. y^q + U y - U = 0
    modulus = [ext.zero() - u] + [u] + [ext.zero()] * (ext.fq.q - 2) + [ext.one()]
    ext2 = ext.extend(_fresh_name(ext, "R"), modulus)
    r = ext2.gen()
    img = step.evaluate((r,))
    if img[0] != ext2.embed(u):
        raise CertificateError("division point fails its equation")
    level2 = (r.frob(1), r)
    return (level1, level2)


@dataclass(frozen=True)
class TorsionSubvariety:
    """A subgroup carrying verified torsion points while no scanned
    monomial exponent stabilizes it."""
    subgroup: KernelSubgroup
    points: tuple
    orders: tuple
    scan: MinimalJScan


def certify_torsion_subvariety(base: FieldTower, max_j: int = 6,
                               witness_bound=None,
                               order_cap: int = 4) -> TorsionSubvariety:
    """Assemble the counterexample: the curve of squares in the product
    module, explicit verified torsion points on it of strictly growing
    order, and a stability scan that finds no stabilizing exponent."""
    ext = sqrt_tower(base)
    module = counterexample_module(ext)
    curve = curve_of_squares(module)
    points = []
    orders = []
    for pt in square_family_points(ext):
        if not curve.contains(pt):
            raise CertificateError("family point is not on the curve")
        cert = torsion_order_search(module, pt, order_cap)
        if not isinstance(cert, TorsionCertificate):
            raise CertificateError("family point is not torsion within the cap")
        points.append(pt)
        orders.append(cert.order)
    degs = [o.degree for o in orders]
    if sorted(set(degs)) != degs:
        raise CertificateError("family orders do not strictly grow")
    scan = minimal_j_scan(curve, max_j=max_j, witness_bound=witness_bound)
    if scan.found is not None:
        raise CertificateError("curve unexpectedly admits a stability witness")
    return TorsionSubvariety(curve, tuple(points), tuple(orders), scan)


def root_kernel_degrees(ext: FieldTower, levels: int):
    """(tau-degree, constant-term-is-nonzero) for the root action of
    U^n, n = 1..levels: degree n with nonzero constant term certifies
    q^n distinct kernel points, so the torsion supply is unbounded."""
    fq = ext.fq
    out = []
    for n in range(1, levels + 1):
        b = Poly(fq, (0,) * n + (1,))
        op = root_action(ext, b)
        out.append((op.degree, not op.coeff(0)[0, 0].is_zero()))
    return tuple(out)
