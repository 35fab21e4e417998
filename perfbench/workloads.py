"""The four workloads: seeded inputs, the timed jobs, and their checks.

Each build_* function takes the seed and a work directory and returns a
Plan: a list of Jobs that makes up one round, a function that checks one
job's output, and the warm-up jobs, whose inputs come from WARM_SEED
rather than the seed.  The harness runs the same round again and again; the
outputs of the first round go through the check, one job at a time and
outside the timed region, and every later round must reproduce them
exactly.  Outputs are not kept, so peak memory is that of one job.

A round has a fixed make-up: the seed picks the inputs inside each kind
of job and the order of the jobs, never how many jobs of each kind there
are.  So the median and the 90th percentile always fall on the same kind
of job, and the spread between seeds comes from the inputs alone.

tml is imported inside the functions: run.py puts the checkout's src/ on
the path only when it runs a workload, so that it can report a checkout
without tml instead of failing at import.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import oracles as O


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    info: dict = field(default_factory=dict)


@dataclass
class Plan:
    jobs: list
    check: Callable[[Job, object], list]
    # untimed jobs on the same objects as the timed ones, with inputs that
    # do not depend on the seed, so set-up costs the same for every seed
    warm: list
    failed: Callable[[Job, object], bool] = lambda job, out: False


# The seed of the warm-up inputs, the same in every run.
WARM_SEED = 0


def warm_up(plan):
    """Run the warm-up jobs, untimed, so lazy tables and caches fill."""
    for job in plan.warm:
        job.run()


def _first_of_each_kind(jobs):
    firsts = {}
    for job in jobs:
        firsts.setdefault(job.kind, job)
    return list(firsts.values())


def _shuffled(rng, jobs):
    rng.shuffle(jobs)
    return jobs


def _rf(elem):
    """A base-level tower element as (num, den) coefficient lists."""
    rf = elem.data
    return list(rf.num.coeffs), list(rf.den.coeffs)


def _rf_grid(mat):
    return [[_rf(mat[r, c]) for c in range(mat.cols)] for r in range(mat.rows)]


# -- exp-odd ------------------------------------------------------------------

# The two-dimensional series over F_3 at order 3 and over F_5 at order 2,
# and the rank-one series over F_3 at order 7 and over F_5 at order 5, cost
# about the same (20-40 ms each on a 2-vCPU VM), so each job pairs one
# series over F_3 with one over F_5.
EXP_TENSOR_ORDERS = {3: 3, 5: 2}
EXP_CARLITZ_ORDERS = {3: 7, 5: 5}
EXP_TENSOR_JOBS = 72
EXP_CARLITZ_JOBS = 36


def build_exp_odd(seed, workdir):
    import tml
    from tml.linalg import Mat

    towers = {q: tml.FieldTower(tml.FiniteField(q)) for q in (3, 5)}

    def tensor_module(q, c, u):
        tw = towers[q]
        t, z = tw.T(), tw.zero()
        a0 = Mat(((t, tw.const(c)), (z, t)))
        a1 = Mat(((z, z), (tw.const(u), z)))
        return tml.TModule(tw, (a0, a1))

    modules = {(q, c, u): tensor_module(q, c, u)
               for q in (3, 5) for c in range(1, q) for u in range(1, q)}
    carlitz = {q: tml.carlitz(towers[q]) for q in (3, 5)}
    rng = random.Random(seed)

    def tensor_job(k3, k5):
        def run():
            return (tml.exp_series(modules[k3], EXP_TENSOR_ORDERS[3]),
                    tml.exp_series(modules[k5], EXP_TENSOR_ORDERS[5]))
        return Job("tensor", run, {"inputs": (k3, k5)})

    def carlitz_job():
        def run():
            return tuple(tml.exp_series(carlitz[q], EXP_CARLITZ_ORDERS[q])
                         for q in (3, 5))
        return Job("carlitz", run, {"inputs": ("C3", "C5")})

    jobs = []
    for _ in range(EXP_TENSOR_JOBS):
        k3 = (3, rng.randrange(1, 3), rng.randrange(1, 3))
        k5 = (5, rng.randrange(1, 5), rng.randrange(1, 5))
        jobs.append(tensor_job(k3, k5))
    jobs.extend(carlitz_job() for _ in range(EXP_CARLITZ_JOBS))
    warm = [tensor_job((3, 1, 1), (5, 1, 1)), carlitz_job()]
    return Plan(_shuffled(rng, jobs), exp_odd_checker(), warm)


def check_series(series):
    """Errors in one ExpSeries: E_0 = I, and every order-i equation, or
    for the rank-one Carlitz module E_i = 1/D_i."""
    mod = series.module
    q = mod.tower.fq.q
    m = mod.dimension
    errors = []
    e = [_rf_grid(series.coeff(i)) for i in range(series.order + 1)]
    ident = [[O.ONE if r == c else O.ZERO for c in range(m)] for r in range(m)]
    if not all(O.rf_eq(x, y, q) for r1, r2 in zip(e[0], ident)
               for x, y in zip(r1, r2)):
        errors.append("E_0 is not the identity")
    is_carlitz = (m == 1 and mod.degree == 1
                  and _rf(mod.matrices[1][0, 0]) == ([1], [1]))
    a = [_rf_grid(mat) for mat in mod.matrices]
    for i in range(1, series.order + 1):
        if is_carlitz:
            want = ([1], O.carlitz_denominator(q, i))
            if e[i][0][0] != want:
                errors.append(f"q={q}: E_{i} is not 1/D_{i}")
        elif not O.exp_equation_holds(a, e, i, q):
            errors.append(f"q={q}: E_{i} fails its order-{i} equation")
    return errors


def exp_odd_checker():
    """Check each distinct input once; a repeated input must give an
    equal output."""
    first = {}

    def check(job, out):
        key = job.info["inputs"]
        if key in first:
            if out != first[key]:
                return [f"{job.kind} {key}: repeated input, other output"]
            return []
        first[key] = out
        return [f"{job.kind}: {err}" for series in out
                for err in check_series(series)]
    return check


# -- act-gf2 ------------------------------------------------------------------

# Degree 19 through the rank-two tensor and degree 16 through the
# rank-three tensor cost about the same (50-70 ms); at degree 19 the
# rank-two coefficients reach degree 1024.
ACT_DEGREES = {2: 19, 3: 16}
ACT_JOBS = {2: 64, 3: 44}


def build_act_gf2(seed, workdir):
    import tml

    fq = tml.FiniteField(2)
    tower = tml.FieldTower(fq)
    modules = {n: tml.carlitz_tensor(tower, n) for n in ACT_DEGREES}
    rng = random.Random(seed)

    def job(n, coeffs):
        mod = modules[n]
        a = tml.Poly(fq, coeffs)
        return Job(f"tensor{n}", lambda: mod.act(a),
                   {"n": n, "a": coeffs, "module": mod})

    def random_job(rng, n):
        d = ACT_DEGREES[n]
        return job(n, [rng.randrange(2) for _ in range(d)] + [1])

    jobs = [random_job(rng, n) for n, count in ACT_JOBS.items()
            for _ in range(count)]
    warm_rng = random.Random(WARM_SEED)
    warm = [random_job(warm_rng, n) for n in ACT_JOBS]
    return Plan(_shuffled(rng, jobs), check_act_job, warm)


def check_action(module, a_coeffs, op, p):
    """act(a) commutes with phi_T, and its tau^0 coefficient is
    a(T*I + N) for the superdiagonal N, i.e. entry (i, j) is the
    (j - i)-th Hasse derivative of a."""
    errors = []
    phi = module.phi_t
    if op * phi != phi * op:
        errors.append("act(a) does not commute with phi_T")
    n = module.dimension
    c0 = op.coeff(0)
    for i in range(n):
        for j in range(n):
            want = O.hasse(a_coeffs, j - i, p) if j >= i else []
            if _rf(c0[i, j]) != (want, [1]):
                errors.append(f"tau^0 entry ({i}, {j}) is not D^{j - i} a")
    return errors


def check_act_job(job, out):
    return [f"{job.kind}: {err}" for err in
            check_action(job.info["module"], job.info["a"], out, 2)]


# -- root-tower ---------------------------------------------------------------

# One stability job decides the curve of squares under seeded polynomials
# of degree 2 and 3, and the tensor-square axis under seeded polynomials
# of degree 2, 3, 4 and 5.  The curve stops at degree 3 because its cost
# grows eightfold from degree 2 to 5.  Every stability job holds both
# curve degrees, so the kinds do not overlap in cost (on a 2-vCPU VM:
# torsion about 19 ms, identity about 25 ms, stability 45-65 ms): the
# median falls inside the identity jobs and the p90 inside the stability
# jobs, never on an edge between two kinds, where a small shift in one
# kind's cost would move it.
ROOT_JOBS = {"stability": 40, "torsion": 30, "identity": 40}
ROOT_CURVE_DEGREES = (2, 3)
ROOT_AXIS_DEGREES = (2, 3, 4, 5)
ROOT_TORSION_CAP = 4


def _random_poly(rng, fq, degree):
    import tml
    return tml.Poly(fq, [rng.randrange(fq.q) for _ in range(degree)] + [1])


def random_point(rng, tower, degree=2):
    """A seeded element: a random fraction of base polynomials on every
    monomial of the step generators."""
    import tml
    fq = tower.fq
    base = tower.base()

    def rand_base():
        num = tml.Poly(fq, [rng.randrange(fq.q) for _ in range(degree + 1)])
        den = tml.Poly(fq, [rng.randrange(fq.q) for _ in range(degree)] + [1])
        return base.from_ratfunc(tml.RatFunc(num, den))

    acc = tower.zero()
    for mono in _monomials(tower):
        acc = acc + mono * tower.embed(rand_base())
    return acc


def _monomials(tower):
    if tower.parent is None:
        return [tower.one()]
    out = []
    g = tower.one()
    for _ in range(tower.step_degree()):
        out.extend(g * tower.embed(b) for b in _monomials(tower.parent))
        g = g * tower.gen()
    return out


def root_context():
    """The counterexample's fixed objects, shared by jobs and checks."""
    import tml
    from tml.torsion import counterexample_module, curve_of_squares

    fq = tml.FiniteField(2)
    ext = tml.sqrt_tower(tml.FieldTower(fq))
    module = counterexample_module(ext)
    tensor = tml.carlitz_tensor(ext, 2)
    return {"fq": fq, "ext": ext, "module": module,
            "curve": curve_of_squares(module),
            "axis": tml.KernelSubgroup.from_entries(
                tensor, [[(ext.one(),), (ext.zero(),)]]),
            "points": tml.square_family_points(ext)}


def build_root_tower(seed, workdir):
    import tml

    ctx = root_context()
    fq, ext, module = ctx["fq"], ctx["ext"], ctx["module"]
    curve, axis, points = ctx["curve"], ctx["axis"], ctx["points"]
    ext2 = points[1][0].tower
    rng = random.Random(seed)

    def stability_job(rng):
        curve_polys = [_random_poly(rng, fq, d) for d in ROOT_CURVE_DEGREES]
        axis_polys = [_random_poly(rng, fq, d) for d in ROOT_AXIS_DEGREES]

        def run():
            return (tuple(curve.stability(a) for a in curve_polys),
                    tuple(axis.stability(a) for a in axis_polys))
        return Job("stability", run, {"curve": curve_polys,
                                      "axis": axis_polys})

    def torsion_job(rng):
        def run():
            return tuple(tml.torsion_order_search(module, pt, ROOT_TORSION_CAP)
                         for pt in points)
        return Job("torsion", run)

    def identity_job(rng):
        ws = [random_point(rng, ext), random_point(rng, ext2),
              random_point(rng, ext2)]
        b = _random_poly(rng, fq, 4)

        def run():
            return (tuple(tml.root_of_square_identity(ext, w) for w in ws),
                    tml.frobenius_intertwines(ext, b))
        return Job("identity", run, {"points": ws, "b": b})

    makers = {"stability": stability_job, "torsion": torsion_job,
              "identity": identity_job}
    jobs = [makers[kind](rng) for kind, count in ROOT_JOBS.items()
            for _ in range(count)]
    warm_rng = random.Random(WARM_SEED)
    warm = [makers[kind](warm_rng) for kind in ROOT_JOBS]
    return Plan(_shuffled(rng, jobs),
                lambda job, out: check_root_job(ctx, job, out), warm)


def check_verdict(sub, a, verdict):
    """Re-check a stability verdict of a kernel subgroup under a."""
    import tml
    from tml.subgroups import ProvablyUnstable, Stable

    p = sub.presentation
    module = sub.module
    # phi(a) as a sum of cached powers, not by the Horner loop in act
    zero = tml.OrePoly.zero(module.tower, module.dimension, module.dimension)
    act = zero
    for j, c in enumerate(a.coeffs):
        if c:
            act = act + module.t_power(j).scale(module.tower.const(c))
    if isinstance(verdict, Stable):
        if verdict.witness * p != p * act:
            return ["Stable witness fails Q*P = P*phi(a)"]
        return []
    if isinstance(verdict, ProvablyUnstable):
        if verdict.reason == "escaping-axis":
            c = verdict.column
            image = p * act
            inside = all(m[r, c].is_zero() for m in p.coeffs
                         for r in range(p.rows))
            moved = any(not m[r, c].is_zero() for m in image.coeffs
                        for r in range(image.rows))
            return [] if inside and moved else ["escaping column re-check"]
        v = verdict.vector
        dp = p.coeff(0)
        da = module.differential(a)
        in_tangent = all(x.is_zero() for x in dp.matvec(v))
        moved = not all(x.is_zero() for x in dp.matvec(da.matvec(v)))
        return [] if in_tangent and moved else ["tangent vector re-check"]
    return []


def identity_holds(ext, w):
    """(T w + (U + U^2) w^2 + w^4)^2 == T^2 w^2 + (T + T^2) w^4 + w^8,
    the pointwise intertwining over F_2, by plain field arithmetic."""
    tw = w.tower
    t = tw.embed(ext.T())
    u = tw.embed(ext.gen())
    w2 = w * w
    w4 = w2 * w2
    lhs = t * w + (u + u * u) * w2 + w4
    return lhs * lhs == t * t * w2 + (t + t * t) * w4 + w4 * w4


def intertwines_at(ext, b, w):
    """rho_b(w)^2 == C_b(w^2) with rho_U(x) = U x + x^2, C_T(x) = T x + x^2."""
    tw = w.tower
    t = tw.embed(ext.T())
    u = tw.embed(ext.gen())
    rho = car = tw.zero()
    x, y = w, w * w
    for c in b.coeffs:
        if c:
            rho, car = rho + x, car + y
        x, y = u * x + x * x, t * y + y * y
    return rho * rho == car


def check_root_job(ctx, job, out):
    import tml
    from tml.subgroups import ProvablyUnstable, Stable

    fq = ctx["fq"]
    errors = []
    if job.kind == "stability":
        curve_v, axis_v = out
        for a, v in zip(job.info["curve"], curve_v):
            if isinstance(v, Stable):
                errors.append(f"curve Stable under {a.to_expr()}")
            errors.extend(check_verdict(ctx["curve"], a, v))
        for a, v in zip(job.info["axis"], axis_v):
            deriv = O.hasse(list(a.coeffs), 1, 2)
            # the axis escapes exactly when a' is nonzero; under
            # F_2[T^2] it is stable, so no refutation may appear
            if deriv and not isinstance(v, ProvablyUnstable):
                errors.append(f"axis not refuted under {a.to_expr()}")
            if not deriv and isinstance(v, ProvablyUnstable):
                errors.append(f"axis refuted under {a.to_expr()}")
            errors.extend(check_verdict(ctx["axis"], a, v))
    elif job.kind == "torsion":
        for k, (pt, cert) in enumerate(zip(ctx["points"], out)):
            want = O.monomial(k + 1)
            if not isinstance(cert, tml.TorsionCertificate):
                errors.append(f"family point {k + 1} not certified")
                continue
            if list(cert.order.coeffs) != want:
                errors.append(f"family point {k + 1} has order "
                              f"{cert.order.to_expr()}, not T^{k + 1}")
            got = O.bits_from_list(list(cert.order.coeffs))
            for d in O.monic_divisors_gf2(got):
                a = tml.Poly(fq, [(d >> i) & 1
                                  for i in range(d.bit_length())])
                img = tml.act_on_point(ctx["module"], a, pt)
                if all(x.is_zero() for x in img):
                    errors.append(f"{a.to_expr()} already kills "
                                  f"family point {k + 1}")
    else:
        flags, inter = out
        if not all(flags) or not inter:
            errors.append("intertwining identity reported false")
        for w in job.info["points"]:
            if not identity_holds(ctx["ext"], w):
                errors.append("pointwise identity fails on re-check")
        if not intertwines_at(ctx["ext"], job.info["b"],
                              job.info["points"][0]):
            errors.append("intertwining fails at the sample point")
    return errors


# -- cli-manifest -------------------------------------------------------------

CLI_PRIMES = (2, 3, 5)
CLI_MANIFESTS_PER_PRIME = 2
# Exhaustive refutations (364 candidates over F_3, 781 over F_5) are a
# sixth of the jobs and carry most of the time; the F_5 ones alone are
# 15%, so the p90 falls inside them and not on an edge between kinds.
CLI_SEARCH_BOUND = {2: 4, 3: 5, 5: 4}
CLI_POINTS = {2: 2, 3: 2, 5: 5}
CLI_EXP_ORDER = {2: 3, 3: 3, 5: 2}
# Malformed input: the right outcome of each is exit 2.
MALFORMED = (
    ("exp", "--module", "Cten2", "--order", "-1"),
    ("stability", "--subgroup", "Axis", "--poly", "T^2", "--bound", "-1"),
    ("validate", "--manifest", "{bad_json}", "--module", "C1"),
    ("act", "--module", "Nope", "--poly", "T"),
    ("act", "--module", "Cten2", "--poly", "T^"),
    ("torsion", "--point", "origin"),
    ("validate", "--manifest", "{bad_ini}", "--module", "C1"),
    ("stability", "--poly", "T"),
)
BAD_JSON = '{"modules": 5}\n'
BAD_INI = "[field]\np = 2\n\n[module C1]\nm = two\n"


def _poly_expr(coeffs):
    terms = []
    for k in reversed(range(len(coeffs))):
        c = coeffs[k]
        if c == 0:
            continue
        var = "" if k == 0 else ("T" if k == 1 else f"T^{k}")
        if not var:
            terms.append(str(c))
        else:
            terms.append(var if c == 1 else f"{c}*{var}")
    return " + ".join(terms) if terms else "0"


def cli_manifest_data(rng, p):
    """One seeded manifest as a JSON-shaped dict, plus what the checks
    need to know about it."""
    c = rng.randrange(1, p)
    u = rng.randrange(1, p)
    if p == 2:
        # F_2(T)-rational Carlitz torsion: T, T + 1 and 1 have orders
        # T, T + 1 and T^2 + T
        xs = rng.sample(([0, 1], [1, 1], [1]), CLI_POINTS[p])
    else:
        # c*T + d with c, d nonzero, so every search costs about the same
        xs = [[rng.randrange(1, p), rng.randrange(1, p)]
              for _ in range(CLI_POINTS[p])]
    points = {f"X{i + 1}": x for i, x in enumerate(xs)}
    a = [rng.randrange(p) for _ in range(3)] + [1]
    data = {
        "field": {"p": p},
        "modules": {
            "C1": {"m": 1, "a0": "T", "a1": "1"},
            "Cten2": {"m": 2, "a0": f"T, {c}, 0, T",
                      "a1": f"0, 0, {u}, 0"},
        },
        "subgroups": {"Axis": {"module": "Cten2", "rows": ["[1], [0]"]}},
        "points": {name: {"module": "C1", "coords": _poly_expr(x)}
                   for name, x in points.items()},
        "polys": {"A": _poly_expr(a)},
    }
    return data, {"p": p, "c": c, "u": u, "points": points, "a": a}


def manifest_ini(data):
    out = [f"[field]\np = {data['field']['p']}"]
    for name, mod in data["modules"].items():
        out.append(f"[module {name}]\n"
                   + "\n".join(f"{k} = {v}" for k, v in mod.items()))
    for name, sub in data["subgroups"].items():
        rows = "\n".join(f"row = {r}" for r in sub["rows"])
        out.append(f"[subgroup {name}]\nmodule = {sub['module']}\n{rows}")
    for name, pt in data["points"].items():
        out.append(f"[point {name}]\nmodule = {pt['module']}\n"
                   f"coords = {pt['coords']}")
    for name, expr in data["polys"].items():
        out.append(f"[poly {name}]\nexpr = {expr}")
    return "\n\n".join(out) + "\n"


def cli_specs(facts):
    """(command argv tail, searched) for one manifest."""
    p = facts["p"]
    specs = [
        ("validate", "--module", "Cten2"),
        ("act", "--module", "Cten2", "--poly", "A"),
        ("stability", "--subgroup", "Axis", "--poly", "A"),
        ("minimal-j", "--subgroup", "Axis"),
        ("j-bound", "--module", "Cten2"),
        ("abelian-scan", "--module", "Cten2"),
        ("rank", "--module", "Cten2"),
        ("exp", "--module", "C1", "--order", str(CLI_EXP_ORDER[p])),
        ("torsion", "--point", "X1", "--poly", "A"),
    ]
    specs.extend(("torsion", "--point", name, "--bound",
                  str(CLI_SEARCH_BOUND[p])) for name in facts["points"])
    return specs


def run_cli(argv):
    """tml.cli.main in this process: (exit code, stdout, stderr), or the
    exception that escaped it."""
    from tml.cli import main
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback escaping main is a failed job
        return ("raised", type(exc).__name__, str(exc))
    return (code, out.getvalue(), err.getvalue())


def manifest_jobs(rng, p, k, stem):
    """Write one seeded manifest over F_p as stem.tml and stem.json; the
    jobs that run tml.cli.main on it.  k (0 or 1) picks which commands
    also print JSON."""
    data, facts = cli_manifest_data(rng, p)
    with open(stem + ".tml", "w", encoding="utf-8") as fh:
        fh.write(manifest_ini(data))
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
    facts = dict(facts, stem=stem)
    jobs = []
    for i, spec in enumerate(cli_specs(facts)):
        kind = spec[0]
        if kind == "torsion":
            kind += "-search" if "--bound" in spec else "-verify"
        # every command prints text from both manifest forms; --format
        # json runs on alternate commands of each of the two manifests
        # per prime, and on every search
        forms = [("tml", "text"), ("json", "text")]
        if kind == "torsion-search" or i % 2 == k:
            forms.append(("tml", "json"))
        for form, fmt in forms:
            argv = (spec[0], "--manifest", f"{stem}.{form}",
                    "--format", fmt) + spec[1:]
            jobs.append(Job(kind, _cli_call(argv),
                            {"argv": argv, "facts": facts, "spec": spec,
                             "form": form, "fmt": fmt}))
    return jobs


def build_cli_manifest(seed, workdir):
    rng = random.Random(seed)
    jobs = [job for p in CLI_PRIMES for k in range(CLI_MANIFESTS_PER_PRIME)
            for job in manifest_jobs(rng, p, k,
                                     os.path.join(workdir, f"m{p}_{k}"))]
    # warm-up: one job of every kind over every prime, on manifests made
    # from WARM_SEED
    warm_rng = random.Random(WARM_SEED)
    warm = [job for p in CLI_PRIMES for job in _first_of_each_kind(
        manifest_jobs(warm_rng, p, 0, os.path.join(workdir, f"warm{p}")))]
    paths = {"bad_json": os.path.join(workdir, "bad.json"),
             "bad_ini": os.path.join(workdir, "bad.tml")}
    with open(paths["bad_json"], "w", encoding="utf-8") as fh:
        fh.write(BAD_JSON)
    with open(paths["bad_ini"], "w", encoding="utf-8") as fh:
        fh.write(BAD_INI)
    malformed = [Job("malformed", _cli_call(argv), {"argv": argv})
                 for argv in (tuple(a.format(**paths) for a in spec)
                              for spec in MALFORMED)]
    jobs.extend(malformed)
    warm.append(malformed[0])
    return Plan(_shuffled(rng, jobs), cli_checker(), warm, cli_failed)


def _cli_call(argv):
    return lambda: run_cli(argv)


def cli_failed(job, out):
    """A malformed-input job fails unless it exits 2; any job fails when
    a traceback escapes cli.main."""
    if out[0] == "raised":
        return True
    return job.kind == "malformed" and out[0] != 2


def _carlitz_image(a, x, p):
    """C_a(x) over F_p[T] with C_T(y) = T*y + y^p."""
    acc = []
    cur = x
    for c in a:
        acc = O.p_add(acc, O.p_scale(cur, c, p), p)
        cur = O.p_add(O.p_mul([0, 1], cur, p), O.stretch(cur, p), p)
    return acc


def _min_order_gf2(x_bits, bound):
    """Least monic a of degree <= bound with C_a(x) = 0 over F_2, as bits,
    with the candidates tried in tml's order; None if there is none."""
    tried = 0
    for d in range(bound + 1):
        for low in range(1 << d):
            tried += 1
            a = (1 << d) | low
            if O.carlitz_gf2(a, x_bits) == 0:
                return a, tried
    return None, tried


def _matrix_entries(line):
    body = line.split(": ", 1)[1].strip()
    return [row.split(", ") for row in body[1:-1].split("; ")]


def check_cli_output(job, out):
    """Errors in one text-format CLI result, against facts the benchmark
    derives itself."""
    code, text, _err = out
    facts = job.info["facts"]
    p = facts["p"]
    spec = job.info["spec"]
    lines = text.splitlines()
    cmd = spec[0]
    errors = []

    def expect(cond, what):
        if not cond:
            errors.append(f"{' '.join(spec)} over F_{p}: {what}")

    if cmd == "validate":
        expect(code == 0 and lines[0].endswith(": valid"), "not valid")
    elif cmd == "act":
        expect(code == 0, f"exit {code}")
        grid = _matrix_entries(lines[1])
        a = facts["a"]
        want = [[a, O.p_scale(O.hasse(a, 1, p), facts["c"], p)], [[], a]]
        got = [[O.parse_poly_text(e, p) for e in row] for row in grid]
        expect(got == want, "tau^0 is not a(T*I + N)")
    elif cmd == "stability":
        escapes = bool(O.hasse(facts["a"], 1, p))
        if escapes:
            expect(code == 1 and "unstable (tangent-escape)" in lines[0],
                   "axis not refuted though a' != 0")
        if code == 0:
            expect("witness identity re-verified: yes" in text,
                   "stable without re-verified witness")
    elif cmd == "j-bound":
        expect(code == 0 and f"  power bound: {p} " in text,
               f"power bound is not {p}")
    elif cmd == "exp":
        expect(code == 0 and "functional equation: holds" in text,
               "functional equation")
        order = int(spec[-1])
        for i in range(1, order + 1):
            line = next((ln for ln in lines if ln.startswith(f"  E_{i}: ")),
                        None)
            want = ([1], O.carlitz_denominator(p, i))
            got = (O.parse_ratfunc_text(_matrix_entries(line)[0][0], p)
                   if line else None)
            expect(got == want, f"E_{i} is not 1/D_{i}")
    elif cmd == "torsion" and "--poly" in spec:
        killed = not _carlitz_image(facts["a"], facts["points"][spec[2]], p)
        expect(code == (0 if killed else 1), "annihilation verdict")
    elif cmd == "torsion":
        bound = int(spec[-1])
        if p == 2:
            x = facts["points"][spec[2]]
            order, tried = _min_order_gf2(O.bits_from_list(x), bound)
            want = O.trim([(order >> i) & 1
                           for i in range(order.bit_length())])
            got = lines[0].rsplit("minimal annihilator ", 1)[-1]
            expect(code == 0 and O.parse_poly_text(got, p) == want,
                   "certificate is not the least annihilator")
            expect(f"candidates tried: {tried}" in text, "candidate count")
        else:
            tried = sum(p ** d for d in range(bound + 1))
            expect(code == 1 and "no annihilator found" in lines[0]
                   and f"candidates tried: {tried}" in text,
                   "nonzero Carlitz point over F_q, q >= 3, not refuted")
    else:
        expect(code in (0, 1), f"exit {code}")
    return errors


def cli_checker():
    """Check one CLI job; the text printed from the INI form of a manifest
    is held until the JSON form's text arrives, and must equal it."""
    texts = {}

    def check(job, out):
        if job.kind == "malformed" or cli_failed(job, out):
            return []
        info = job.info
        argv = " ".join(info["argv"])
        code = out[0]
        if info["fmt"] == "json":
            try:
                payload = json.loads(out[1])
            except ValueError:
                return [f"{argv}: output is not JSON"]
            return [] if payload.get("exit") == code else [
                f"{argv}: JSON exit field"]
        errors = []
        key = (info["facts"]["stem"], info["spec"])
        other = texts.pop(key, None)
        if other is None:
            texts[key] = out[:2]
        elif other != out[:2]:
            errors.append(f"INI and JSON forms print different text: {key}")
        if info["form"] == "tml":
            errors.extend(check_cli_output(job, out))
            if job.kind == "torsion-search" and code == 0:
                order = out[1].splitlines()[0].rsplit(
                    "minimal annihilator ", 1)[-1]
                again = run_cli(("torsion", "--manifest", info["argv"][2],
                                 "--point", info["spec"][2],
                                 "--poly", order))
                if again[0] != 0:
                    errors.append(f"certificate {order} fails torsion --poly")
        return errors
    return check


WORKLOADS = {
    "exp-odd": build_exp_odd,
    "act-gf2": build_act_gf2,
    "root-tower": build_root_tower,
    "cli-manifest": build_cli_manifest,
}
