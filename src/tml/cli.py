"""Command line front end.

Every command prints a deterministic report (no timestamps, no
environment-dependent text) and exits with a three-way code:

* 0 - affirmative verdict: the object validates, the subgroup is stable,
  a certificate or value was produced, every corpus check passed.
* 1 - negative or not-established verdict: invalid, provably unstable,
  inconclusive search, refuted torsion, failed corpus check.
* 2 - usage or input errors: malformed manifests or expressions,
  unknown names, bad flag combinations.

Color is off by default; set TML_COLOR=1 to paint verdict words (and
TML_COLOR=0 to force plain text).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from importlib import resources

from .corpus import run_corpus
from .errors import ParseError, TmlError
from .exponential import (RestrictionVerdict, exp_restriction_check,
                          exp_series, verify_functional_equation)
from .manifest import Manifest, _module_name, load_manifest, parse_manifest
from .ore import OrePoly, scalar_text
from .structure import (AbelianCertificate, NonabelianCertificate,
                        abelian_scan, rank_report)
from .subgroups import ProvablyUnstable, Stable, minimal_j_scan
from .tmodule import TModule
from .torsion import TorsionCertificate, act_on_point, torsion_order_search

_GREEN = "\x1b[32m"
_RED = "\x1b[31m"
_YELLOW = "\x1b[33m"
_RESET = "\x1b[0m"


class UsageError(Exception):
    """Bad names or flag combinations; maps to exit code 2."""


def _paint(word: str, color: str) -> str:
    if os.environ.get("TML_COLOR") == "1":
        return color + word + _RESET
    return word


def _good(word: str) -> str:
    return _paint(word, _GREEN)


def _bad(word: str) -> str:
    return _paint(word, _RED)


def _open(word: str) -> str:
    return _paint(word, _YELLOW)


def _matrix_text(exprs) -> str:
    return "[" + "; ".join(", ".join(row) for row in exprs) + "]"


def _ore_lines(op: OrePoly, indent: str = "  "):
    """One line per tau-degree, or a single scalar line for 1x1; the
    zero polynomial of any shape is the line 0."""
    if op.rows == 1 and op.cols == 1:
        return [indent + scalar_text(op)]
    exprs = op.to_exprs()
    if not exprs:
        return [indent + "0"]
    return [f"{indent}tau^{i}: {_matrix_text(grid)}"
            for i, grid in enumerate(exprs)]


def _default_manifest_text() -> str:
    return (resources.files("tml") / "manifests" / "prop3.tml").read_text(
        encoding="utf-8")


def _load_manifest(args) -> Manifest:
    if getattr(args, "manifest", None):
        return load_manifest(args.manifest)
    return parse_manifest(_default_manifest_text())


def _pick(table: dict, name: str, kind: str):
    if name not in table:
        known = ", ".join(sorted(table)) or "none defined"
        raise UsageError(f"unknown {kind} {name!r} (known: {known})")
    return table[name]


def _module(manifest: Manifest, args) -> TModule:
    return _pick(manifest.modules, args.module, "module")


def _poly(manifest: Manifest, text: str):
    """A --poly value: a [poly] section name, else a literal expression,
    read where the manifest's [poly] sections are."""
    if text in manifest.polys:
        return manifest.polys[text]
    return manifest.base.poly(text)


# -- commands ---------------------------------------------------------------

def cmd_validate(args):
    manifest = _load_manifest(args)
    module = _module(manifest, args)
    report = module.validate()
    word = _good("valid") if report.valid else _bad("invalid")
    lines = [f"module {args.module}: {word}",
             f"  dimension {report.dimension}, twist degree {report.degree}"]
    if report.nilpotency_order is not None:
        lines.append("  tangent deviation from scalar is nilpotent of order "
                     f"{report.nilpotency_order}")
    for problem in report.problems:
        lines.append(f"  problem: {problem}")
    payload = {"command": "validate", "module": args.module,
               "valid": report.valid, "dimension": report.dimension,
               "degree": report.degree,
               "nilpotency_order": report.nilpotency_order,
               "problems": list(report.problems)}
    return (0 if report.valid else 1), lines, payload


def cmd_act(args):
    manifest = _load_manifest(args)
    module = _module(manifest, args)
    a = _poly(manifest, args.poly)
    op = module.act(a)
    lines = [f"action of {a.to_expr()} on {args.module}:"]
    lines.extend(_ore_lines(op))
    payload = {"command": "act", "module": args.module,
               "poly": a.to_expr(), "coefficients": op.to_exprs()}
    return 0, lines, payload


def cmd_stability(args):
    manifest = _load_manifest(args)
    subgroup = _pick(manifest.subgroups, args.subgroup, "subgroup")
    module = subgroup.module
    a = _poly(manifest, args.poly)
    verdict = subgroup.stability(a, witness_bound=args.bound)
    head = f"stability of {args.subgroup} under {a.to_expr()}:"
    payload = {"command": "stability", "subgroup": args.subgroup,
               "poly": a.to_expr()}
    if isinstance(verdict, Stable):
        check = verdict.witness * subgroup.presentation == \
            subgroup.presentation * module.act(a)
        lines = [f"{head} {_good('stable')}", "  witness:"]
        lines.extend(_ore_lines(verdict.witness, "    "))
        lines.append("  witness identity re-verified: "
                     + ("yes" if check else "NO"))
        payload.update(verdict="stable",
                       witness=verdict.witness.to_exprs(),
                       reverified=check)
        return (0 if check else 1), lines, payload
    if isinstance(verdict, ProvablyUnstable):
        lines = [f"{head} {_bad('unstable')} ({verdict.reason})"]
        if verdict.column is not None:
            lines.append(f"  escaping kernel coordinate: {verdict.column}")
        payload.update(verdict="unstable", reason=verdict.reason,
                       column=verdict.column)
        if verdict.vector is not None:
            vec = [v.to_expr() for v in verdict.vector]
            lines.append(f"  tangent vector moved out: ({', '.join(vec)})")
            payload["vector"] = vec
        return 1, lines, payload
    lines = [f"{head} {_open('inconclusive')}",
             f"  no witness of twist degree at most {verdict.bound}; "
             "this bounds the search, not the subgroup"]
    payload.update(verdict="inconclusive", searched_bound=verdict.bound)
    return 1, lines, payload


def cmd_minimal_j(args):
    manifest = _load_manifest(args)
    subgroup = _pick(manifest.subgroups, args.subgroup, "subgroup")
    scan = minimal_j_scan(subgroup, max_j=args.max_j,
                          witness_bound=args.bound)
    lines = [f"scan of monomial exponents for {args.subgroup}:"]
    rows = []
    for row in scan.rows:
        v = row.verdict
        if isinstance(v, Stable):
            kind, detail = "stable", f"witness degree {v.witness.degree}"
        elif isinstance(v, ProvablyUnstable):
            kind, detail = "unstable", v.reason
        else:
            kind, detail = "inconclusive", f"no witness of degree <= {v.bound}"
        lines.append(f"  exponent {row.j}: {kind} ({detail})")
        rows.append({"j": row.j, "verdict": kind})
    payload = {"command": "minimal-j", "subgroup": args.subgroup,
               "rows": rows, "found": scan.found,
               "searched_to": scan.searched_to,
               "bound_hint": scan.bound_hint}
    if scan.found is not None:
        lines.append(f"least stabilizing exponent: {_good(str(scan.found))}")
    else:
        lines.append(_open("no stabilizing exponent found")
                     + f" up to {scan.searched_to}")
    lines.append("  whenever any exponent stabilizes, the least one is "
                 f"at most {scan.bound_hint}")
    return (0 if scan.found is not None else 1), lines, payload


def cmd_j_bound(args):
    manifest = _load_manifest(args)
    module = _module(manifest, args)
    bound = module.j_bound()
    n = module.nilpotency_order()
    p = module.tower.fq.p
    r = 1
    while p ** r <= n:
        r += 1
    crude = p ** r
    lines = [f"module {args.module}:",
             f"  nilpotency order of the tangent deviation: {n}",
             f"  power bound: {bound} (least power of {p} at least {n})",
             f"  differential at that power is the scalar T^{bound} "
             "(verified)",
             f"  exponent-count formula floor(log_{p}({n})) + 1 = {r} "
             f"gives the cruder bound {crude}"]
    payload = {"command": "j-bound", "module": args.module,
               "nilpotency_order": n, "bound": bound,
               "formula_bound": crude}
    return 0, lines, payload


def cmd_abelian_scan(args):
    manifest = _load_manifest(args)
    module = _module(manifest, args)
    module.require_nilpotent()
    report = abelian_scan(module, max_index=args.max_i,
                          degree_cap=args.degree_cap)
    lines = [f"abelian scan of {args.module} "
             f"(action powers 1..{args.max_i}):"]
    rows = []
    for row in report.rows:
        inv = "invertible" if row.leading_invertible else "not invertible"
        lines.append(f"  power {row.index}: action degree {row.degree}, "
                     f"leading matrix {inv}")
        rows.append({"index": row.index, "degree": row.degree,
                     "leading_invertible": row.leading_invertible})
    payload = {"command": "abelian-scan", "module": args.module,
               "rows": rows}
    outcome = report.outcome
    if isinstance(outcome, AbelianCertificate):
        lines.append(f"verdict: {_good('abelian')} at power {outcome.index}, "
                     f"{outcome.generators} generators")
        payload.update(verdict="abelian", index=outcome.index,
                       generators=outcome.generators)
        return 0, lines, payload
    if isinstance(outcome, NonabelianCertificate):
        lines.append(f"verdict: {_bad('nonabelian')}; every action power "
                     f"keeps twist degree <= {outcome.degree_bound}")
        lines.append("  closed coefficient pattern (X marks a spot that "
                     "can be nonzero, rows split by /):")
        for i, grid in enumerate(outcome.pattern.grids()):
            lines.append(f"    tau^{i}: {grid}")
        payload.update(verdict="nonabelian",
                       degree_bound=outcome.degree_bound)
        return 1, lines, payload
    lines.append(f"verdict: {_open('inconclusive')} within power "
                 f"{outcome.max_index} and degree cap {outcome.degree_cap}")
    payload.update(verdict="inconclusive")
    return 1, lines, payload


def cmd_rank(args):
    manifest = _load_manifest(args)
    module = _module(manifest, args)
    module.require_nilpotent()
    count = rank_report(module, max_index=args.max_i)
    payload = {"command": "rank", "module": args.module, "generators": count}
    if count is None:
        return 1, [f"module {args.module}: "
                   + _open("no finite generating set certified")
                   + f" within power {args.max_i}"], payload
    return 0, [f"module {args.module}: {count} generators"], payload


def cmd_exp(args):
    manifest = _load_manifest(args)
    module = _module(manifest, args)
    series = exp_series(module, args.order)
    holds = verify_functional_equation(series)
    eq_word = _good("holds") if holds else _bad("fails")
    lines = [f"truncated exponential of {args.module} through order "
             f"{args.order}:",
             f"  functional equation: {eq_word}"]
    coeffs = []
    for i in range(args.order + 1):
        mat = series.coeff(i)
        exprs = mat.to_exprs()
        lines.append(f"  E_{i}: {_matrix_text(exprs)}")
        coeffs.append(exprs)
    payload = {"command": "exp", "module": args.module,
               "order": args.order, "functional_equation": holds,
               "coefficients": coeffs}
    code = 0 if holds else 1
    if args.subgroup is not None:
        subgroup = _pick(manifest.subgroups, args.subgroup, "subgroup")
        if subgroup.module != module:
            owner = _module_name(manifest, subgroup.module)
            raise UsageError(f"subgroup {args.subgroup!r} is declared on "
                             f"module {owner!r}")
        report = exp_restriction_check(series, subgroup)
        if report.verdict is RestrictionVerdict.HOLDS:
            word, sub_code = _good("holds"), 0
        elif report.verdict is RestrictionVerdict.FAILS:
            word, sub_code = _bad("fails"), 1
        else:
            word, sub_code = _open("unchecked"), 1
        lines.append(f"  restriction to {args.subgroup}: {word}"
                     + (f" ({report.detail})" if report.detail else ""))
        payload.update(subgroup=args.subgroup,
                       restriction=report.verdict.value)
        code = max(code, sub_code)
    return code, lines, payload


def cmd_torsion(args):
    manifest = _load_manifest(args)
    if (args.poly is None) == (args.bound is None):
        raise UsageError("pass exactly one of --poly or --bound")
    point = _pick(manifest.points, args.point, "point")
    bound_name = manifest.point_modules.get(args.point)
    if args.module is not None:
        module = _module(manifest, args)
        if bound_name is not None and bound_name != args.module:
            raise UsageError(f"point {args.point!r} is declared on module "
                             f"{bound_name!r}")
        mod_name = args.module
    elif bound_name is not None:
        module = manifest.modules[bound_name]
        mod_name = bound_name
    else:
        raise UsageError("point is not bound to a module; pass --module")
    coords = ", ".join(v.to_expr() for v in point)
    payload = {"command": "torsion", "module": mod_name,
               "point": args.point}
    if args.poly is not None:
        a = _poly(manifest, args.poly)
        image = act_on_point(module, a, point)
        killed = all(v.is_zero() for v in image)
        word = _good("annihilated") if killed else _bad("not annihilated")
        lines = [f"point ({coords}) under {a.to_expr()}: {word}"]
        payload.update(poly=a.to_expr(), annihilated=killed)
        if not killed:
            img = [v.to_expr() for v in image]
            lines.append(f"  image: ({', '.join(img)})")
            payload["image"] = img
        return (0 if killed else 1), lines, payload
    outcome = torsion_order_search(module, point, args.bound)
    if isinstance(outcome, TorsionCertificate):
        lines = [f"point ({coords}): {_good('torsion')} with minimal "
                 f"annihilator {outcome.order.to_expr()}",
                 f"  candidates tried: {outcome.tried}"]
        payload.update(torsion=True, order=outcome.order.to_expr(),
                       tried=outcome.tried)
        return 0, lines, payload
    lines = [f"point ({coords}): {_open('no annihilator found')} up to "
             f"degree {outcome.max_degree}",
             f"  candidates tried: {outcome.tried}"]
    payload.update(torsion=False, max_degree=outcome.max_degree,
                   tried=outcome.tried)
    return 1, lines, payload


def cmd_paper_corpus(args):
    report = run_corpus()
    lines = []
    results = []
    for r in report.results:
        word = _good("PASS") if r.ok else _bad("FAIL")
        lines.append(f"{word} {r.ident}: {r.summary}")
        for detail in r.lines:
            lines.append(f"    {detail}")
        results.append({"ident": r.ident, "summary": r.summary,
                        "ok": r.ok, "lines": list(r.lines)})
    passed = sum(1 for r in report.results if r.ok)
    lines.append(f"{passed} of {len(report.results)} checks passed")
    payload = {"command": "paper-corpus", "ok": report.ok,
               "results": results}
    return (0 if report.ok else 1), lines, payload


# -- argument parsing -------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The tml parser, built once per process and shared by every call,
    so callers must not change it.  Reuse is safe because parse_args
    leaves the parser unchanged and help text reads COLUMNS when it is
    printed."""
    parser = argparse.ArgumentParser(
        prog="tml",
        description="exact calculator for twisted polynomials and "
                    "module actions over F_q(T)")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--manifest", metavar="PATH",
                        help="manifest file (default: packaged example)")
    common.add_argument("--format", choices=("text", "json"),
                        default="text", help="output format")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="COMMAND")

    def add(name, fn, help_text, **flags):
        p = sub.add_parser(name, parents=[common], help=help_text)
        for flag, opts in flags.items():
            p.add_argument(flag, **opts)
        p.set_defaults(fn=fn)
        return p

    add("validate", cmd_validate, "check a module's shape and tangent part",
        **{"--module": dict(required=True)})
    add("act", cmd_act, "expand the action of a polynomial",
        **{"--module": dict(required=True),
           "--poly": dict(required=True,
                          help="a [poly] name or a literal expression")})
    add("stability", cmd_stability,
        "decide whether a subgroup is preserved by an action",
        **{"--subgroup": dict(required=True),
           "--poly": dict(required=True),
           "--bound": dict(type=int, default=None,
                           help="witness twist-degree search bound")})
    add("minimal-j", cmd_minimal_j,
        "scan monomial exponents for the least stabilizing one",
        **{"--subgroup": dict(required=True),
           "--max-j": dict(type=int, default=6),
           "--bound": dict(type=int, default=None)})
    add("j-bound", cmd_j_bound,
        "nilpotency-derived exponent with scalar differential",
        **{"--module": dict(required=True)})
    add("abelian-scan", cmd_abelian_scan,
        "search for an action power with invertible leading matrix",
        **{"--module": dict(required=True),
           "--max-i": dict(type=int, default=8),
           "--degree-cap": dict(type=int, default=None)})
    add("rank", cmd_rank, "certified generator count",
        **{"--module": dict(required=True),
           "--max-i": dict(type=int, default=8)})
    add("exp", cmd_exp, "truncated exponential coefficients",
        **{"--module": dict(required=True),
           "--order": dict(type=int, default=5),
           "--subgroup": dict(default=None,
                              help="also check the restriction pattern")})
    add("torsion", cmd_torsion,
        "verify or search for a point's annihilator",
        **{"--point": dict(required=True),
           "--module": dict(required=False),
           "--poly": dict(default=None,
                          help="verify this polynomial annihilates"),
           "--bound": dict(type=int, default=None,
                           help="search annihilators up to this degree")})
    add("paper-corpus", cmd_paper_corpus,
        "re-verify every built-in worked example")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, lines, payload = args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, TmlError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.format == "json":
            payload["exit"] = code
            print(json.dumps(payload, indent=2))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone and the verdict stands; stdout's descriptor
        # goes to devnull, so the flush at exit meets no broken pipe
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            return code  # a stdout without a descriptor is left as it is
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
