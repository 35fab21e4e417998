"""Each benchmark check accepts tml's answer and rejects a perturbed one.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tml  # noqa: E402
from tml.linalg import Mat  # noqa: E402
from tml.subgroups import NoWitnessUpTo, ProvablyUnstable, Stable  # noqa: E402

import oracles as O  # noqa: E402
import workloads as W  # noqa: E402


def tower(q):
    return tml.FieldTower(tml.FiniteField(q))


def with_coeff(series, i, mat):
    coeffs = list(series.coeffs)
    coeffs[i] = mat
    return dataclasses.replace(series, coeffs=tuple(coeffs))


class OracleTest(unittest.TestCase):
    def test_carlitz_denominator_recursion(self):
        # D_i = (T^(q^i) - T) * D_{i-1}^q, a second route to the product
        for q in (2, 3, 5):
            for i in range(1, 5):
                want = O.p_mul(O.p_sub(O.monomial(q ** i), [0, 1], q),
                               O.stretch(O.carlitz_denominator(q, i - 1), q),
                               q)
                self.assertEqual(O.carlitz_denominator(q, i), want)

    def test_parse_printed_text(self):
        self.assertEqual(O.parse_poly_text("2*T^3+T+1", 3), [1, 1, 0, 2])
        self.assertEqual(O.parse_ratfunc_text("(1)/(T^2+T)", 2),
                         ([1], [0, 1, 1]))


class ExpOddTest(unittest.TestCase):
    def test_carlitz_series_is_one_over_d(self):
        for q, order in ((2, 5), (3, 4), (5, 3)):
            series = tml.exp_series(tml.carlitz(tower(q)), order)
            self.assertEqual(W.check_series(series), [])
            tw = series.module.tower
            bad = with_coeff(series, 2, series.coeff(2).scale(tw.T()))
            self.assertTrue(W.check_series(bad))

    def test_repeated_input_must_repeat_output(self):
        check = W.exp_odd_checker()
        c3 = tml.carlitz(tower(3))
        job = W.Job("carlitz", None, {"inputs": "C3"})
        short = tml.exp_series(c3, 2)
        self.assertEqual(check(job, (short,)), [])
        self.assertEqual(check(job, (short,)), [])
        self.assertTrue(check(job, (tml.exp_series(c3, 3),)))

    def test_tensor_series_equation(self):
        for q, order in ((3, 3), (5, 2)):
            tw = tower(q)
            t, z = tw.T(), tw.zero()
            mod = tml.TModule(tw, (Mat(((t, tw.const(2)), (z, t))),
                                   Mat(((z, z), (tw.const(1), z)))))
            series = tml.exp_series(mod, order)
            self.assertEqual(W.check_series(series), [])
            e = series.coeff(order)
            moved = Mat(((e[0, 0], e[0, 1] + tw.one()), (e[1, 0], e[1, 1])))
            self.assertTrue(W.check_series(with_coeff(series, order, moved)))
            self.assertTrue(W.check_series(
                with_coeff(series, 0, Mat.scalar(tw, 2, t))))


class ActTest(unittest.TestCase):
    def setUp(self):
        self.fq = tml.FiniteField(2)
        self.mod = tml.carlitz_tensor(tml.FieldTower(self.fq), 3)
        self.a = [1, 0, 1, 1, 0, 1]
        self.op = self.mod.act(tml.Poly(self.fq, self.a))

    def test_right_answer_passes(self):
        self.assertEqual(W.check_action(self.mod, self.a, self.op, 2), [])

    def test_other_polynomial_fails_the_hasse_check(self):
        other = self.mod.act(tml.Poly(self.fq, [0] + self.a[1:]))
        errs = W.check_action(self.mod, self.a, other, 2)
        self.assertTrue(any("Hasse" in e or "D^" in e for e in errs))

    def test_changed_twist_term_fails_commutation(self):
        tw = self.mod.tower
        c = list(self.op.coeffs)
        c[1] = c[1] + Mat.identity(tw, 3)
        bad = tml.OrePoly(tw, 3, 3, c)
        errs = W.check_action(self.mod, self.a, bad, 2)
        self.assertIn("act(a) does not commute with phi_T", errs)


class RootTowerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.ctx = W.root_context()
        cls.fq = cls.ctx["fq"]

    def poly(self, coeffs):
        return tml.Poly(self.fq, coeffs)

    def stability_job(self, curve, axis):
        return W.Job("stability", None, {"curve": curve, "axis": axis})

    def test_right_verdicts_pass(self):
        curve = [self.poly([1, 0, 1])]
        axis = [self.poly([1, 0, 1]), self.poly([0, 1, 1])]
        out = ([self.ctx["curve"].stability(a) for a in curve],
               [self.ctx["axis"].stability(a) for a in axis])
        self.assertIsInstance(out[1][0], Stable)
        self.assertIsInstance(out[1][1], ProvablyUnstable)
        job = self.stability_job(curve, axis)
        self.assertEqual(W.check_root_job(self.ctx, job, out), [])

    def test_curve_is_never_stable(self):
        a = self.poly([1, 0, 1])
        witness = tml.OrePoly.identity(self.ctx["ext"], 1)
        job = self.stability_job([a], [])
        errs = W.check_root_job(self.ctx, job, ([Stable(witness)], []))
        self.assertTrue(any("curve Stable" in e for e in errs))

    def test_wrong_witness_fails(self):
        a = self.poly([1, 0, 1])
        good = self.ctx["axis"].stability(a)
        bad = Stable(good.witness + good.witness.scale(self.ctx["ext"].T()))
        self.assertTrue(W.check_verdict(self.ctx["axis"], a, bad))

    def test_refutations_are_rechecked(self):
        a = self.poly([0, 1, 1])
        ext = self.ctx["ext"]
        wrong_vec = ProvablyUnstable("tangent-escape",
                                     vector=(ext.one(), ext.zero()))
        self.assertTrue(W.check_verdict(self.ctx["axis"], a, wrong_vec))
        wrong_col = ProvablyUnstable("escaping-axis", column=0)
        self.assertTrue(W.check_verdict(self.ctx["axis"], a, wrong_col))
        # under F_2[T^2] the axis is stable, so no refutation may pass
        b = self.poly([1, 0, 1])
        job = self.stability_job([], [b])
        errs = W.check_root_job(self.ctx, job, ([], [NoWitnessUpTo(0)]))
        self.assertEqual(errs, [])
        errs = W.check_root_job(self.ctx, job, ([], [wrong_vec]))
        self.assertTrue(any("axis refuted" in e for e in errs))

    def test_family_orders(self):
        certs = [tml.torsion_order_search(self.ctx["module"], pt, 4)
                 for pt in self.ctx["points"]]
        job = W.Job("torsion", None)
        self.assertEqual(W.check_root_job(self.ctx, job, certs), [])
        wrong = [dataclasses.replace(certs[0], order=self.poly([1, 1])),
                 dataclasses.replace(certs[1], order=self.poly([0, 1]))]
        errs = W.check_root_job(self.ctx, job, wrong)
        self.assertEqual(len([e for e in errs if "not T^" in e]), 2)
        # a multiple of the true order also annihilates; the divisor
        # check finds the smaller annihilator
        bigger = [dataclasses.replace(certs[0], order=self.poly([0, 0, 1]))]
        errs = W.check_root_job(self.ctx, job, bigger + certs[1:])
        self.assertTrue(any("already kills" in e for e in errs))

    def test_identity_outputs(self):
        ext = self.ctx["ext"]
        w = ext.T() + ext.gen()
        job = W.Job("identity", None, {"points": [w],
                                       "b": self.poly([1, 1, 0, 1])})
        self.assertEqual(W.check_root_job(self.ctx, job, ([True], True)), [])
        self.assertTrue(W.check_root_job(self.ctx, job, ([False], True)))
        self.assertTrue(W.identity_holds(ext, w))


class HarnessTest(unittest.TestCase):
    def test_later_rounds_must_match_the_first(self):
        import run
        plan = W.Plan([W.Job("k", None)], lambda job, out: [], [])
        seen = run.Outcomes(plan)
        seen.first(0, plan.jobs[0], (1, "text"))
        seen.again(0, plan.jobs[0], (1, "text"))
        self.assertEqual(seen.errors, [])
        seen.again(0, plan.jobs[0], (1, "other text"))
        self.assertTrue(seen.errors)

    def test_warm_up_does_not_depend_on_the_seed(self):
        with tempfile.TemporaryDirectory() as d1, \
                tempfile.TemporaryDirectory() as d2:
            w1 = W.build_cli_manifest(1, d1).warm
            w2 = W.build_cli_manifest(2, d2).warm
            self.assertEqual(len({job.kind for job in w1}), 11)
            self.assertEqual([tuple(a.replace(d1, "") for a in j.info["argv"])
                              for j in w1],
                             [tuple(a.replace(d2, "") for a in j.info["argv"])
                              for j in w2])
            for name in os.listdir(d1):
                if name.startswith("warm"):
                    with open(os.path.join(d1, name)) as f1, \
                            open(os.path.join(d2, name)) as f2:
                        self.assertEqual(f1.read(), f2.read())
        r1 = W.build_root_tower(1, None).warm
        r2 = W.build_root_tower(2, None).warm
        self.assertEqual([(j.kind, str(j.info)) for j in r1],
                         [(j.kind, str(j.info)) for j in r2])


class CliTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(OUT, exist_ok=True)
        cls.dir = tempfile.mkdtemp(dir=OUT)
        cls.plan = W.build_cli_manifest(3, cls.dir)
        cls.outs = [job.run() for job in cls.plan.jobs]

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.dir)

    def find(self, pred):
        return next(i for i, job in enumerate(self.plan.jobs) if pred(job))

    def check_all(self, outs):
        check = W.cli_checker()
        return [err for job, out in zip(self.plan.jobs, outs)
                for err in check(job, out)]

    def perturbed(self, i, out):
        outs = list(self.outs)
        outs[i] = out
        return self.check_all(outs)

    def test_right_outputs_pass(self):
        self.assertEqual(self.check_all(self.outs), [])
        failed = [job.info["argv"][:2] for job, out in
                  zip(self.plan.jobs, self.outs) if self.plan.failed(job, out)]
        self.assertEqual(len(failed), 3)

    def test_odd_carlitz_point_must_be_refuted(self):
        i = self.find(lambda j: j.kind == "torsion-search"
                      and j.info["facts"]["p"] == 3
                      and j.info["form"] == "tml" and j.info["fmt"] == "text")
        code, text, err = self.outs[i]
        fake = text.replace("no annihilator found up to degree 5",
                            "torsion with minimal annihilator T")
        errs = self.perturbed(i, (0, fake, err))
        self.assertTrue(any("not refuted" in e for e in errs))

    def test_certificate_must_pass_torsion_poly(self):
        i = self.find(lambda j: j.kind == "torsion-search"
                      and j.info["facts"]["p"] == 2
                      and j.info["form"] == "tml" and j.info["fmt"] == "text")
        code, text, err = self.outs[i]
        first = text.splitlines()[0]
        head = first.rsplit("minimal annihilator ", 1)[0]
        fake = text.replace(first, head + "minimal annihilator T^3")
        errs = self.perturbed(i, (0, fake, err))
        self.assertTrue(any("least annihilator" in e for e in errs))
        self.assertTrue(any("fails torsion --poly" in e for e in errs))

    def test_ini_and_json_must_print_the_same(self):
        i = self.find(lambda j: j.kind == "validate"
                      and j.info["form"] == "json" and j.info["fmt"] == "text")
        code, text, err = self.outs[i]
        errs = self.perturbed(i, (code, text + "\n", err))
        self.assertTrue(any("different text" in e for e in errs))

    def test_exp_coefficients(self):
        i = self.find(lambda j: j.kind == "exp" and j.info["form"] == "tml"
                      and j.info["fmt"] == "text")
        code, text, err = self.outs[i]
        fake = text.replace("E_1: [(1)/(", "E_1: [(T)/(")
        self.assertNotEqual(fake, text)
        errs = self.perturbed(i, (code, fake, err))
        self.assertTrue(any("E_1 is not 1/D_1" in e for e in errs))

    def test_malformed_input_must_exit_2(self):
        i = self.find(lambda j: j.kind == "malformed")
        job = self.plan.jobs[i]
        self.assertFalse(self.plan.failed(job, (2, "", "")))
        self.assertTrue(self.plan.failed(job, (1, "", "")))
        self.assertTrue(self.plan.failed(job, ("raised", "ValueError", "")))


if __name__ == "__main__":
    unittest.main()
