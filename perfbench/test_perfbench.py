"""Tests of the benchmark's own arithmetic and checks.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

import os
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


class TailTest(unittest.TestCase):
    def test_picks_highest_rung_with_ten_beyond(self):
        cases = {5: "max", 19: "max", 20: "p50", 39: "p50", 40: "p75",
                 100: "p90", 999: "p95", 1000: "p99", 10000: "p99.9"}
        for n, label in cases.items():
            values = list(range(1, n + 1))
            got_label, value = stats.tail(values)
            self.assertEqual(got_label, label, n)
            if label != "max":
                beyond = sum(v > value for v in values)
                self.assertGreaterEqual(beyond, 10, n)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.nearest_rank(values, 90), 90)
        self.assertEqual(stats.nearest_rank(values, 99.9), 100)
        self.assertEqual(stats.tail(values)[1], 90)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            (0, None, "cli", 0.0, 10.0),
            (1, 0, "efr", 1.0, 6.0),
            (2, 1, "lp", 2.0, 3.0),
            (3, 1, "lp", 4.0, 5.5),
            (4, 0, "parse", 7.0, 8.0),
            (5, None, "efr", 20.0, 21.0),
        ]
        got = stats.self_times(spans)
        self.assertAlmostEqual(got["cli"], 10.0 - 5.0 - 1.0)
        self.assertAlmostEqual(got["efr"], (5.0 - 2.5) + 1.0)
        self.assertAlmostEqual(got["lp"], 2.5)
        self.assertAlmostEqual(got["parse"], 1.0)
        # self times partition the root spans' wall time
        self.assertAlmostEqual(sum(got.values()), 10.0 + 1.0)


class ExpectedFileTest(unittest.TestCase):
    def test_one_flipped_exit_code_is_caught(self):
        keys = [("g1", "validate"), ("g1", "sce-pure"), ("g2", "efr")]
        results = [(0, '{"ok": true}'), (0, '{"holds": true}'),
                   (0, '{"fixpoint_round": 2}')]
        expected = {"fixtures_cli": {
            "%s|%s" % k: {"exit": code, "digest": workloads.digest(
                workloads.cli_verdict(k[1], code, text))}
            for k, (code, text) in zip(keys, results)}}
        wl = workloads.FixturesCli(expected)
        self.assertEqual(wl.check_pass(keys, results), [None, None, None])
        flipped = list(results)
        flipped[1] = (0, '{"holds": false}')
        verdicts = wl.check_pass(keys, flipped)
        self.assertIsNone(verdicts[0])
        self.assertIn("sce-pure", verdicts[1])
        self.assertIsNone(verdicts[2])

    def test_one_flipped_verdict_changes_its_digest(self):
        class V:
            holds, violated_condition, player = True, None, None
        a = workloads.digest(workloads.verdict_view(V))
        V.holds = False
        self.assertNotEqual(a, workloads.digest(workloads.verdict_view(V)))


class TracerTest(unittest.TestCase):
    def test_wraps_every_binding_and_restores(self):
        import ugt.equilibrium
        import ugt.lp
        import ugt.rationalizability
        original = ugt.lp.solve_feasibility
        tr = Tracer()
        tr.install()
        try:
            for mod in (ugt.lp, ugt.rationalizability, ugt.equilibrium):
                self.assertIsNot(mod.solve_feasibility, original)
            ugt.efr(ugt.load("ex2_initial"))
        finally:
            tr.uninstall()
        for mod in (ugt.lp, ugt.rationalizability, ugt.equilibrium):
            self.assertIs(mod.solve_feasibility, original)
        layers = tr.layer_metrics()
        self.assertEqual(layers["rationalizability.efr_calls"], 1)
        self.assertGreater(layers["lp.solve_calls"], 0)
        self.assertTrue(all(rec[4] is not None for rec in tr.spans))


class SpeedTest(unittest.TestCase):
    def test_factor_is_reference_over_mean_kernel_time(self):
        probe = speed.SpeedProbe()
        probe.samples = [0.004, 0.001, 0.003, 0.002, 0.002]
        self.assertAlmostEqual(probe.factor(0), speed.REFERENCE_S / 0.0024)
        self.assertAlmostEqual(probe.factor(3), speed.REFERENCE_S / 0.002)

    def test_call_loses_probe_time_and_is_scaled(self):
        probe = speed.SpeedProbe()

        def busy():
            # 50 ms of work of which the probe took 40 ms, at half speed
            end = time.perf_counter() + 0.05
            while time.perf_counter() < end:
                pass
            probe.spent += 0.04
            probe.samples += [2 * speed.REFERENCE_S] * run.PROBE_MIN_SAMPLES

        [(_, dt, _, err)] = run.timed_pass(
            [workloads.Call("g", "efr", busy)], probe)
        self.assertIsNone(err)
        self.assertAlmostEqual(dt, 0.005, delta=0.002)


if __name__ == "__main__":
    unittest.main()
