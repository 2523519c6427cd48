"""Self-tests of the benchmark at tiny corpus sizes.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class BenchmarkOutputTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runs = {
            (name, trace): run.run_workload(name, 0, 0, trace, tiny=True)
            for name in run.WORKLOAD_NAMES
            for trace in (0, 1)
        }

    def test_every_metric_is_printed_with_its_unit(self):
        listed = {0: BENCHMARK["end_to_end"], 1: BENCHMARK["per_layer"]}
        for (name, trace), (result, lines, _) in self.runs.items():
            with self.subTest(workload=name, trace=trace):
                self.assertTrue(result["correct"], lines)
                self.assertEqual(set(result["metrics"]), {m["name"] for m in listed[trace]})
                printed = {line.split()[0]: line.split()[2] for line in lines}
                for metric in listed[trace]:
                    self.assertEqual(result["metrics"][metric["name"]]["unit"], metric["unit"])
                    self.assertEqual(printed.get(metric["name"]), metric["unit"])

    def test_traced_and_untraced_runs_give_the_same_digest(self):
        for name in run.WORKLOAD_NAMES:
            with self.subTest(workload=name):
                self.assertEqual(self.runs[name, 0][2], self.runs[name, 1][2])


class SpeedTest(unittest.TestCase):
    def test_times_are_scaled_by_the_reference_around_them(self):
        import speed

        ref = speed.REFERENCE_S
        starts = [0.0, 0.01, 2.0, 2.01]
        times = [0.002, 0.004, 3.0, 0.002]
        references = [ref, ref, 2 * ref, 2 * ref]
        # The long call reaches back over the first two references too;
        # the median of an even count averages the middle two.
        self.assertEqual(
            speed.scaled(starts, times, references), [0.002, 0.004, 3.0 / 1.5, 0.001]
        )


class TracerTest(unittest.TestCase):
    def test_missing_names_are_listed_as_absent(self):
        run.import_program()
        import coarsetd

        targets = [
            ("graph", "no_such_function", None, True),
            ("graph", "Graph.no_such_method", None, True),
            ("no_such_module", "f", None, True),
            ("graph", "power_graph", None, False),
        ]
        tracer = Tracer(targets=targets)
        original = coarsetd.graph.power_graph
        absent = tracer.install()
        try:
            self.assertIsNot(coarsetd.decomposition.power_graph, original)
            tracer.active = True
            g = coarsetd.Graph(4, [(1, 2), (2, 3), (3, 4)])
            coarsetd.centred_check(g, [1, 2, 3, 4], 2, 1)
            tracer.active = False
        finally:
            tracer.uninstall()
        self.assertIs(coarsetd.decomposition.power_graph, original)
        self.assertEqual(
            absent,
            ["graph.no_such_function", "graph.Graph.no_such_method", "no_such_module.f"],
        )
        tracer.fold()
        metrics = tracer.metrics(passes=1, instances=1)
        self.assertEqual(metrics["graph.no_such_function.calls"], 0)
        self.assertEqual(metrics["no_such_module.f.self_s"], 0)
        self.assertEqual(metrics["graph.power_graph.calls"], 1)
        self.assertGreater(metrics["graph.power_graph.total_s"], 0)


if __name__ == "__main__":
    unittest.main()
