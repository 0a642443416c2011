"""Tests of the benchmark itself.  Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from run import WORK  # noqa: E402
from susygate import cli, dyson, gate_synth  # noqa: E402


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class BenchmarkTests(unittest.TestCase):
    def setUp(self):
        WORK.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=WORK)
        self.tmp = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def test_inputs_depend_only_on_the_seed(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                a = _files(workloads.Workload(name, 5, self.tmp / name / "a").inputs)
                b = _files(workloads.Workload(name, 5, self.tmp / name / "b").inputs)
                c = _files(workloads.Workload(name, 6, self.tmp / name / "c").inputs)
                self.assertEqual(a, b)
                self.assertNotEqual(a, c)

    def test_argv_uses_no_flag_planned_for_removal(self):
        for name in workloads.WORKLOADS:
            w = workloads.Workload(name, 1, self.tmp / name)
            for k in range(3):
                for op in w.ops(k, self.tmp / "out"):
                    self.assertNotIn("--jobs", op.argv)

    def _traced(self, argv):
        with tracing.Recorder() as recorder, contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(argv)
        self.assertEqual(status, 0)
        return recorder

    def test_fit_evals_equal_child_integrations(self):
        w = workloads.Workload("monitor_fit", 1, self.tmp / "in")
        (op,) = w.ops(0, self.tmp / "out")
        recorder = self._traced(op.argv)
        op.check(op.out_dir)
        report = json.loads((op.out_dir / "fit_report.json").read_text())
        evals = recorder.counts["filter_fit.fit_parameters.evals"]
        self.assertEqual(evals, report["n_evaluations"] + len(report["skipped"]))
        self.assertEqual(evals, recorder.children("filter_fit.fit_parameters", "filter_fit.lindblad_evolve"))

    def test_sme_steps_equal_trajectories_times_steps(self):
        w = workloads.Workload("ensemble", 1, self.tmp / "in")
        argv = ["filter-sim", "--model", str(w.inputs / "model.json"), "--eta", "0.4", "--dt", "1e-3",
                "--T", "0.1", "--ensemble", "5", "--seed", "3", "--out-dir", str(self.tmp / "out")]
        recorder = self._traced(argv)
        # one recorded trajectory plus five ensemble members, 100 steps each
        self.assertEqual(recorder.counts["filter_fit.sme_simulate.steps"], 6 * 100)
        self.assertEqual(recorder.totals()["filter_fit.sme_simulate"]["calls"], 6)

    def test_recorder_rebinds_by_name_imports_and_restores(self):
        original = dyson.propagate_oracle
        targets = tracing.TARGETS + (("dyson", "deleted_function"),)
        with tracing.Recorder(targets) as recorder:
            self.assertIsNot(dyson.propagate_oracle, original)
            self.assertIs(gate_synth.propagate_oracle, dyson.propagate_oracle)
        self.assertIs(dyson.propagate_oracle, original)
        self.assertIs(gate_synth.propagate_oracle, original)
        self.assertEqual(recorder.absent, ["dyson.deleted_function"])

    def test_checks_flag_wrong_outputs(self):
        d = self.tmp / "sweep"
        d.mkdir()
        reports = [{"energy": 1.0, "residual": 0.1}, {"energy": 2.0, "residual": 0.2}]
        (d / "reports.json").write_text(json.dumps(reports))
        with self.assertRaises(workloads.Miss) as caught:
            workloads._check_sweep(d)
        self.assertTrue(caught.exception.wrong)


if __name__ == "__main__":
    unittest.main()
