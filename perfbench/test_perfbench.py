#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 -m unittest discover -s perfbench -p 'test_*.py' -v

Run from the repository root. The smoke runs build the program on
first use (.bench_build/perfbench) and take up to about half a
minute each (trace_stream always streams five passes).
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(workload, trace=0, seconds=1, extra=(), cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)]
        + list(extra),
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


class MetricNames(unittest.TestCase):
    def test_names_units_and_counts(self):
        spec = load_spec()
        e2e, layers = spec["end_to_end"], spec["per_layer"]
        self.assertLessEqual(len(e2e), 16)
        self.assertLessEqual(len(layers), 128)
        names = [m["name"] for m in e2e + layers]
        self.assertEqual(len(names), len(set(names)))
        for m in e2e + layers:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for m in e2e:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in e2e if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in e2e))
        workloads = [w["name"] for w in spec["workloads"]]
        self.assertTrue(2 <= len(workloads) <= 8)
        for w in workloads:
            self.assertRegex(w, NAME)


class Smoke(unittest.TestCase):
    def check_result(self, proc, trace):
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        key = "per_layer" if trace else "end_to_end"
        want = {m["name"]: m["unit"] for m in load_spec()[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        if not trace:
            for name, v in result["metrics"].items():
                self.assertNotEqual(v["value"], 0, name)
        return result

    def test_dse_sweep(self):
        self.check_result(run_bench("dse_sweep"), 0)

    def test_service_mix(self):
        self.check_result(run_bench("service_mix"), 0)

    def test_trace_stream(self):
        self.check_result(run_bench("trace_stream"), 0)

    def test_fleet_sweep(self):
        self.check_result(run_bench("fleet_sweep"), 0)

    def test_traced_service_mix(self):
        self.check_result(run_bench("service_mix", trace=1), 1)


class Deterministic(unittest.TestCase):
    """Accuracy, key and trap counts repeat exactly for one seed."""

    EXACT = {
        0: ("cpi_err_pct", "cpi_err_max_pct", "mpki_err_abs"),
        1: ("profiling.traps", "profiling.false_positive_ratio",
            "core.keys_explored_ratio", "core.keys_unresolved",
            "statmodel.reuse_samples", "service.cells_deduped",
            "service.cache_hit_ratio"),
    }

    def test_repeat_exactly(self):
        for trace, names in self.EXACT.items():
            runs = []
            for _ in range(2):
                proc = run_bench("service_mix", trace=trace)
                self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
                runs.append(json.loads(proc.stdout.splitlines()[-1]))
            for name in names:
                self.assertEqual(runs[0]["metrics"][name]["value"],
                                 runs[1]["metrics"][name]["value"], name)


class Negative(unittest.TestCase):
    def test_wrong_reference_fails_operations(self):
        for trace in (0, 1):
            proc = run_bench("service_mix", trace=trace,
                             extra=["--wrong-reference"])
            self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
            result = json.loads(proc.stdout.splitlines()[-1])
            self.assertFalse(result["correct"])
            self.assertGreater(result["failed"], 0)
            self.assertEqual(result["metrics"], {})

    def test_without_the_program_exits_nonzero(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("dse_sweep", cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
