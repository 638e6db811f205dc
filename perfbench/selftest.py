"""Self-test of the benchmark (not of polarnet).

    python3 perfbench/selftest.py

Runs from the root of a polarnet checkout and takes about a minute.  It
checks that a smoke run with minimal sizes finishes for every workload,
traced and untraced, with the metric names ``BENCHMARK.json`` declares;
that corrupted rankings and round trips are caught; that a child's peak
memory is not inflated by a large parent; and that the benchmark refuses
to run without polarnet's sources.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class SmokeRuns(unittest.TestCase):
    def test_every_workload_reports_its_metrics(self):
        for w in SPEC["workloads"]:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    res = result(bench("--workload", w["name"], "--seed", "5",
                                       "--trace", str(trace), "--smoke"))
                    self.assertEqual(set(res), {"correct", "attempted",
                                                "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    declared = {m["name"]: m.get("unit") for m in SPEC[group]}
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, declared)


class CheckerChecks(unittest.TestCase):
    def test_corrupted_ranking_is_counted(self):
        res = result(bench("--workload", "query", "--seed", "5", "--trace", "0",
                           "--smoke", "--corrupt", "ranking"))
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"] / res["attempted"], 0)

    def test_corrupted_round_trip_is_counted(self):
        for workload in ("ingest", "cli"):
            with self.subTest(workload=workload):
                res = result(bench("--workload", workload, "--seed", "5",
                                   "--trace", "0", "--smoke",
                                   "--corrupt", "roundtrip"))
                self.assertFalse(res["correct"])
                self.assertGreater(res["failed"] / res["attempted"], 0)


class PeakMemory(unittest.TestCase):
    def test_child_reads_near_interpreter_baseline(self):
        # A child's ru_maxrss counts the peak of the process that spawned
        # it, so CLI children are spawned by the lean spawner.py.  Hold
        # 200 MiB here to show that none of it reaches the child's reading.
        ballast = bytearray(200 * 1024 * 1024)
        ballast[::4096] = b"x" * len(ballast[::4096])
        with tempfile.TemporaryDirectory(dir=ROOT) as outdir:
            job = {"argv0": [sys.executable, "-c", "pass"], "ops": [[]],
                   "outdir": outdir, "first": 0}
            spawned = subprocess.run(
                [sys.executable, str(HERE / "spawner.py")],
                input=json.dumps(job), capture_output=True, text=True,
                check=True, timeout=60)
        _, code, child_mib = json.loads(spawned.stdout)["ops"][0]
        baseline = subprocess.run(
            [sys.executable, "-c",
             "print(next(l.split()[1] for l in open('/proc/self/status') "
             "if l.startswith('VmHWM:')))"],
            capture_output=True, text=True, check=True, timeout=60)
        base_mib = int(baseline.stdout) / 1024.0
        del ballast
        self.assertEqual(code, 0)
        self.assertLess(child_mib, base_mib + 4, (child_mib, base_mib))


class BareDirectory(unittest.TestCase):
    def test_refuses_without_sources(self):
        bare = ROOT / ".perfbench_work" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = bench("--workload", "ingest", "--seed", "1", "--trace", "0",
                         cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
