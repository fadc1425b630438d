"""Tests of the benchmark itself: oracle, answer checks, inputs, runs.

Run from the repository root::

    python3 perfbench/selftest.py

The file is deliberately not named ``test_*.py``: the program's own
test suite stays as it is, and these tests take about a minute
because they run every workload end to end at the tiny scale.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from oracle import Oracle  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT, env=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


class OracleTest(unittest.TestCase):
    # Three objects; weights are frozen over all three, so with N = 3:
    # "a" (df 3) weighs 0, "b" (df 2) ln 1.5, "c" and "d" (df 1) ln 3.
    boxes = [(0.0, 0.0, 2.0, 2.0), (1.0, 0.0, 3.0, 2.0), (10.0, 10.0, 11.0, 11.0)]
    tokens = [("a", "b", "c"), ("a", "b"), ("a", "d")]

    def test_hand_computed_similarities(self):
        oracle = Oracle(self.boxes, self.tokens)
        self.assertAlmostEqual(oracle.weight("a"), 0.0)
        self.assertAlmostEqual(oracle.weight("b"), math.log(1.5))
        self.assertAlmostEqual(oracle.weight("zzz"), math.log(3))  # unknown: ln N
        sim_r, sim_t = oracle.similarities((0.0, 0.0, 2.0, 2.0), ("b", "c"))
        # Box 1 overlaps the query in a 1x2 strip: 2 / (4 + 4 - 2).
        np.testing.assert_allclose(sim_r, [1.0, 2.0 / 6.0, 0.0])
        b, c = math.log(1.5), math.log(3)
        # Object 0 holds b and c (and the weightless a): simT = 1.
        # Object 1 shares b: b / (b + c + b - b).
        np.testing.assert_allclose(sim_t, [1.0, b / (b + c), 0.0])

    def test_answers_and_borderline(self):
        oracle = Oracle(self.boxes, self.tokens)
        certain, borderline = oracle.answers((0.0, 0.0, 2.0, 2.0), ("b", "c"), 0.3, 0.2)
        self.assertEqual(certain, {0, 1})
        self.assertEqual(borderline, set())
        # A threshold exactly at object 1's simR makes it borderline.
        certain, borderline = oracle.answers((0.0, 0.0, 2.0, 2.0), ("b", "c"), 2.0 / 6.0, 0.2)
        self.assertEqual((certain, borderline), ({0}, {1}))

    def test_liveness_and_frozen_weights(self):
        oracle = Oracle(self.boxes, self.tokens)
        oracle.live[1] = False
        certain, _ = oracle.answers((0.0, 0.0, 2.0, 2.0), ("b", "c"), 0.3, 0.2)
        self.assertEqual(certain, {0})
        oracle.freeze_weights([0, 2])  # "b" now has df 1 of N 2
        self.assertAlmostEqual(oracle.weight("b"), math.log(2))
        self.assertAlmostEqual(oracle.weight("d"), math.log(2))

    def test_perturbed_answers_fail(self):
        oracle = Oracle(self.boxes, self.tokens)
        query = ((0.0, 0.0, 2.0, 2.0), ("b", "c"), 0.3, 0.2)
        self.assertEqual(oracle.check(*query, [0, 1]), "")
        self.assertIn("missing [1]", oracle.check(*query, [0]))
        self.assertIn("spurious [2]", oracle.check(*query, [0, 1, 2]))
        self.assertIn("not ascending", oracle.check(*query, [1, 0]))

    def test_perturbed_answers_fail_on_generated_inputs(self):
        rng = np.random.default_rng(3)
        side = inputs.space_side(800)
        boxes, token_sets = inputs.make_corpus(800, rng, side)
        oracle = Oracle(boxes, token_sets)
        checked = 0
        for q in inputs.make_queries(400, rng, boxes, token_sets, side):
            certain, borderline = oracle.answers(q.box, q.tokens, q.tau_r, q.tau_t)
            if not certain or borderline:
                continue
            answers = sorted(certain)
            self.assertEqual(oracle.check(q.box, q.tokens, q.tau_r, q.tau_t, answers), "")
            self.assertNotEqual(oracle.check(q.box, q.tokens, q.tau_r, q.tau_t, answers[1:]), "")
            spurious = next(o for o in range(len(boxes)) if o not in certain)
            wrong = sorted(answers + [spurious])
            self.assertNotEqual(oracle.check(q.box, q.tokens, q.tau_r, q.tau_t, wrong), "")
            checked += 1
        self.assertGreater(checked, 5)


FINGERPRINT = """
import sys
sys.path.insert(0, {here!r})
import numpy as np, inputs
rng = np.random.default_rng(11)
side = inputs.space_side(500)
boxes, tokens = inputs.make_corpus(500, rng, side)
queries = inputs.distinct(inputs.make_queries(300, rng, boxes, tokens, side))
ops = inputs.churn_stream(500, 100, rng, insert_share=0.7, delete_share=0.1,
                          query_pool=50, checkpoint_at=250)
print(inputs.fingerprint(boxes, tokens, queries, ops, inputs.zipf_stream(64, 500, 1.0, rng)))
"""


class InputsTest(unittest.TestCase):
    def test_fingerprint_independent_of_hash_seed(self):
        digests = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            out = subprocess.run([sys.executable, "-c", FINGERPRINT.format(here=str(HERE))],
                                 env=env, capture_output=True, text=True, check=True)
            digests.add(out.stdout.strip())
        self.assertEqual(len(digests), 1, digests)

    def test_churn_stream_deletes_only_live_oids(self):
        ops = inputs.churn_stream(2000, 50, np.random.default_rng(5), insert_share=0.7,
                                  delete_share=0.1, query_pool=10, checkpoint_at=1000)
        live, next_oid = set(range(50)), 50
        for op in ops:
            if op.kind == "insert":
                live.add(next_oid)
                next_oid += 1
            elif op.kind == "delete":
                self.assertIn(op.index, live)
                live.remove(op.index)
        self.assertEqual(sum(op.kind == "checkpoint" for op in ops), 1)


def session_processes(sid: int) -> list:
    """Pids of the processes, zombies included, in session ``sid``."""
    found = []
    for entry in os.listdir("/proc"):
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        if entry.isdigit() and int(stat[stat.rindex(")") + 2:].split()[3]) == sid:
            found.append(int(entry))
    return found


ORPHAN = """
import os, subprocess, sys, time
sys.path.insert(0, {here!r})
import run
run.adopt_orphans()
# The child forks a grandchild that would sleep for minutes, then exits.
subprocess.run([sys.executable, "-c", "import os, time\\nif os.fork() == 0: time.sleep(300)"])
before = run.children()
run.end_children(grace=0.5)
print(len(before), len(run.children()))
"""


def result_of(completed: subprocess.CompletedProcess) -> dict:
    if completed.returncode != 0:
        raise AssertionError(completed.stdout[-2000:] + completed.stderr[-2000:])
    return json.loads(completed.stdout.strip().splitlines()[-1])


class CompareTest(unittest.TestCase):
    """``compare.py`` over directories of result records and captured stdouts."""

    def write_set(self, directory: Path, latencies) -> None:
        directory.mkdir(parents=True)
        config = json.loads((ROOT / "BENCHMARK.json").read_text())
        for i, latency in enumerate(latencies):
            metrics = {m["name"]: {"value": latency, "unit": m["unit"]} for m in config["end_to_end"]}
            for workload in config["workloads"]:
                result = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}
                header = f"perfbench workload={workload['name']} seed={i} trace=0 scale=full"
                if i % 2:
                    text = json.dumps({"workload": workload["name"], "trace": 0, **result})
                else:
                    text = header + "\n" + json.dumps(result)
                (directory / f"{workload['name']}-{i}.txt").write_text(text + "\n")

    def compare(self, base, new) -> int:
        import compare

        root = ROOT / ".perfbench" / "selftest-compare"
        shutil.rmtree(root, ignore_errors=True)
        try:
            self.write_set(root / "base", base)
            self.write_set(root / "new", new)
            return compare.main([str(root / "base"), str(root / "new")])
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def test_within_and_out_of_bound(self):
        self.assertEqual(self.compare([1.0, 1.1, 0.9], [1.05, 1.0, 1.1]), 0)
        self.assertEqual(self.compare([1.0, 1.1, 0.9], [2.0, 2.1, 1.9]), 1)


class TinyRunTest(unittest.TestCase):
    config = json.loads((ROOT / "BENCHMARK.json").read_text())

    def assert_metrics(self, result: dict, declared: list) -> None:
        self.assertEqual({name: m["unit"] for name, m in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in declared})

    def test_all_workloads_untraced_under_a_minute(self):
        started = time.monotonic()
        for workload in ("cold_reads", "hot_reads", "durable_churn"):
            result = result_of(run_bench("--workload", workload, "--seed", "2", "--seconds", "1",
                                         "--trace", "0", "--scale", "tiny"))
            self.assertTrue(result["correct"], workload)
            self.assertEqual(result["failed"], 0, workload)
            self.assertGreater(result["attempted"], 0, workload)
            self.assert_metrics(result, self.config["end_to_end"])
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, f"{workload} {name}")
        self.assertLess(time.monotonic() - started, 60)

    def test_all_workloads_traced(self):
        for workload in ("cold_reads", "hot_reads", "durable_churn"):
            result = result_of(run_bench("--workload", workload, "--seed", "2", "--seconds", "1",
                                         "--trace", "1", "--scale", "tiny"))
            self.assertTrue(result["correct"], workload)
            self.assert_metrics(result, self.config["per_layer"])

    def test_run_leaves_no_process(self):
        process = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", "cold_reads", "--seed", "3",
             "--seconds", "1", "--trace", "0", "--scale", "tiny"],
            cwd=ROOT, start_new_session=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        stdout, stderr = process.communicate(timeout=300)
        self.assertEqual(process.returncode, 0, stderr[-2000:])
        self.assertEqual(session_processes(process.pid), [])

    def test_orphaned_grandchild_is_ended(self):
        completed = subprocess.run([sys.executable, "-c", ORPHAN.format(here=str(HERE))],
                                   capture_output=True, text=True, timeout=60)
        self.assertEqual(completed.stdout.split(), ["1", "0"], completed.stderr[-2000:])

    def test_fails_without_program_source(self):
        bare = ROOT / ".perfbench" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            completed = run_bench("--workload", "hot_reads", "--seed", "1", "--seconds", "1",
                                  cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(completed.returncode, 0)
        self.assertNotIn('"correct"', completed.stdout)


if __name__ == "__main__":
    unittest.main()
