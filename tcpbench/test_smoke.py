#!/usr/bin/env python3
"""Smoke test of the TCP-plane benchmark.

Run from the repository root (takes about a minute):

    python3 tcpbench/test_smoke.py

Runs every workload of BENCHMARK.json for a short window, untraced, and
the first one traced. Checks that each run passes its correctness gate
and prints exactly the metrics BENCHMARK.json names, each with its unit.
The end-to-end metrics must also be finite and above 0.
"""

import json
import math
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True

SECONDS = "1.5"


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run(workload, trace):
    spec = load_spec()
    cmd = spec["command"] + ["--workload", workload, "--seed", "3", "--seconds", SECONDS,
                             "--trace", str(trace)]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    return r.returncode, r.stdout.splitlines()[-1]


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        spec = load_spec()
        code, last = run(workload, trace)
        self.assertEqual(code, 0, last)
        res = json.loads(last)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        expected = spec["per_layer"] if trace else spec["end_to_end"]
        self.assertEqual(set(res["metrics"]), {m["name"] for m in expected})
        for m in expected:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])

    def test_untraced_every_workload(self):
        for w in load_spec()["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 0)

    def test_traced(self):
        self.check(load_spec()["workloads"][0]["name"], 1)


if __name__ == "__main__":
    unittest.main()
