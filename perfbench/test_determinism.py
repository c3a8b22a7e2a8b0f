#!/usr/bin/env python3
"""The benchmark's own tests: the simulated outcomes it reports repeat
exactly across repetitions, worker counts and trace modes.

Each workload runs for one second, which always completes its digest
window, with 1 worker and with min(nproc, 4) workers, traced and untraced;
sim_digest and every count line must agree. Run from the root of a checkout:

    python3 perfbench/test_determinism.py
"""
import os
import subprocess
import sys
import unittest

SEED = 3
NPROC = max(2, min(os.cpu_count() or 1, 4))


def outcome(workload, workers, trace):
    """sim_digest and count lines of one short run, as a dict."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--workers", str(workers)],
        capture_output=True, text=True)
    if done.returncode != 0:
        raise AssertionError("%s workers=%d trace=%d failed:\n%s%s" % (
            workload, workers, trace, done.stdout, done.stderr))
    lines = {}
    for line in done.stdout.splitlines():
        if line.startswith("sim_digest "):
            lines["sim_digest"] = line.split()[1]
        elif line.startswith("count "):
            _, name, value = line.split()
            lines[name] = int(value)
    return lines


class Determinism(unittest.TestCase):
    def check(self, workload):
        serial = outcome(workload, 1, 0)
        self.assertIn("sim_digest", serial)
        self.assertGreater(serial.get("trials", 0), 0)
        self.assertEqual(serial, outcome(workload, 1, 0), "repetition")
        self.assertEqual(serial, outcome(workload, NPROC, 0), "worker count")
        traced = outcome(workload, 1, 1)
        self.assertEqual(traced, outcome(workload, NPROC, 1),
                         "worker count, traced")
        # A traced run adds the machine counters; the rest must agree.
        self.assertEqual(serial, {k: traced[k] for k in serial}, "trace mode")

    def test_present_pfa(self):
        self.check("present-pfa")

    def test_aes_defences(self):
        self.check("aes-defences")

    def test_daemon_sweeps(self):
        self.check("daemon-sweeps")


if __name__ == "__main__":
    unittest.main()
