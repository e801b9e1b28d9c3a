"""Tests of run.py's handling of failed processes (no build needed).

    python3 -m unittest discover -s perfbench/tests
"""

import contextlib
import io
import os
import sys
import unittest
from unittest import mock

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import metrics  # noqa: E402
import run  # noqa: E402

ARGS = ["--workload", "sweep-sync", "--seed", "1", "--seconds", "20"]


def main_with(run_binary):
    """run.main(ARGS) with the build skipped and run_binary replaced:
    (exit code, stdout lines)."""
    out = io.StringIO()
    with mock.patch.object(run, "build"), \
            mock.patch.object(run, "run_binary", run_binary), \
            contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = run.main(ARGS)
    return code, out.getvalue().splitlines()


class FailedProcessTest(unittest.TestCase):
    def test_throwing_op_prints_a_failed_result(self):
        record = {"workload": "sweep-sync", "seed": 1, "ops": 133,
                  "timed_ops": 133, "error": "boom"}
        code, lines = main_with(lambda *args: record)
        self.assertEqual(code, 1)
        doc = metrics.parse_result(lines[-1])
        self.assertIs(doc["correct"], False)
        self.assertEqual((doc["attempted"], doc["failed"]), (133, 133))
        self.assertTrue(any("boom" in line for line in lines[:-1]))

    def test_missing_record_prints_no_result(self):
        def crash(*args):
            raise RuntimeError("fba_perfbench exited with code -11 and no "
                               "record")
        code, lines = main_with(crash)
        self.assertEqual(code, 1)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
