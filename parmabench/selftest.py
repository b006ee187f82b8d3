#!/usr/bin/env python3
"""Self-tests of the Parma benchmark harness.

    python3 parmabench/selftest.py

Checks that inputs are a pure function of the seed, that a perturbed map,
a truncated equation file and a 429/503 reply each count as a failure,
and that every metric name is well formed and carries a unit. Builds the
binaries first (as a benchmark run does) and writes only under
`.bench_work/selftest`.
"""

import http.server
import json
import os
import shutil
import subprocess
import sys
import threading
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 1
HELD_OUT_SEED = 2


def journal_tps(ref_tps):
    """Journal/result time points as `parma` writes them for these maps."""
    return [
        {"hours": t["hours"], "iterations": t["iterations"], "resistors_fnv1a": t["fnv"], "anomalies": t["anomalies"]}
        for t in ref_tps
    ]


class Harness(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tools = run.Tools("selftest", SEED)
        cls.tools.build()
        run.wipe(cls.tools.work)

    def gen_tree(self, workload, seed, name):
        root = os.path.join(self.tools.work, name)
        shutil.rmtree(root, ignore_errors=True)
        info = self.tools.helper("gen", "--workload", workload, "--seed", seed, "--dir", root)
        files = {}
        for d, _, fs in os.walk(root):
            for f in fs:
                path = os.path.join(d, f)
                files[os.path.relpath(path, root)] = run.slurp(path, "rb")
        return info, files

    def test_inputs_are_a_pure_function_of_the_seed(self):
        for workload in run.WORKLOADS:
            info_a, files_a = self.gen_tree(workload, SEED, "a")
            info_b, files_b = self.gen_tree(workload, SEED, "b")
            info_c, files_c = self.gen_tree(workload, HELD_OUT_SEED, "c")
            self.assertEqual(files_a, files_b, workload)
            self.assertEqual(info_a, info_b, workload)
            self.assertEqual(sorted(files_a), sorted(files_c), workload)
            self.assertNotEqual(info_a["fnv"], info_c["fnv"], workload)
            differing = [name for name in files_a if files_a[name] != files_c[name]]
            self.assertEqual(sorted(differing), sorted(files_a), f"{workload}: every input must change with the seed")

    def batch_reference(self):
        """A real replay of one converging session, as a batch run's
        reference, plus the journal entries a correct run would write."""
        gen_dir = self.tools.inputs
        shutil.rmtree(gen_dir, ignore_errors=True)
        self.tools.gen("batch-paper")
        ref = self.tools.replay(["batch-paper"], "--batch-sessions", "d0/b0-n32.txt")["batch"]
        refmap = {s["name"]: s for s in ref}
        entries = {}
        for idx, n in enumerate(run.BATCH_SIZES):
            name = f"b{idx}-n{n}.txt"
            if idx == 0:
                entries[name] = {"path": name, "status": "ok", "time_points": journal_tps(refmap[f"d0/{name}"]["tps"])}
            else:
                entries[name] = {"path": name, "status": "failed"}
        return refmap, entries

    def test_perturbed_map_counts_as_failure(self):
        refmap, entries = self.batch_reference()
        good = run.batch_op_outcome(entries, 3, 0, refmap)
        self.assertFalse(good["failed"], good["reasons"])
        self.assertEqual(good["ok_tps"], run.TIME_POINTS)
        self.assertEqual(good["tps"], run.TIME_POINTS * len(run.BATCH_SIZES))

        # One bit of one recovered map changes its FNV-1a hash.
        bad = json.loads(json.dumps(entries))
        tp = bad["b0-n32.txt"]["time_points"][2]
        tp["resistors_fnv1a"] = format(int(tp["resistors_fnv1a"], 16) ^ 1, "016x")
        out = run.batch_op_outcome(bad, 3, 0, refmap)
        self.assertTrue(out["failed"])
        self.assertEqual(out["ok_tps"], 0)

        # A map the replay reproduces but that misses the ground truth.
        off = json.loads(json.dumps(refmap))
        off["d0/b0-n32.txt"]["tps"][1]["gt_err"] = 1e-3
        out = run.batch_op_outcome(entries, 3, 0, off)
        self.assertTrue(out["failed"])
        self.assertEqual(out["ok_tps"], 0)

        # A missing entry, and an exit status that hides the quarantines.
        missing = dict(entries)
        del missing["b6-n100.txt"]
        self.assertTrue(run.batch_op_outcome(missing, 3, 0, refmap)["failed"])
        self.assertTrue(run.batch_op_outcome(entries, 0, 0, refmap)["failed"])

        # The same perturbation on a serve result.
        ref_job = refmap["d0/b0-n32.txt"]
        doc = {"status": "done", "time_points": journal_tps(ref_job["tps"])}
        self.assertFalse(run.serve_job_outcome({"status": "answered", "doc": doc}, ref_job)["failed"])
        doc["time_points"][0]["resistors_fnv1a"] = "0" * 16
        self.assertTrue(run.serve_job_outcome({"status": "answered", "doc": doc}, ref_job)["failed"])

    def test_truncated_equation_file_counts_as_failure(self):
        out = os.path.join(self.tools.work, "eq-small.txt")
        r = subprocess.run([self.tools.parma, "equations", "--n", "6", "--seed", "3", "--out", out],
                           stdout=subprocess.DEVNULL)
        self.assertEqual(r.returncode, 0)
        full = self.tools.fnv(out)
        ref = {"bytes": full["bytes"], "fnv": full["fnv"], "census_ok": True, "equations": 2 * 6 ** 3}
        self.assertFalse(run.equations_op_outcome(0, full, ref)["failed"])
        with open(out, "r+b") as fh:
            fh.truncate(full["bytes"] - 1)
        truncated = self.tools.fnv(out)
        outcome = run.equations_op_outcome(0, truncated, ref)
        self.assertTrue(outcome["failed"])
        self.assertEqual(outcome["ok_eqs"], 0)
        self.assertTrue(run.equations_op_outcome(0, None, ref)["failed"])
        self.assertTrue(run.equations_op_outcome(0, full, dict(ref, census_ok=False))["failed"])

    def test_rejected_replies_count_as_failures(self):
        shutil.rmtree(self.tools.inputs, ignore_errors=True)
        self.tools.gen("serve-sessions")
        for code in (429, 503):

            class Reject(http.server.BaseHTTPRequestHandler):
                def do_POST(self):
                    self.rfile.read(int(self.headers.get("Content-Length", 0)))
                    self.send_response(code)
                    self.send_header("Retry-After", "0")
                    self.send_header("Content-Length", "0")
                    self.end_headers()

                def log_message(self, *args):
                    pass

            server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Reject)
            thread = threading.Thread(target=server.serve_forever)
            thread.start()
            try:
                records, _ = run.drive_serve(self.tools, server.server_address, seconds=0.2)
            finally:
                server.shutdown()
                server.server_close()
                thread.join()
            flat = [r for recs in records for r in recs]
            self.assertTrue(flat, code)
            self.assertEqual(run.admitted(records), [0, 0])
            outcomes = run.serve_outcomes(records, [[], []])
            self.assertTrue(all(o["failed"] and o["ok_tps"] == 0 for o in outcomes), code)
            self.assertTrue(all(f"HTTP {code}" in o["reasons"] for o in outcomes), code)

    def test_metric_names_are_well_formed_and_carry_units(self):
        bench = json.loads(run.slurp(os.path.join(run.ROOT, "BENCHMARK.json")))
        for section, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            declared = {m["name"]: m["unit"] for m in bench[section]}
            self.assertEqual(declared, table, section)
            for name, unit in declared.items():
                self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
                self.assertTrue(unit)
        self.assertTrue(set(run.DETERMINISTIC) <= set(run.PER_LAYER))
        values = {name: 1.0 for name in run.END_TO_END}
        line = json.loads(run.result_line(True, 1, 0, values, run.END_TO_END))
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(all(m["unit"] for m in line["metrics"].values()))
        with self.assertRaises(run.BenchError):
            run.result_line(True, 1, 0, dict(values, **{"bad name": 1.0}), run.END_TO_END)
        with self.assertRaises(run.BenchError):
            run.result_line(True, 1, 0, {"setup_s": 1.0}, run.END_TO_END)

    def test_quantile_interpolates_between_order_statistics(self):
        self.assertAlmostEqual(run.quantile(list(range(1, 11)), 0.5), 5.5)
        self.assertAlmostEqual(run.quantile(list(range(1, 11)), 0.9), 9.1)
        self.assertAlmostEqual(run.quantile(list(range(1, 101)), 0.9), 90.1)
        self.assertAlmostEqual(run.quantile([4.0, 1.0, 2.0], 0.9), 3.6)
        self.assertEqual(run.quantile([7.0], 0.9), 7.0)


if __name__ == "__main__":
    unittest.main()
