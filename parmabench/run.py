#!/usr/bin/env python3
"""Parma benchmark harness.

    python3 parmabench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The harness builds `parma` and
the `parmabench-replay` helper (release profile, into $CARGO_TARGET_DIR,
default `.bench_build`), generates the workload's inputs from the seed,
times the program through its command-line entry points with tracing
off, checks every output against an in-process replay, and prints one
JSON result as the last line of standard output.

Workloads (see parmabench/README.md for why each was chosen):

  batch-paper      `parma batch --threads 2 --journal` over seven seeded
                   directories of paper-scale sessions (n = 32..100)
  serve-sessions   `parma serve --threads 2 --journal` driven closed-loop
                   by two clients, each re-measuring eight devices
  equations-write  `parma equations --n 40`

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
metrics of the traced replay. Everything the run writes stays under
`.bench_work/` in the checkout.
"""

import argparse
import hashlib
import http.client
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("batch-paper", "serve-sessions", "equations-write")

# End-to-end metrics, reported on every workload (README: what each
# one means per workload).
END_TO_END = {
    "setup_s": "s",
    "ok_per_s": "1/s",
    "ok_frac": "ratio",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "io_mb_per_s": "MB/s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics of the traced replay.
PER_LAYER = {
    "model.ingest.ms": "ms",
    "model.ingest.mb_per_s": "MB/s",
    "model.forward.refactor_ms.n16": "ms",
    "model.forward.refactor_ms.n20": "ms",
    "model.forward.refactor_ms.n32": "ms",
    "model.forward.refactor_ms.n48": "ms",
    "model.forward.refactor_ms.n64": "ms",
    "model.forward.refactor_ms.n100": "ms",
    "model.forward.refactors": "count",
    "parma.solver.calls": "count",
    "parma.solver.iters": "count",
    "parma.solver.ms": "ms",
    "parma.solver.ms_per_iter": "ms",
    "parma.solver.converged_ratio": "ratio",
    "parma.solver.recoveries": "count",
    "parma.supervisor.attempts": "count",
    "parma.supervisor.useful_ratio": "ratio",
    "parma.supervisor.wasted_iters": "count",
    "parma.batch.busy_frac": "ratio",
    "parma.batch.straggler_ms": "ms",
    "parma.plan.ms": "ms",
    "parma.plan.hit_ratio": "ratio",
    "parma.session.iters_saved_ratio": "ratio",
    "parma.service.queue_ms_p50": "ms",
    "obs.serve.request_ms_p50": "ms",
    "parma.detect.ms": "ms",
    "cli.journal.record_ms_p50": "ms",
    "equations.form.ms": "ms",
    "equations.form.terms": "count",
    "equations.form.allocs": "count",
    "equations.form.peak_heap_mb": "MB",
    "equations.write.ms": "ms",
    "equations.write.bytes": "count",
    "equations.write.mb_per_s": "MB/s",
    "equations.write.allocs_per_eq": "count",
    "trace.overhead_frac": "ratio",
}

# Per-layer counts that repeat exactly for a seed.
DETERMINISTIC = (
    "model.forward.refactors",
    "parma.solver.calls",
    "parma.solver.iters",
    "parma.solver.converged_ratio",
    "parma.solver.recoveries",
    "parma.supervisor.attempts",
    "parma.supervisor.useful_ratio",
    "parma.supervisor.wasted_iters",
    "parma.plan.hit_ratio",
    "parma.session.iters_saved_ratio",
    "equations.form.terms",
    "equations.form.allocs",
    "equations.write.bytes",
    "equations.write.allocs_per_eq",
)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# Workload shape; must agree with parmabench/replay/src/inputs.rs.
BATCH_SIZES = (32, 32, 48, 48, 64, 64, 100)
BATCH_DIRS = 7
CLIENTS = (("devA", 16), ("devB", 20))
DEVICES_PER_CLIENT = 8
EQUATIONS_N = 40
TIME_POINTS = 4

EQUATIONS_MIN_OPS = 3  # one export varies 10-20% run to run; time several
# Set-ups per measured run, setup_s being their median: at least
# SETUP_MIN_REPS, and more while their total is under SETUP_MIN_S, so that
# a set-up of a few milliseconds is timed often enough to be steady.
SETUP_MIN_REPS = 7
SETUP_MAX_REPS = 100
SETUP_MIN_S = 0.5
POLL_MS = 2  # serve clients poll GET /jobs/<id> this often
TRACE_JOBS = 32  # jobs per client in a traced run
GT_BOUND = 1e-5  # max relative error against ground truth (tests/end_to_end.rs)


class BenchError(Exception):
    """The harness itself could not run; no result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- tools


class Tools:
    def __init__(self, workload, seed):
        target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        self.target = target if os.path.isabs(target) else os.path.join(ROOT, target)
        self.env = dict(os.environ, CARGO_TARGET_DIR=self.target)
        self.parma = os.path.join(self.target, "release", "parma")
        self.replay_bin = os.path.join(self.target, "release", "parmabench-replay")
        self.work = os.path.join(ROOT, ".bench_work", workload)
        self.inputs = os.path.join(self.work, "inputs")
        self.seed = seed

    def build(self):
        for cmd in (
            ["cargo", "build", "--release", "--offline", "-p", "parma-cli"],
            [
                "cargo",
                "build",
                "--release",
                "--offline",
                "--manifest-path",
                os.path.join("parmabench", "replay", "Cargo.toml"),
            ],
        ):
            r = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=sys.stderr, stderr=sys.stderr)
            if r.returncode != 0:
                raise BenchError(f"build failed: {' '.join(cmd)}")

    def helper(self, *args):
        """Runs parmabench-replay and returns its JSON output."""
        r = subprocess.run(
            [self.replay_bin, *map(str, args)],
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        if r.returncode != 0:
            raise BenchError(f"parmabench-replay {args[0]} failed: {r.stderr.decode(errors='replace')}")
        return json.loads(r.stdout)

    def gen(self, workload):
        return self.helper("gen", "--workload", workload, "--seed", self.seed, "--dir", self.inputs)

    def replay(self, workloads, *extra):
        return self.helper(
            "replay",
            "--seed",
            self.seed,
            "--dir",
            self.inputs,
            "--work",
            os.path.join(self.work, "replay"),
            "--workloads",
            ",".join(workloads),
            *extra,
        )

    def fnv(self, path):
        return self.helper("fnv", "--file", path)


def run_measured(argv, log_path):
    """Runs the process under test; returns (wall s, exit code, peak RSS MB)."""
    with open(log_path, "ab") as out:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, cwd=ROOT, stdout=out, stderr=out)
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, p.returncode, usage.ru_maxrss * 1024 / 1e6


def slurp(path, mode="r"):
    with open(path, mode) as fh:
        return fh.read()


def wipe(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path, exist_ok=True)


def quantile(values, q):
    """Quantile with linear interpolation between order statistics (the
    "inclusive" method). With a handful of operations per run, as in
    batch-paper and equations-write, this keeps p90 from being just the
    slowest one."""
    v = sorted(values)
    if not v:
        raise BenchError("quantile of an empty sample")
    pos = q * (len(v) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (pos - lo) * (v[hi] - v[lo])


# ------------------------------------------------------ failure accounting


def parse_journal(text):
    """`file name -> entry` of a `parma-journal/v1` file; an unparsable
    line shows up as the entry `<torn>`."""
    entries = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            e = json.loads(line)
        except ValueError:
            entries.setdefault("<torn>", {"status": "torn"})
            continue
        if e.get("schema") == "parma-journal/v1":
            entries[e["path"]] = e
    return entries


def tp_mismatch(got, want):
    """Why program time points `got` (journal / result format) differ from
    replay time points `want`, or None when they agree and every map is
    within GT_BOUND of the ground truth."""
    g = [(t.get("hours"), t.get("resistors_fnv1a"), t.get("anomalies")) for t in got]
    w = [(t["hours"], t["fnv"], t["anomalies"]) for t in want]
    if g != w:
        return "result bits differ from the replay"
    for t in want:
        if t["gt_err"] is None or t["gt_err"] > GT_BOUND:
            return f"map at hour {t['hours']} is off the ground truth by {t['gt_err']}"
    return None


def batch_op_outcome(entries, rc, directory, ref):
    """Accounting for one `parma batch` run over directory `directory`.

    `ref` maps `d<dir>/<file>` to the replay's session record; sessions the
    journal quarantined may be missing from it. A quarantined session is
    not ok (its four time points count against ok_frac) but not a failed
    run either, unless the replay converges it. A run fails when a result
    disagrees with the replay, a map misses the ground truth, an entry is
    missing or the exit status does not match the journal.
    """
    reasons, ok_tps, quarantined = [], 0, False
    if "<torn>" in entries:
        reasons.append("journal has an unparsable line")
    for idx, n in enumerate(BATCH_SIZES):
        name = f"b{idx}-n{n}.txt"
        full = f"d{directory}/{name}"
        e = entries.get(name)
        r = ref.get(full)
        if e is None:
            reasons.append(f"{full}: no journal entry")
        elif e.get("status") != "ok":
            quarantined = True
            if r is not None and r["ok"]:
                reasons.append(f"{full}: quarantined, but the replay converges")
        elif r is None or not r["ok"]:
            reasons.append(f"{full}: journaled ok, but the replay does not converge")
        else:
            why = tp_mismatch(e.get("time_points", []), r["tps"])
            if why:
                reasons.append(f"{full}: {why}")
            else:
                ok_tps += TIME_POINTS
    want_rc = 3 if quarantined else 0
    if rc != want_rc:
        reasons.append(f"exit status {rc}, expected {want_rc}")
    return {"ok_tps": ok_tps, "tps": TIME_POINTS * len(BATCH_SIZES), "failed": bool(reasons), "reasons": reasons}


def serve_job_outcome(rec, ref_job):
    """Accounting for one closed-loop job. A 429/503 reply or a transport
    error is a failed job; so is a result that disagrees with the replay."""
    if rec["status"] != "answered":
        return {"ok_tps": 0, "tps": TIME_POINTS, "failed": True, "reasons": [rec.get("reason", rec["status"])]}
    doc = rec["doc"]
    if doc.get("status") != "done":
        if ref_job is not None and ref_job["ok"]:
            return {"ok_tps": 0, "tps": TIME_POINTS, "failed": True, "reasons": ["job failed, but the replay converges"]}
        return {"ok_tps": 0, "tps": TIME_POINTS, "failed": False, "reasons": []}
    if ref_job is None or not ref_job["ok"]:
        return {"ok_tps": 0, "tps": TIME_POINTS, "failed": True, "reasons": ["job done, but the replay does not converge"]}
    why = tp_mismatch(doc.get("time_points", []), ref_job["tps"])
    if why:
        return {"ok_tps": 0, "tps": TIME_POINTS, "failed": True, "reasons": [why]}
    return {"ok_tps": TIME_POINTS, "tps": TIME_POINTS, "failed": False, "reasons": []}


def equations_op_outcome(rc, got, ref):
    """Accounting for one `parma equations` run: the file must match the
    replay's `write_system` bytes (size and FNV-1a) and the replay's
    formation census must equal the analytic one."""
    reasons = []
    if rc != 0:
        reasons.append(f"exit status {rc}")
    if got is None:
        reasons.append("no output file")
    elif got["bytes"] != ref["bytes"] or got["fnv"] != ref["fnv"]:
        reasons.append(f"output {got['bytes']} B / {got['fnv']}, replay {ref['bytes']} B / {ref['fnv']}")
    if not ref["census_ok"]:
        reasons.append("formation census differs from FormationCensus::expected")
    ok = not reasons
    return {"ok_eqs": ref["equations"] if ok else 0, "failed": not ok, "reasons": reasons}


def result_line(correct, attempted, failed, values, units):
    """The final JSON line; every name must be well-formed and carry a unit."""
    metrics = {}
    for name, value in values.items():
        unit = units.get(name)
        if not NAME_RE.match(name) or not unit:
            raise BenchError(f"metric {name!r} has a bad name or no unit")
        metrics[name] = {"value": value, "unit": unit}
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    return json.dumps({"correct": bool(correct), "attempted": int(attempted), "failed": int(failed), "metrics": metrics})


# ------------------------------------------------------------ serve client


class Daemon:
    """A `parma serve` process; stopped (and waited for) in every case."""

    def __init__(self, tools, journal):
        addr_file = os.path.join(tools.work, "serve.addr")
        if os.path.exists(addr_file):
            os.remove(addr_file)
        self.log = open(os.path.join(tools.work, "serve.log"), "ab")
        self.proc = subprocess.Popen(
            [
                tools.parma,
                "serve",
                "--threads",
                "2",
                "--journal",
                journal,
                "--addr",
                "127.0.0.1:0",
                "--addr-file",
                addr_file,
            ],
            cwd=ROOT,
            stdout=self.log,
            stderr=self.log,
        )
        self.rss_mb = None
        deadline = time.perf_counter() + 60
        while not os.path.exists(addr_file):
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise BenchError("parma serve did not become ready")
            time.sleep(0.0005)
        host, port = slurp(addr_file).strip().rsplit(":", 1)
        self.addr = (host, int(port))

    def stop(self):
        """Drains through POST /shutdown and waits for the exit, killing
        the daemon only if it is not ready or does not exit within a
        minute; returns the exit status."""
        if self.proc.returncode is None:
            deadline = time.perf_counter() + 60
            if hasattr(self, "addr"):
                try:
                    request(self.addr, "POST", "/shutdown", timeout=60)
                except (OSError, http.client.HTTPException):
                    pass  # the reply can be cut off by the drain itself
            else:
                deadline = 0
            # os.wait4 rather than Popen.wait, for the child's own rusage;
            # Popen.kill is avoided too, because it reaps a child that has
            # already exited and would leave wait4 with nothing to wait for.
            while True:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > deadline:
                    os.kill(self.proc.pid, signal.SIGKILL)
                    _, status, usage = os.wait4(self.proc.pid, 0)
                    break
                time.sleep(0.002)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.rss_mb = usage.ru_maxrss * 1024 / 1e6
            self.log.close()
        return self.proc.returncode


def request(addr, method, path, body=None, timeout=120):
    conn = http.client.HTTPConnection(addr[0], addr[1], timeout=timeout)
    try:
        conn.request(method, path, body=body)
        resp = conn.getresponse()
        return resp.status, resp.read(), resp.getheader("Retry-After")
    finally:
        conn.close()


def drive_serve(tools, addr, seconds=None, max_jobs=None):
    """The two closed-loop clients (`parmabench-replay drive`), one per
    client, against a running daemon. Returns per-client records
    `{"k", "status", "doc", "latency_ms"}` (or `"reason"` for a rejected
    or failed request) and the wall time of the loop."""
    limit = ["--seconds", seconds] if seconds is not None else ["--max-jobs", max_jobs]
    out = tools.helper("drive", "--addr", f"{addr[0]}:{addr[1]}", "--dir", tools.inputs,
                       "--poll-ms", POLL_MS, *limit)
    return job_records(out["devices"]), out["window_s"]


def job_records(devices):
    """Client records as the replay prints them, with the result document
    of an answered job under `doc`."""
    return [[dict(r, doc=r.pop("result", None)) for r in recs] for recs in devices]


def admitted(records):
    """Jobs per client the daemon admitted, in chain order."""
    return [sum(1 for r in recs if r["status"] == "answered") for recs in records]


def serve_outcomes(records, chains):
    out = []
    for d, recs in enumerate(records):
        for r in recs:
            ref_job = chains[d][r["k"]] if r["status"] == "answered" else None
            out.append(serve_job_outcome(r, ref_job))
    return out


def daemon_outcome(daemon, journal, jobs):
    """The drained daemon must exit 0 with one journal entry per admitted job."""
    entries = parse_journal(slurp(journal) if os.path.exists(journal) else "")
    if len(entries) == sum(jobs) and daemon.proc.returncode == 0:
        return []
    return [{"ok_tps": 0, "tps": 0, "failed": True, "reasons": [
        f"daemon exited {daemon.proc.returncode} with {len(entries)} journal entries for {sum(jobs)} jobs"]}]


# --------------------------------------------------------------- workloads


def timed_setup(tools, prepare, reset=None):
    """Runs `prepare` from empty inputs, after `reset` (untimed), as often
    as the SETUP_* constants say; returns the median wall time, the last
    return value and the number of set-ups."""
    times, value = [], None
    while len(times) < SETUP_MIN_REPS or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPS):
        if reset:
            reset()
        wipe(tools.inputs)
        t0 = time.perf_counter()
        value = prepare()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), value, len(times)


def batch_op(tools, directory):
    journal = os.path.join(tools.work, f"batch-d{directory}.journal")
    if os.path.exists(journal):
        os.remove(journal)
    wall, rc, rss = run_measured(
        [
            tools.parma,
            "batch",
            os.path.join(tools.inputs, "batch", f"d{directory}"),
            "--threads",
            "2",
            "--journal",
            journal,
            "--quiet",
        ],
        os.path.join(tools.work, "batch.log"),
    )
    text = slurp(journal) if os.path.exists(journal) else ""
    entries = parse_journal(text)
    return {"dir": directory, "wall": wall, "rc": rc, "rss": rss, "entries": entries}


def dir_bytes(tools, directory):
    root = os.path.join(tools.inputs, "batch", f"d{directory}")
    return sum(os.path.getsize(os.path.join(root, f)) for f in os.listdir(root))


def run_batch_paper(tools, seconds):
    setup_s, _, setups = timed_setup(tools, lambda: tools.gen("batch-paper"))
    sizes = [dir_bytes(tools, j) for j in range(BATCH_DIRS)]
    # Whole cycles over the seven directories, so every run of a seed
    # measures the same devices.
    ops, t0 = [], time.perf_counter()
    while not ops or time.perf_counter() - t0 < seconds:
        for j in range(BATCH_DIRS):
            ops.append(batch_op(tools, j))
    ok_names = sorted({f"d{op['dir']}/{name}" for op in ops for name, e in op["entries"].items() if e.get("status") == "ok"})
    ref = tools.replay(["batch-paper"], "--batch-sessions", ",".join(ok_names))
    refmap = {s["name"]: s for s in ref["batch"]}
    outcomes = [batch_op_outcome(op["entries"], op["rc"], op["dir"], refmap) for op in ops]
    wall = sum(op["wall"] for op in ops)
    ok_tps = sum(o["ok_tps"] for o in outcomes)
    values = {
        "setup_s": setup_s,
        "ok_per_s": ok_tps / wall,
        "ok_frac": ok_tps / sum(o["tps"] for o in outcomes),
        "op_ms_p50": statistics.median(op["wall"] * 1e3 for op in ops),
        "op_ms_p90": quantile([op["wall"] * 1e3 for op in ops], 0.9),
        "io_mb_per_s": sum(sizes[op["dir"]] for op in ops) / 1e6 / wall,
        "peak_rss_mb": max(op["rss"] for op in ops),
    }
    details = {"setups": setups, "ops": [{"dir": op["dir"], "wall_s": op["wall"], "rc": op["rc"], **o} for op, o in zip(ops, outcomes)]}
    return values, outcomes, details


def run_serve_sessions(tools, seconds):
    journal = os.path.join(tools.work, "serve.journal")
    daemons = []

    def reset():
        if daemons:
            daemons.pop().stop()
        if os.path.exists(journal):
            os.remove(journal)

    def prepare():
        tools.gen("serve-sessions")
        daemons.append(Daemon(tools, journal))

    try:
        setup_s, _, setups = timed_setup(tools, prepare, reset)
        daemon = daemons[0]
        records, window = drive_serve(tools, daemon.addr, seconds=seconds)
    finally:
        for d in daemons:
            d.stop()
    jobs = admitted(records)
    body_bytes = [[os.path.getsize(os.path.join(tools.inputs, "serve", f"{name}{d}.txt"))
                   for d in range(DEVICES_PER_CLIENT)] for name, _ in CLIENTS]
    ref = tools.replay(["serve-sessions"], "--jobs", ",".join(map(str, jobs)))
    outcomes = serve_outcomes(records, ref["serve"]) + daemon_outcome(daemon, journal, jobs)
    latencies = [r["latency_ms"] for recs in records for r in recs if r["status"] == "answered"]
    if not latencies:
        raise BenchError("no serve job completed")
    ok_tps = sum(o["ok_tps"] for o in outcomes)
    values = {
        "setup_s": setup_s,
        "ok_per_s": ok_tps / window,
        "ok_frac": ok_tps / max(1, sum(o["tps"] for o in outcomes)),
        "op_ms_p50": statistics.median(latencies),
        "op_ms_p90": quantile(latencies, 0.9),
        "io_mb_per_s": sum(body_bytes[c][k % DEVICES_PER_CLIENT] for c, n in enumerate(jobs) for k in range(n))
        / 1e6 / window,
        "peak_rss_mb": daemon.rss_mb,
    }
    details = {"setups": setups, "jobs_per_client": jobs, "window_s": window, "latency_samples": len(latencies),
               "jobs": [[(r["done_s"], r["latency_ms"]) for r in recs if r["status"] == "answered"] for recs in records],
               "reasons": [r for o in outcomes for r in o["reasons"]]}
    return values, outcomes, details


def equations_op(tools, eq_seed):
    out = os.path.join(tools.work, "equations.txt")
    if os.path.exists(out):
        os.remove(out)
    wall, rc, rss = run_measured(
        [tools.parma, "equations", "--n", str(EQUATIONS_N), "--seed", str(eq_seed), "--out", out],
        os.path.join(tools.work, "equations.log"),
    )
    got = tools.fnv(out) if os.path.exists(out) else None
    if got is not None:
        os.remove(out)
    return {"wall": wall, "rc": rc, "rss": rss, "got": got}


def run_equations_write(tools, seconds):
    setup_s, info, setups = timed_setup(tools, lambda: tools.gen("equations-write"))
    ops, t0 = [], time.perf_counter()
    while len(ops) < EQUATIONS_MIN_OPS or time.perf_counter() - t0 < seconds:
        ops.append(equations_op(tools, info["equations_seed"]))
    ref = tools.replay(["equations-write"])["equations"]
    outcomes = [equations_op_outcome(op["rc"], op["got"], ref) for op in ops]
    wall = sum(op["wall"] for op in ops)
    values = {
        "setup_s": setup_s,
        "ok_per_s": sum(o["ok_eqs"] for o in outcomes) / wall,
        "ok_frac": sum(not o["failed"] for o in outcomes) / len(outcomes),
        "op_ms_p50": statistics.median(op["wall"] * 1e3 for op in ops),
        "op_ms_p90": quantile([op["wall"] * 1e3 for op in ops], 0.9),
        "io_mb_per_s": sum(op["got"]["bytes"] for op in ops if op["got"]) / 1e6 / wall,
        "peak_rss_mb": max(op["rss"] for op in ops),
    }
    details = {"setups": setups, "ops": [{"wall_s": op["wall"], "rc": op["rc"], **o} for op, o in zip(ops, outcomes)]}
    return values, outcomes, details


def replay_results(doc):
    """The result part of a replay document (everything but timings)."""
    return {k: doc.get(k) for k in ("batch", "serve", "equations")}


def run_traced(tools, workload):
    """The per-layer replay. The program runs once untraced; the library
    reference, then the traced replay with timers off and on, recompute
    its results. The traced replay must agree with the reference, and so
    must the program and the replay's in-process HTTP run."""
    wipe(tools.inputs)
    info = None
    for w in WORKLOADS:
        info = tools.gen(w)
    journal = os.path.join(tools.work, "serve.journal")
    daemon = Daemon(tools, journal)
    try:
        records, _ = drive_serve(tools, daemon.addr, max_jobs=TRACE_JOBS)
    finally:
        daemon.stop()
    program = {}
    if workload == "batch-paper":
        program["batch"] = batch_op(tools, 0)
    elif workload == "equations-write":
        program["equations"] = equations_op(tools, info["equations_seed"])

    jobs = ",".join([str(TRACE_JOBS)] * len(CLIENTS))
    ref = tools.replay(WORKLOADS, "--jobs", jobs)
    traced = ("--layers", "--jobs", jobs)
    off = tools.replay(WORKLOADS, *traced, "--timers", "off")
    on = tools.replay(WORKLOADS, *traced, "--timers", "on")
    outcomes = []
    for name, doc in (("timers off", off), ("timers on", on)):
        if replay_results(doc) != replay_results(ref):
            outcomes.append({"failed": True, "reasons": [f"traced replay ({name}) disagrees with the library"]})
    for s in ref["batch"]:
        for t in s["tps"]:
            if t["gt_err"] is None or t["gt_err"] > GT_BOUND:
                outcomes.append({"failed": True, "reasons": [f"{s['name']}: map off the ground truth"]})
    for name, recs in (("program", records), ("in-process HTTP", job_records(on["http"]))):
        if admitted(recs) != [TRACE_JOBS] * len(CLIENTS):
            outcomes.append({"failed": True, "reasons": [f"{name} serve admitted {admitted(recs)} jobs"]})
        outcomes += serve_outcomes(recs, ref["serve"])
    outcomes += daemon_outcome(daemon, journal, admitted(records))
    if "batch" in program:
        op = program["batch"]
        refmap = {s["name"]: s for s in ref["batch"]}
        outcomes.append(batch_op_outcome(op["entries"], op["rc"], 0, refmap))
    if "equations" in program:
        op = program["equations"]
        outcomes.append(equations_op_outcome(op["rc"], op["got"], ref["equations"]))

    values = dict(on["layers"])
    values["trace.overhead_frac"] = on["wall_ms"] / off["wall_ms"] - 1.0
    details = {"replay_wall_ms": {"off": off["wall_ms"], "on": on["wall_ms"]},
               "deterministic": list(DETERMINISTIC),
               "spans": os.path.join(".bench_work", workload, "replay", "spans.jsonl"),
               "reasons": [r for o in outcomes for r in o["reasons"]]}
    return values, outcomes, details


# -------------------------------------------------------------- provenance


def provenance(tools, args):
    def cmd_out(argv):
        try:
            r = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=tools.env)
            return r.stdout.decode().strip() if r.returncode == 0 else "unknown"
        except OSError:
            return "unknown"

    digest = hashlib.sha256()
    for base in ("Cargo.toml", "Cargo.lock", "crates", os.path.join("parmabench", "replay", "src")):
        path = os.path.join(ROOT, base)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return {
        "schema": "parmabench-provenance/v1",
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "host_cores": os.cpu_count(),
        "rustc": cmd_out(["rustc", "--version"]),
        "git_commit": cmd_out(["git", "rev-parse", "HEAD"]) if os.path.exists(os.path.join(ROOT, ".git")) else "unknown",
        "source_sha256": digest.hexdigest(),
        "build_profile": "release",
        "output_fs": cmd_out(["stat", "-f", "-c", "%T", tools.work]),
        "serve_poll_ms": POLL_MS,
    }


# ------------------------------------------------------------------- main


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        raise BenchError("--seed must be >= 0 and --seconds > 0")
    for needed in ("Cargo.toml", "crates", os.path.join("parmabench", "replay", "Cargo.toml")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError(f"{needed} is missing: run from the root of a Parma source checkout")

    tools = Tools(args.workload, args.seed)
    tools.build()
    wipe(tools.work)
    if args.trace:
        values, outcomes, details = run_traced(tools, args.workload)
        units = PER_LAYER
    else:
        run = {"batch-paper": run_batch_paper, "serve-sessions": run_serve_sessions,
               "equations-write": run_equations_write}[args.workload]
        values, outcomes, details = run(tools, args.seconds)
        units = END_TO_END
    failed = sum(1 for o in outcomes if o["failed"])
    attempted = max(1, len(outcomes))
    stamp = provenance(tools, args)
    os.makedirs(os.path.join(ROOT, ".bench_work", "results"), exist_ok=True)
    result_path = os.path.join(ROOT, ".bench_work", "results",
                               f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w") as fh:
        json.dump({"provenance": stamp, "values": values, "details": details}, fh, indent=1)
    for o in outcomes:
        for r in o["reasons"]:
            log(f"check failed: {r}")
    print("provenance " + json.dumps(stamp))
    print(result_line(failed == 0, attempted, failed, values, units))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log(f"parmabench: {e}")
        sys.exit(2)
