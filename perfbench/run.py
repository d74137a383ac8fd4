#!/usr/bin/env python3
"""csTuner benchmark: one command per workload.

    python3 perfbench/run.py --workload tune-suite --seed 1 --seconds 25

Builds the Release configuration of the csTuner sources one directory up
(into .bench_build/), runs one workload, checks every output, prints each
metric with its unit and sample count, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 is the separate traced run and reports the
per-layer metrics. Exits nonzero when the build or any output check fails.
Workloads, metric definitions and reasoning are in perfbench/NOTES.md.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "cstuner-release"
WORK_DIR = ROOT / ".bench_build" / "work"
PERFBENCH = BUILD_DIR / "perfbench"
CSTUNER = BUILD_DIR / "cstuner"

THREADS = 3                # CSTUNER_THREADS, pinned (nproc - 1 on 4 vCPUs)
COLD_STARTS = 15           # set-up samples per run; setup_s is their median
STENCILS = ["j3d7pt", "j3d27pt", "helmholtz", "cheby",
            "hypterm", "addsgd4", "addsgd6", "rhs4center"]
OPTIMIZERS = ["anneal", "artemis", "de", "garvey", "hill", "island-ga",
              "opentuner-de", "opentuner-ga", "pso", "random", "spread",
              "surrogate"]
ZOO_BUDGET_S = 300.0       # virtual seconds per zoo session
ZOO_MAX_ITERATIONS = 5000  # hang guard; completing sessions stay <= 1000
SERVE_RATE = 8.0           # open-loop arrivals per second
SERVE_TENANTS = ["t0", "t1", "t2", "t3"]
SERVE_CLASSES = ["opentuner", "garvey", "artemis", "analyze"]
SERVE_DRAIN_S = 60.0       # wait for sessions still open after the schedule
MIN_TAIL = 10              # samples a percentile needs beyond it
WORKLOADS = ["tune-suite", "zoo-search", "serve-mix"]

# End-to-end metrics in the JSON result, gated by BENCHMARK.json. Session-time
# statistics (geomean, p50, p90) and tuned-result quality are printed in the
# table but not gated; NOTES.md gives the measured reasons.
END_TO_END = {
    "sessions_per_s": "1/s",
    "evals_per_s": "1/s",
    "completed_share": "share",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

SPACE_LAYER = {
    "analysis.propagate_s": "s", "space.universe_build_s": "s",
    "space.spread_sample_s": "s", "space.spread_sample_serial_s": "s",
    "analysis.prune_s": "s", "space.valid_count": "count",
    "space.universe_settings": "count",
    "tuner.dataset_s": "s", "core.grouping_s": "s", "core.sampling_s": "s",
    "core.search_s": "s",
}
SEARCH_METRICS = {"bind_s": "s", "propose_s": "s", "observe_s": "s",
                  "steps": "count", "duplicate_share": "share",
                  "stalled": "count"}
LAYERS = ["space", "analysis", "tuner", "core", "search", "serve", "io"]


def per_layer_units():
    units = dict(SPACE_LAYER)
    units.update({f"search.{m}": u for m, u in SEARCH_METRICS.items()})
    units["search.proposals"] = "count"
    for opt in OPTIMIZERS:
        units.update({f"search.{opt}.{m}": u
                      for m, u in SEARCH_METRICS.items()})
    units.update({"tuner.evaluate_s": "s", "tuner.unique_evals": "count",
                  "gpusim.profile_ns": "ns",
                  "serve.ack_s": "s", "serve.queue_wait_s": "s",
                  "serve.run_s": "s", "io.fsyncs": "count", "io.fsync_s": "s",
                  "io.bytes_written": "bytes",
                  "trace.overhead_share": "share"})
    units.update({f"layer_share.{layer}": "share" for layer in LAYERS})
    return units


PER_LAYER = per_layer_units()


class BenchError(Exception):
    """The benchmark could not run (build or harness failure)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    env = dict(os.environ)
    env["CSTUNER_THREADS"] = str(THREADS)
    return env


# --- build -----------------------------------------------------------------

def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"csTuner sources not found under {ROOT}")
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", str(BUILD_DIR), "-j", "4",
                "--target", "perfbench", "cstuner_cli"]
    for cmd in (configure, compile_):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))


# --- statistics ------------------------------------------------------------

def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values, q):
    """Nearest-rank percentile and its rank in the sorted values."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
    return ordered[rank], rank


def bits_of(x):
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def metric(value, unit, n, note=""):
    return {"value": value, "unit": unit, "n": n, "note": note}


# --- in-process workloads (tune-suite, zoo-search) -------------------------

def run_perfbench(args):
    proc = subprocess.run([str(PERFBENCH)] + [str(a) for a in args],
                          capture_output=True, text=True, env=child_env(),
                          timeout=600)
    if proc.returncode:
        raise BenchError(f"perfbench {args[0]} exited {proc.returncode}: "
                         + proc.stderr.strip()[-500:])
    return [json.loads(line) for line in proc.stdout.splitlines() if line]


def cold_start_inprocess(env):
    """Launch of `perfbench ready` until its ready line arrives. posix_spawn
    keeps the harness's own share of the figure small."""
    read_fd, write_fd = os.pipe()
    t0 = time.perf_counter()
    pid = os.posix_spawn(PERFBENCH, [str(PERFBENCH), "ready"], env,
                         file_actions=[(os.POSIX_SPAWN_DUP2, write_fd, 1),
                                       (os.POSIX_SPAWN_CLOSE, read_fd)])
    os.close(write_fd)
    line = os.read(read_fd, 4096)
    elapsed = time.perf_counter() - t0
    while os.read(read_fd, 4096):
        pass
    os.close(read_fd)
    _, status = os.waitpid(pid, 0)
    if status or b'"ready"' not in line:
        raise BenchError("perfbench ready failed")
    return elapsed


def suite_args(workload, seed, seconds, trace, extra=()):
    args = [workload, "--seed", seed, "--seconds", seconds,
            "--trace", 1 if trace else 0]
    if workload == "zoo-search":
        args += ["--budget", ZOO_BUDGET_S,
                 "--max-iterations", ZOO_MAX_ITERATIONS]
    return args + list(extra)


def split_records(records):
    sessions = [r for r in records if r["type"] == "session"]
    passes = [r for r in records if r["type"] == "pass"]
    end = next(r for r in records if r["type"] == "end")
    return sessions, passes, end


def pass_digest(sessions):
    """Digest of one pass's results; identical for every run of one seed."""
    h = hashlib.sha256()
    for s in sorted(sessions, key=lambda s: (s["stencil"], s["algo"])):
        h.update(json.dumps([s["stencil"], s["algo"], s["seed"], s["state"],
                             s["best_time_bits"], s["best_setting"],
                             s["evaluations"], s["iterations"],
                             s["virtual_time_bits"]]).encode())
    return h.hexdigest()[:16]


def completed(state):
    return state in ("done", "exhausted")


def check_sessions(sessions, checks):
    for s in sessions:
        ident = f'{s["stencil"]}/{s["algo"]}'
        checks.append((f"{ident} ran", s["state"] != "failed",
                       s.get("error", "")))
        best = struct.unpack("<d", struct.pack("<Q", s["best_time_bits"]))[0]
        checks.append((f"{ident} best setting valid and finite",
                       s["valid"] and math.isfinite(best) and best > 0, ""))


def fidelity(sessions, workload, seed, checks):
    """Re-runs a seeded sample of sessions through `cstuner tune --json` and
    compares best-time bits and evaluation counts."""
    rng = random.Random(f"fidelity-{seed}")
    pool = [s for s in sessions if s["pass"] == 0 and completed(s["state"])]
    if workload == "tune-suite":
        picks = [rng.choice(pool)]
    else:
        by_algo = {}
        for s in pool:
            by_algo.setdefault(s["algo"], []).append(s)
        algos = rng.sample(sorted(by_algo), 2)
        picks = [rng.choice(by_algo[a]) for a in algos]
    for s in picks:
        cmd = [str(CSTUNER), "tune", s["stencil"], "--seed", str(s["seed"]),
               "--json"]
        if workload == "zoo-search":
            cmd += ["--optimizer", s["algo"], "--budget", str(ZOO_BUDGET_S)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=child_env(), timeout=120)
        ok = proc.returncode == 0
        note = ""
        if ok:
            cli = json.loads(proc.stdout)
            ok = (bits_of(cli["best_time_ms"]) == s["best_time_bits"]
                  and cli["evaluations"] == s["evaluations"])
            note = (f'cli {cli["best_time_ms"]!r}/{cli["evaluations"]} vs '
                    f'bench {s["best_time_ms"]!r}/{s["evaluations"]}')
        checks.append((f'fidelity {s["stencil"]}/{s["algo"]} seed {s["seed"]}',
                       ok, note))


def session_time_metrics(times, classes, note):
    """Printed (ungated) session-time statistics with where each percentile
    lands among the session classes."""
    p50, _, p50_note = landing(times, classes, 0.5)
    p90, beyond, p90_note = landing(times, classes, 0.9)
    if beyond < MIN_TAIL:
        p90, p90_note = None, f"not reported: {p90_note}"
    return {
        "session_s_geomean": metric(geomean(times), "s", len(times), note),
        "session_s_p50": metric(p50, "s", len(times), p50_note),
        "session_s_p90": metric(p90, "s", len(times), p90_note),
    }


def run_inprocess(workload, seed, seconds, checks, info):
    env = child_env()
    setups = [cold_start_inprocess(env) for _ in range(COLD_STARTS)]
    sessions, passes, end = split_records(
        run_perfbench(suite_args(workload, seed, seconds, False)))
    check_sessions(sessions, checks)
    digests = {pass_digest([s for s in sessions if s["pass"] == p["pass"]])
               for p in passes}
    checks.append(("every pass gives the same result digest",
                   len(digests) == 1, " ".join(sorted(digests))))
    fidelity(sessions, workload, seed, checks)
    info.update(digest=min(digests), passes=len(passes), threads=end["threads"])
    info["stalled"] = sorted(f'{s["stencil"]}/{s["algo"]}' for s in sessions
                             if s["pass"] == 0 and s["state"] == "stalled")

    wall = sum(p["wall_s"] for p in passes)
    n = len(sessions)
    done = [s for s in sessions if completed(s["state"])]
    first = [s for s in sessions if s["pass"] == 0]
    # A class is what sets a session's cost: its stencil in tune-suite, its
    # optimizer in zoo-search.
    classes = [s["stencil"] if workload == "tune-suite" else s["algo"]
               for s in sessions]
    metrics = {
        "sessions_per_s": metric(len(done) / wall, "1/s", len(done),
                                 f"over {wall:.2f} s of passes"),
        "evals_per_s": metric(sum(s["evaluations"] for s in sessions) / wall,
                              "1/s", n, "unique evaluations"),
        "completed_share": metric(len(done) / n, "share", n,
                                  "done or exhausted"),
        "peak_rss_mb": metric(end["peak_rss_mb"], "MB", 1, "benchmark process"),
        "setup_s": metric(statistics.median(setups), "s", len(setups),
                          "median of cold starts"),
    }
    metrics.update(session_time_metrics(
        [s["wall_s"] for s in sessions], classes, "per-session wall time"))
    metrics["best_ms_geomean"] = metric(
        geomean([s["best_time_ms"] for s in first]), "ms", len(first),
        "one pass; a function of the seed")
    failed = sum(1 for s in sessions if s["state"] == "failed")
    return metrics, n, failed


# --- serve-mix -------------------------------------------------------------

class Conn:
    """One line-delimited JSON connection to the daemon."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.reader = self.sock.makefile("rb")

    def call(self, request):
        self.sock.sendall((json.dumps(request) + "\n").encode())
        line = self.reader.readline()
        if not line:
            raise BenchError("daemon closed the connection")
        return json.loads(line)

    def close(self):
        self.reader.close()
        self.sock.close()


class Daemon:
    """A daemon process on its own state directory; `traced` hosts it
    in-process in perfbench behind the timing filesystem."""

    def __init__(self, state_dir, traced=False):
        port_file = Path(str(state_dir) + ".port")
        if port_file.exists():
            port_file.unlink()
        # Start from clean writeback: the daemon's first fsyncs would
        # otherwise also flush whatever the harness wrote just before.
        os.sync()
        cmd = ([str(PERFBENCH), "serve-traced"] if traced
               else [str(CSTUNER), "serve"])
        cmd += ["--state-dir", str(state_dir), "--port-file", str(port_file)]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, env=child_env(),
                                     text=True)
        try:
            while not port_file.exists():
                if self.proc.poll() is not None:
                    raise BenchError("daemon exited during start-up")
                if time.perf_counter() - t0 > 60:
                    raise BenchError("daemon did not publish its port")
                time.sleep(0.0005)
            self.conn = Conn(int(port_file.read_text().strip()))
            self.port = self.conn.sock.getpeername()[1]
            stats = self.conn.call({"op": "stats"})
            self.setup_s = time.perf_counter() - t0
            if stats.get("type") != "stats":
                raise BenchError(f"unexpected stats reply {stats}")
        except BaseException:
            self.kill()
            raise

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for daemon")

    def shutdown(self):
        """Graceful drain; returns the daemon's stdout lines."""
        try:
            self.conn.call({"op": "shutdown"})
            self.conn.close()
            out, _ = self.proc.communicate(timeout=90)
        except BaseException:
            self.kill()
            raise
        if self.proc.returncode:
            raise BenchError(f"daemon exited {self.proc.returncode}")
        return [json.loads(x) for x in out.splitlines() if x.startswith("{")]

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def make_template(path):
    """Pre-populated state directory every serve run starts from: one
    finished opentuner session per stencil, so the warm store holds one
    entry per stencil and recovery scans finished sessions."""
    shutil.rmtree(path, ignore_errors=True)
    daemon = Daemon(path)
    try:
        ids = []
        for i, stencil in enumerate(STENCILS):
            reply = daemon.conn.call({"op": "submit", "kind": "tune",
                                      "stencil": stencil, "method": "opentuner",
                                      "tenant": "warm", "seed": i + 1,
                                      "budget_s": 60})
            if reply.get("type") != "accepted":
                raise BenchError(f"template submit rejected: {reply}")
            ids.append(reply["id"])
        for sid in ids:
            reply = daemon.conn.call({"op": "result", "id": sid,
                                      "timeout_s": 120})
            if reply.get("state") != "done":
                raise BenchError(f"template session failed: {reply}")
    except BaseException:
        daemon.kill()
        raise
    daemon.shutdown()


def fresh_state(template, name):
    dst = WORK_DIR / name
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(template, dst)
    return dst


def serve_schedule(seed, seconds):
    """Open-loop Poisson schedule. Every (class, stencil) pair appears equally
    often, in seeded order, so the class mix (and with it where each
    percentile lands) is the same for every seed. The count is a whole
    number of such rounds near rate x seconds; conditional on their count,
    Poisson arrival times are uniform over the window."""
    rng = random.Random(f"serve-{seed}")
    combos = [(cls, st) for cls in SERVE_CLASSES for st in STENCILS]
    rounds = max(1, round(SERVE_RATE * seconds / len(combos)))
    mix = combos * rounds
    rng.shuffle(mix)
    window = len(mix) / SERVE_RATE
    schedule = []
    for due, (cls, stencil) in zip(
            sorted(rng.uniform(0, window) for _ in mix), mix):
        request = {"op": "submit", "stencil": stencil,
                   "tenant": rng.choice(SERVE_TENANTS),
                   "seed": rng.randrange(1, 2**31)}
        if cls == "analyze":
            request["kind"] = "analyze"
        else:
            request.update(kind="tune", method=cls, budget_s=60)
        schedule.append({"due": due, "cls": cls, "request": request})
    return schedule


TERMINAL = {"done", "failed", "cancelled", "expired", "interrupted"}


def drive_serve(daemon, schedule):
    """Feeds the schedule from one generator thread and tracks sessions from
    one poller thread, each on its own connection. Fills each schedule item
    with sent/ack/running/finish times relative to the start and the
    session's result."""
    poll_conn = Conn(daemon.port)
    lock = threading.Lock()
    open_items = {}
    generator_done = threading.Event()
    errors = []
    start = time.perf_counter()

    def now():
        return time.perf_counter() - start

    def generate():
        try:
            for item in schedule:
                delay = item["due"] - now()
                if delay > 0:
                    time.sleep(delay)
                item["sent"] = now()
                reply = daemon.conn.call(item["request"])
                item["ack"] = now()
                item["reply"] = reply.get("type")
                if reply.get("type") == "accepted":
                    with lock:
                        open_items[reply["id"]] = item
        except Exception as exc:  # reported as a failed check
            errors.append(repr(exc))
        finally:
            generator_done.set()

    gen = threading.Thread(target=generate)
    gen.start()
    deadline = None
    try:
        while True:
            with lock:
                pending = list(open_items.items())
            if not pending and generator_done.is_set():
                break
            if generator_done.is_set():
                deadline = deadline or now() + SERVE_DRAIN_S
                if now() > deadline:
                    break
            for sid, item in pending:
                status = poll_conn.call({"op": "status", "id": sid})
                state = status.get("state")
                t = now()
                if state == "running" and "running" not in item:
                    item["running"] = t
                if state in TERMINAL:
                    item.setdefault("running", t)
                    item["finish"] = t
                    item["state"] = state
                    item["result"] = status.get("result", {})
                    with lock:
                        del open_items[sid]
            time.sleep(0.001)
    finally:
        gen.join()
        poll_conn.close()
    if errors:
        raise BenchError("generator failed: " + errors[0])


def check_serve(schedule, checks):
    rows = []
    for item in schedule:
        if item.get("state") != "done":
            continue
        result = item["result"]
        ident = f'{item["request"]["stencil"]}/{item["cls"]}'
        if item["cls"] == "analyze":
            checks.append((f"{ident} analyze clean",
                           result.get("lint_errors") == 0, ""))
            continue
        best = struct.unpack("<d", struct.pack(
            "<Q", int(result["best_time_bits"])))[0]
        checks.append((f"{ident} best finite", math.isfinite(best) and best > 0,
                       ""))
        rows.append(f'{item["request"]["stencil"]}\t{result["best_setting"]}')
    if rows:
        proc = subprocess.run([str(PERFBENCH), "check-settings"],
                              input="\n".join(rows) + "\n", capture_output=True,
                              text=True, env=child_env(), timeout=120)
        verdicts = proc.stdout.split()
        checks.append(("every tuned best setting passes the constraint checker",
                       proc.returncode == 0 and len(verdicts) == len(rows)
                       and all(v == "1" for v in verdicts),
                       f"{verdicts.count('1')}/{len(rows)} valid"))


def landing(times, classes, q):
    """A percentile of `times` and where it lands: the classes of the
    MIN_TAIL samples on each side of it. It sits on a class boundary when the
    most common class below differs from the most common class above."""
    order = sorted(range(len(times)), key=lambda i: times[i])
    value, rank = percentile(times, q)
    below = [classes[i] for i in order[max(0, rank - MIN_TAIL):rank]]
    above = [classes[i] for i in order[rank + 1:rank + 1 + MIN_TAIL]]

    def top(side):
        if not side:
            return "-", 0.0
        cls = max(set(side), key=side.count)
        return cls, side.count(cls) / len(side)

    (lo, lo_share), (hi, hi_share) = top(below), top(above)
    beyond = len(times) - 1 - rank
    where = "on a class boundary" if lo != hi else "inside a class"
    note = (f"{where}: at {classes[order[rank]]}; below {lo} {lo_share:.0%}, "
            f"above {hi} {hi_share:.0%}; {beyond} samples beyond")
    return value, beyond, note


def serve_metrics(schedule, setups, rss):
    done = [i for i in schedule if i.get("state") == "done"]
    wall = max(i["finish"] for i in done) - schedule[0]["due"]
    evals = sum(int(i["result"].get("evaluations", 0)) for i in done
                if i["cls"] != "analyze")
    late = [i["sent"] - i["due"] for i in schedule if "sent" in i]
    metrics = {
        "sessions_per_s": metric(len(done) / wall, "1/s", len(done),
                                 f"over {wall:.2f} s from first due time"),
        "evals_per_s": metric(evals / wall, "1/s", len(done),
                              "tune sessions' unique evaluations"),
        "completed_share": metric(len(done) / len(schedule), "share",
                                  len(schedule), "done"),
        "peak_rss_mb": metric(rss, "MB", 1, "daemon process"),
        "setup_s": metric(statistics.median(setups), "s", len(setups),
                          "median daemon cold start to first stats reply"),
    }
    metrics.update(session_time_metrics(
        [i["finish"] - i["due"] for i in done], [i["cls"] for i in done],
        "due time to result"))
    metrics["generator_late_s_p50"] = metric(
        statistics.median(late), "s", len(late), "send time minus due time")
    metrics["generator_late_s_max"] = metric(max(late), "s", len(late), "")
    return metrics


def serve_session_run(template, seed, seconds, traced, name):
    """One daemon on a fresh copy of the template, fed the seeded schedule.
    Returns (schedule, daemon peak RSS, daemon stdout records)."""
    schedule = serve_schedule(seed, seconds)
    daemon = Daemon(fresh_state(template, name), traced=traced)
    try:
        drive_serve(daemon, schedule)
        rss = daemon.peak_rss_mb()
    except BaseException:
        daemon.kill()
        raise
    return schedule, rss, daemon.shutdown()


def run_serve(seed, seconds, checks, info):
    template = WORK_DIR / "serve-template"
    make_template(template)
    setups = []
    for state in [fresh_state(template, f"cold-{i}")
                  for i in range(COLD_STARTS)]:
        daemon = Daemon(state)
        setups.append(daemon.setup_s)
        daemon.shutdown()
    schedule, rss, _ = serve_session_run(template, seed, seconds, False, "run")
    check_serve(schedule, checks)
    info.update(threads=THREADS, state_fs=filesystem_of(WORK_DIR))
    info["rejected"] = sum(1 for i in schedule if i.get("reply") != "accepted")
    info["still_open"] = sum(1 for i in schedule if i.get("reply") == "accepted"
                             and "state" not in i)
    return serve_metrics(schedule, setups, rss), len(schedule), \
        serve_failed(schedule)


def filesystem_of(path):
    best, fstype = "", "unknown"
    with open("/proc/mounts") as mounts:
        for line in mounts:
            fields = line.split()
            mount = fields[1]
            if str(path).startswith(mount) and len(mount) > len(best):
                best, fstype = mount, fields[2]
    return fstype


# --- traced run --------------------------------------------------------------

def mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def tune_layer_metrics(sessions, serial_stencil):
    out = {}
    for name, unit in SPACE_LAYER.items():
        if name == "space.spread_sample_serial_s":
            value = next(s["spans"][name] for s in sessions
                         if s["stencil"] == serial_stencil)
            out[name] = metric(value, unit, 1, f"on {serial_stencil}")
        else:
            out[name] = metric(mean(s["spans"][name] for s in sessions), unit,
                               len(sessions), "mean per session")
    return out


def search_layer_metrics(sessions):
    out = {}

    def fill(prefix, group):
        spans = [s["spans"] for s in group]
        n = len(group)
        for m in ("bind_s", "propose_s", "observe_s", "steps"):
            out[f"{prefix}.{m}"] = metric(
                mean(sp.get(f"search.{m}", 0.0) for sp in spans),
                SEARCH_METRICS[m], n, "mean per session")
        proposals = sum(sp.get("search.proposals", 0.0) for sp in spans)
        uniques = sum(s["evaluations"] for s in group)
        out[f"{prefix}.duplicate_share"] = metric(
            1 - uniques / proposals if proposals else 0.0, "share", n,
            "1 - unique evaluations / proposals")
        out[f"{prefix}.stalled"] = metric(
            sum(1 for s in group if s["state"] == "stalled"), "count", n,
            "sessions the iteration guard stopped")
        return proposals

    proposals = fill("search", sessions)
    n = len(sessions)
    out["search.proposals"] = metric(proposals / n, "count", n,
                                     "mean per session")
    for opt in OPTIMIZERS:
        fill(f"search.{opt}", [s for s in sessions if s["algo"] == opt])
    out["tuner.evaluate_s"] = metric(
        mean(s["spans"]["tuner.evaluate_s"] for s in sessions), "s", n,
        "run_optimizer wall minus the optimizer's own calls")
    out["tuner.unique_evals"] = metric(mean(s["evaluations"] for s in sessions),
                                       "count", n, "mean per session")
    return out


def serve_layer_metrics(schedule, io):
    done = [i for i in schedule if i.get("state") == "done"]
    accepted = sum(1 for i in schedule if i.get("reply") == "accepted")
    n = len(done)
    return {
        "serve.ack_s": metric(mean(i["ack"] - i["sent"] for i in done), "s",
                              n, "mean, submit sent to reply"),
        "serve.queue_wait_s": metric(
            mean(i["running"] - i["ack"] for i in done), "s", n,
            "mean, reply to first status seen running"),
        "serve.run_s": metric(mean(i["finish"] - i["running"] for i in done),
                              "s", n, "mean, running to resting"),
        "io.fsyncs": metric(io["fsyncs"] / accepted, "count", accepted,
                            "per accepted session, files and directories"),
        "io.fsync_s": metric(io["fsync_s"] / accepted, "s", accepted,
                             "per accepted session"),
        "io.bytes_written": metric(io["bytes_written"] / accepted, "bytes",
                                   accepted, "per accepted session"),
    }


def layer_shares(workload, sessions, io):
    """Share of the traced sessions' wall time spent in each layer's calls."""
    shares = dict.fromkeys(LAYERS, 0.0)
    if workload == "serve-mix":
        done = [i for i in sessions if i.get("state") == "done"]
        total = sum(i["finish"] - i["due"] for i in done)
        shares["serve"] = sum(i["running"] - i["due"] for i in done) / total
        shares["tuner"] = sum(i["finish"] - i["running"] for i in done) / total
        shares["io"] = io["fsync_s"] / total
        return shares
    total = sum(s["wall_s"] for s in sessions)
    groups = {
        "space": ["space.universe_build_s", "space.spread_sample_s"],
        "analysis": ["analysis.propagate_s", "analysis.prune_s"],
        "tuner": ["tuner.dataset_s", "tuner.evaluate_s"],
        "core": ["core.grouping_s", "core.sampling_s", "core.search_s"],
        "search": ["search.bind_s", "search.propose_s", "search.observe_s"],
    }
    for layer, names in groups.items():
        shares[layer] = sum(s["spans"].get(n, 0.0) for s in sessions
                            for n in names) / total
    return shares


def traced_tune(seed, stencils):
    serial = random.Random(f"serial-{seed}").choice(stencils)
    sessions, _, _ = split_records(run_perfbench(
        suite_args("tune-suite", seed, 0, True,
                   ["--stencils", ",".join(stencils),
                    "--serial-stencil", serial])))
    return sessions, serial


def traced_zoo(seed, stencils):
    sessions, _, _ = split_records(run_perfbench(
        suite_args("zoo-search", seed, 0, True,
                   ["--stencils", ",".join(stencils)])))
    return sessions


def traced_serve(template, seed, seconds, name):
    schedule, _, records = serve_session_run(template, seed, seconds, True,
                                             name)
    return schedule, next(r for r in records if r["type"] == "io")


def serve_failed(schedule):
    """Rejected, failed and never-finished sessions."""
    return sum(1 for i in schedule if i.get("state") != "done")


def run_traced(workload, seed, seconds, checks, info):
    """Times each layer's public calls from the benchmark's own code. The
    workload's own sessions run once untraced and once traced (their ratio
    is the tracing overhead); the other layers are probed on one
    seed-chosen stencil or a short serve schedule, so every per-layer metric
    is measured on every workload."""
    probe = [random.Random(f"probe-{seed}").choice(STENCILS)]
    template = WORK_DIR / "serve-template"
    make_template(template)
    tune_sessions = zoo_sessions = serve_sessions = io = None
    if workload == "serve-mix":
        untraced, _, _ = serve_session_run(template, seed, seconds, False,
                                           "run")
        check_serve(untraced, checks)
        serve_sessions, io = traced_serve(template, seed, seconds, "traced")
        own = serve_sessions
        base = [i["finish"] - i["due"] for i in untraced
                if i.get("state") == "done"]
        traced_times = [i["finish"] - i["due"] for i in own
                        if i.get("state") == "done"]
        failed = serve_failed(own)
    else:
        base_sessions, _, _ = split_records(
            run_perfbench(suite_args(workload, seed, 0, False)))
        if workload == "tune-suite":
            tune_sessions, serial = traced_tune(seed, STENCILS)
            own = tune_sessions
        else:
            zoo_sessions = own = traced_zoo(seed, STENCILS)
            # The decorator only forwards: results must not change.
            checks.append(("traced zoo results equal untraced",
                           pass_digest(own) == pass_digest(base_sessions), ""))
        base = [s["wall_s"] for s in base_sessions]
        traced_times = [s["wall_s"] for s in own]
        failed = sum(1 for s in own if s["state"] == "failed")
    if tune_sessions is None:
        tune_sessions, serial = traced_tune(seed, probe)
    if zoo_sessions is None:
        zoo_sessions = traced_zoo(seed, probe)
    if serve_sessions is None:
        serve_sessions, io = traced_serve(template, seed, 4.0, "probe")
    check_sessions(tune_sessions + zoo_sessions, checks)
    check_serve(serve_sessions, checks)
    metrics = tune_layer_metrics(tune_sessions, serial)
    metrics.update(search_layer_metrics(zoo_sessions))
    metrics.update(serve_layer_metrics(serve_sessions, io))
    profile = run_perfbench(["profile", "--seed", seed])[0]
    checks.append(("gpusim profile probe finite", profile["finite"], ""))
    metrics["gpusim.profile_ns"] = metric(
        profile["ns_per_setting"], "ns", profile["repeats"],
        "median over repeats of profile_times per setting")
    metrics["trace.overhead_share"] = metric(
        geomean(traced_times) / geomean(base) - 1, "share", len(traced_times),
        "traced / untraced session geomean - 1")
    shares = layer_shares(workload, own, io)
    metrics.update({f"layer_share.{k}": metric(v, "share", len(own),
                                               f"of {workload} session time")
                    for k, v in shares.items()})
    info["largest_layer"] = max(shares, key=shares.get)
    info["overhead"] = (f"traced session geomean {geomean(traced_times):.4f} s"
                        f" vs untraced {geomean(base):.4f} s "
                        f"({len(traced_times)}/{len(base)} sessions)")
    return {k: metrics[k] for k in PER_LAYER}, len(own), failed


# --- main ------------------------------------------------------------------

def print_report(workload, metrics, info, checks, gated):
    print(f"workload {workload}: CSTUNER_THREADS={THREADS} "
          f"nproc={os.cpu_count()} build=Release")
    for key in ("digest", "passes", "state_fs", "rejected", "still_open",
                "largest_layer", "overhead"):
        if key in info:
            print(f"  {key}: {info[key]}")
    if "stalled" in info:
        print(f"  stalled ({len(info['stalled'])}): "
              + (", ".join(info["stalled"]) or "none"))
    for name, m in metrics.items():
        value = "n/a" if m["value"] is None else f'{m["value"]:.6g}'
        tag = "" if name in gated else "(not gated) "
        print(f"  {name:34s} {value:>12s} {m['unit']:6s} n={m['n']:<5d} "
              f"{tag}{m['note']}")
    bad = [c for c in checks if not c[1]]
    print(f"  checks: {len(checks) - len(bad)}/{len(checks)} passed")
    for name, _, note in bad:
        print(f"  FAILED: {name} {note}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expect-digest", default=None,
                        help="fail unless the result digest equals this")
    args = parser.parse_args()

    checks, info = [], {}
    try:
        build()
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        if args.trace:
            metrics, attempted, failed = run_traced(
                args.workload, args.seed, args.seconds, checks, info)
        elif args.workload == "serve-mix":
            metrics, attempted, failed = run_serve(
                args.seed, args.seconds, checks, info)
        else:
            metrics, attempted, failed = run_inprocess(
                args.workload, args.seed, args.seconds, checks, info)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        log(f"benchmark error: {exc}")
        return 2
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    if args.expect_digest is not None:
        checks.append(("digest matches --expect-digest",
                       info.get("digest") == args.expect_digest,
                       f'{info.get("digest")} vs {args.expect_digest}'))

    gated = PER_LAYER if args.trace else END_TO_END
    print_report(args.workload, metrics, info, checks, gated)
    correct = all(ok for _, ok, _ in checks)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k]["value"], "unit": unit}
                          for k, unit in gated.items()}}
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
