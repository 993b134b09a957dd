#!/usr/bin/env python3
"""The amjs benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload fairstart|window7|svc-mixed \
        --seed 2012 --seconds 30 --trace 0|1

Run from the root of a source checkout. The first run builds the amjs
libraries, the sched_server binary and the harness into .bench_build/.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics. perfbench/README.md maps
each metric to its layer and workload. The command exits non-zero when
an output check fails.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
OUT = os.path.join(BUILD, "out")
HARNESS = os.path.join(CMAKE_DIR, "perfbench_harness")
SERVER = os.path.join(CMAKE_DIR, "sched_server")
DIGESTS = os.path.join(HERE, "digests.json")

WORKLOADS = ("fairstart", "window7", "svc-mixed")

# The svc-mixed server's resident dataset is a fixed recipe, like its
# machine model: the workload seed drives the request stream, not the
# server's world, so the per-request cost does not swing with the seed.
# The harness rebuilds the same recipe in process to check every reply.
SVC_NODES = "512"
SVC_DATASET = {"seed": "2012", "days": "2", "rate": "6.0", "snapshot-check": "8"}
# What-if fan-out is one thread, so the harness's two client connections
# and the server's two connection threads fit 4 cores. The load shape is
# fixed in svc_load.cpp.
SVC_SERVER_FLAGS = (["--threads", "1", "--max-inflight", "2", "--max-queue", "8",
                     "--machine", "flat:" + SVC_NODES, "--log-level", "error"] +
                    [f for k, v in SVC_DATASET.items() for f in (f"--{k}", v)])
SVC_SETUP_SPAWNS = 5
# Server and client threads on disjoint cores, the same ones every run, so
# run-to-run latency does not depend on where the kernel placed them.
SVC_SERVER_CPUS = {0, 1}
SVC_CLIENT_CPUS = {2, 3}

TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)


class BenchError(Exception):
    """A failure that must end the run without a result line."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# --- statistics -----------------------------------------------------------


def percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def summarize(samples):
    """Median plus the highest percentile (at most p99) that has at least
    ten samples beyond it, with the sample count.

    Returns {"n", "p50", "tail_pct", "tail"}; tail_pct is None when there
    are too few samples for any percentile to have ten beyond it."""
    values = sorted(samples)
    n = len(values)
    out = {"n": n, "p50": percentile(values, 50.0), "tail_pct": None,
           "tail": None}
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= 10:
            out["tail_pct"] = pct
            out["tail"] = values[rank - 1]
            break
    return out


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


# --- build ----------------------------------------------------------------


def build():
    for needed in ("src/CMakeLists.txt", "examples/sched_server.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            raise BenchError(f"no amjs sources here: {needed} is missing")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", CMAKE_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_build_step(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    run_build_step(["cmake", "--build", CMAKE_DIR, "-j", jobs, "--target",
                    "perfbench_harness", "sched_server"])


def run_build_step(command):
    done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT, timeout=850)
    if done.returncode != 0:
        raise BenchError("build step failed: " + " ".join(command))


# --- processes ------------------------------------------------------------


def pin_to(cpus):
    """preexec_fn pinning the child to `cpus` when the machine has them."""
    if not hasattr(os, "sched_setaffinity") or \
            not cpus <= os.sched_getaffinity(0):
        return None
    return lambda: os.sched_setaffinity(0, cpus)


def run_harness(args, timeout, cpus=None):
    done = subprocess.run([HARNESS] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, cwd=ROOT, timeout=timeout,
                          text=True, preexec_fn=pin_to(cpus) if cpus else None)
    if done.returncode != 0:
        raise BenchError(f"harness exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError("harness printed nothing")
    return json.loads(lines[-1])


class Server:
    """One sched_server process: spawned, timed to ready, always reaped."""

    def __init__(self, tag, stats_path=None):
        self.ready_file = os.path.join(OUT, f"ready-{os.getpid()}-{tag}")
        if os.path.exists(self.ready_file):
            os.remove(self.ready_file)
        command = [SERVER, "--listen", "tcp:127.0.0.1:0", "--ready-file",
                   self.ready_file] + SVC_SERVER_FLAGS
        if stats_path:
            command += ["--obs-stats", stats_path]
        start = time.perf_counter()
        self.proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.DEVNULL,
                                     stderr=sys.stderr,
                                     preexec_fn=pin_to(SVC_SERVER_CPUS))
        deadline = start + 60.0
        while True:
            if os.path.exists(self.ready_file):
                with open(self.ready_file) as f:
                    text = f.read()
                if text.endswith("\n"):  # written whole, newline last
                    endpoint = text.strip()
                    break
            if self.proc.poll() is not None:
                raise BenchError(f"sched_server exited {self.proc.returncode}")
            if time.perf_counter() > deadline:
                self.stop()
                raise BenchError("sched_server never became ready")
            time.sleep(0.0005)
        self.setup_s = time.perf_counter() - start
        self.endpoint = endpoint

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for sched_server")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if os.path.exists(self.ready_file):
            os.remove(self.ready_file)


# --- workloads ------------------------------------------------------------


def spans_path(workload, seed):
    path = os.path.join(OUT, f"spans-{workload}-{seed}.jsonl")
    if os.path.exists(path):
        os.remove(path)
    return path


def verify_digests(workload, seed, rows, digests_path):
    """Pinned SimResult and fair_start digests for the seeds that have
    them; returns the number of mismatches."""
    with open(digests_path) as f:
        pinned = json.load(f).get(str(seed), {}).get(workload)
    if pinned is None:
        return 0
    mismatches = 0
    got = {row["name"]: row for row in rows}
    for name, want in pinned.items():
        row = got.get(name)
        if row is None or row["result_digest"] != want["result"] or \
                row["fair_start_digest"] != want["fair_start"]:
            log(f"digest mismatch: {workload} seed {seed} row {name}")
            mismatches += 1
    if set(got) != set(pinned):
        log(f"digest rows differ: {sorted(got)} vs {sorted(pinned)}")
        mismatches += 1
    return mismatches


def batch_workload(args):
    spans = spans_path(args.workload, args.seed)
    raw = run_harness(["batch", "--workload", args.workload, "--seed",
                       str(args.seed), "--seconds", str(args.seconds),
                       "--trace", "1" if args.trace else "0", "--spans", spans],
                      timeout=170)
    failed = int(raw["failed_ops"]) + verify_digests(
        args.workload, args.seed, raw["rows"], args.digests)
    for message in raw["checks"]["messages"]:
        log("check failed: " + message)
    failed += 0 if raw["checks"]["failed"] == 0 else 1
    result = {"attempted": int(raw["ops"]), "failed": failed}

    setup_s = statistics.median(raw["setup_ms"]) / 1000.0
    if not args.trace:
        result["metrics"] = {
            "setup_s": setup_s,
            "run_s": raw["run_ms"] / 1000.0,
            "peak_rss_mb": raw["rss_mb"],
        }
        return result

    traced = raw["traced"]
    timers = traced["registry"]["timers"]
    counters = traced["registry"]["counters"]
    run_ms = traced["run_ms"]
    passes, pass_total_ms = timer(timers, "sim.sched_pass")[:2]
    decides, decide_ms, _, decide_p95 = timer(timers, "core.window_decide")
    permutations = counters.get("core.permutations", 0)
    layers = idle_layers()
    layers.update({
        "workload.build_ms": setup_s * 1000.0,
        "workload.jobs": raw["jobs"],
        "sim.run_ms": traced["sim_ms"],
        "sim.sched_pass_ms": pass_total_ms,
        "sim.sched_passes": passes,
        "sim.loop_self_ms": traced["sim_ms"] - pass_total_ms,
        "fairness.evaluate_ms": traced["eval_ms"],
        "fairness.probes": traced["probes"],
        "fairness.probe_ms": ratio(traced["eval_ms"], traced["probes"]),
        "fairness.share": ratio(traced["eval_ms"], run_ms),
        "metrics.report_ms": traced["report_ms"],
        "core.window_decide_ms": decide_ms,
        "core.window_decide_p95_ms": decide_p95,
        "core.window_decides": decides,
        "core.permutations": permutations,
        "core.permutations_per_decide": ratio(permutations, decides),
        "trace.overhead_pct": 100.0 * ratio(run_ms - traced["untraced_run_ms"],
                                            traced["untraced_run_ms"]),
        "trace.pass_self_ms": traced["pass_self_ms"],
        "trace.spans": traced["spans"],
    })
    result["metrics"] = layers
    return result


def timer(timers, name):
    """(count, total_ms, p50_ms, p95_ms) of a registry timer, zeros if
    the layer never ran."""
    return tuple(timers.get(name, [0, 0.0, 0.0, 0.0]))


def idle_layers():
    """Every per-layer metric at zero: the value for a layer the workload
    does not exercise."""
    return {name: 0.0 for name in PER_LAYER}


def svc_harness_args(args, server, seconds, phases, trace, spans):
    return ["svc", "--endpoint", server.endpoint, "--server-pid",
            str(server.proc.pid), "--seed", str(args.seed),
            "--seconds", f"{seconds:.3f}", "--trace", "1" if trace else "0",
            "--phases", phases, "--spans", spans, "--dataset-nodes", SVC_NODES] + \
        [f for k, v in SVC_DATASET.items() for f in (f"--dataset-{k}", v)]


def svc_setup(args):
    """Spawn-to-ready of several servers (each builds its dataset); the
    last one stays up for the measured phases."""
    setups = []
    server = None
    for i in range(SVC_SETUP_SPAWNS):
        if server is not None:
            server.stop()
        server = Server(f"setup{i}")
        setups.append(server.setup_s)
    return server, setups


def ref_phase(raw):
    return next(p for p in raw["phases"] if p["name"] == "ref")


def max_rps(raw):
    best = 0.0
    for rung in raw["ladder"]:
        achieved = ratio(rung["ok"], rung["duration_ms"] / 1000.0)
        if rung["p99_ms"] > raw["latency_limit_ms"] or rung["ok"] != rung["attempted"] \
                or achieved < 0.95 * rung["offered_rps"]:
            break
        best = rung["offered_rps"]
    return best


def svc_workload(args):
    spans = spans_path(args.workload, args.seed)
    servers = []
    try:
        server, setups = svc_setup(args)
        servers.append(server)
        if not args.trace:
            raw = run_harness(svc_harness_args(args, server, args.seconds,
                                               "all", False, spans), timeout=170,
                              cpus=SVC_CLIENT_CPUS)
            rss = server.peak_rss_mb()
            server.stop()
            if min(raw["batch_cpu_ms"]) < 0:
                raise BenchError("cannot read the server's CPU time")
            # The server's CPU time per batch, not the batch's wall time:
            # on a shared machine the wall time of a ping-pong between two
            # processes follows how fast the host wakes idle cores, and
            # moved by 25% between runs where CPU time moved by 5%.
            metrics = {
                "setup_s": statistics.median(setups),
                "run_s": statistics.median(raw["batch_cpu_ms"]) / 1000.0,
                "peak_rss_mb": rss,
            }
            return svc_result(raw, metrics)

        # Traced: an untraced reference phase first (the overhead baseline),
        # then every phase against a server with its registry on.
        base = run_harness(svc_harness_args(args, server,
                                            0.3 * args.seconds, "ref", False, spans),
                           timeout=120, cpus=SVC_CLIENT_CPUS)
        server.stop()
        stats_path = os.path.join(OUT, f"server-stats-{os.getpid()}.json")
        traced_server = Server("traced", stats_path)
        servers.append(traced_server)
        raw = run_harness(svc_harness_args(args, traced_server,
                                           0.6 * args.seconds, "all", True, spans),
                          timeout=170, cpus=SVC_CLIENT_CPUS)
        traced_server.stop()
        if os.path.exists(stats_path):
            os.remove(stats_path)
        return svc_result(raw, svc_layers(raw, base, statistics.median(setups)))
    finally:
        for s in servers:
            s.stop()


def svc_result(raw, metrics):
    for message in raw["checks"]["messages"]:
        log("check failed: " + message)
    failed = int(raw["failed_ops"]) + (0 if raw["checks"]["failed"] == 0 else 1)
    return {"attempted": int(raw["ops"]), "failed": failed, "metrics": metrics}


def svc_layers(raw, base, setup_s):
    rtt = {}
    requests = 0
    busy = errors = wrong = 0
    for phase in raw["phases"]:
        for kind, values in phase["rtt_ms"].items():
            rtt.setdefault(kind, []).extend(values)
    for phase in raw["phases"] + raw["ladder"]:
        requests += phase["attempted"]
        busy += phase["busy"]
        errors += phase["errors"]
        wrong += phase["wrong"]
    timers = raw["registry"]["timers"]
    counters = raw["registry"]["counters"]
    ref = ref_phase(raw)
    latency = summarize(ref["lat_ms"])
    base_p50 = summarize(ref_phase(base)["lat_ms"])["p50"]
    request_count, request_total, _, request_p95 = timer(timers, "svc.request")
    all_rtt = [v for values in rtt.values() for v in values]
    forks, fork_total, _, fork_p95 = timer(timers, "twin.fork_replay")
    passes, pass_total = timer(timers, "sim.sched_pass")[:2]
    decides, decide_total, _, decide_p95 = timer(timers, "core.window_decide")
    permutations = counters.get("core.permutations", 0)

    layers = idle_layers()
    for kind in ("submit_job", "what_if", "trace_explain", "run_cell"):
        s = summarize(rtt.get(kind, []))
        layers[f"svc.{kind}_p50_ms"] = s["p50"]
        layers[f"svc.{kind}_p99_ms"] = s["tail"] or 0.0
    reloads = sorted(rtt.get("reload", []))
    layers.update({
        "workload.build_ms": setup_s * 1000.0,
        "sim.sched_pass_ms": pass_total,
        "sim.sched_passes": passes,
        "core.window_decide_ms": decide_total,
        "core.window_decide_p95_ms": decide_p95,
        "core.window_decides": decides,
        "core.permutations": permutations,
        "core.permutations_per_decide": ratio(permutations, decides),
        "twin.fork_replay_ms": fork_total,
        "twin.fork_replay_p95_ms": fork_p95,
        "twin.forks": counters.get("twin.forks", forks),
        "sim.snapshot_restore_ms": timer(timers, "sim.snapshot_restore")[1],
        "svc.reload_p50_ms": percentile(reloads, 50.0),
        "svc.reload_max_ms": reloads[-1] if reloads else 0.0,
        "svc.busy": busy,
        "svc.errors": errors,
        "svc.fail_ratio": ratio(busy + errors + wrong, requests),
        "svc.request_ms": ratio(request_total, request_count),
        "svc.request_p95_ms": request_p95,
        "svc.wire_ms": ratio(sum(all_rtt), len(all_rtt)) -
                       ratio(request_total, request_count),
        "load.offered_rps": ref["offered_rps"],
        "load.achieved_rps": ratio(ref["ok"], ref["duration_ms"] / 1000.0),
        "load.lag_p99_ms": summarize(ref["lag_ms"])["tail"] or 0.0,
        "load.max_rps": max_rps(raw),
        "load.p50_ms": latency["p50"],
        "load.p99_ms": latency["tail"] or 0.0,
        "load.samples": latency["n"],
        "trace.overhead_pct": 100.0 * ratio(latency["p50"] - base_p50, base_p50),
        "trace.spans": raw["spans"],
    })
    return layers


# --- main -----------------------------------------------------------------


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    return end_to_end, per_layer


END_TO_END, PER_LAYER = {}, {}


def main(argv):
    global END_TO_END, PER_LAYER
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digests", default=DIGESTS,
                        help="pinned output digests (JSON)")
    args = parser.parse_args(argv)
    args.trace = bool(args.trace)

    try:
        END_TO_END, PER_LAYER = load_benchmark()
        build()
        os.makedirs(OUT, exist_ok=True)
        if args.workload == "svc-mixed":
            result = svc_workload(args)
        else:
            result = batch_workload(args)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as error:
        log(f"perfbench: {error}")
        return 2

    units = PER_LAYER if args.trace else END_TO_END
    metrics = result["metrics"]
    if set(metrics) != set(units):
        log(f"perfbench: metric set differs from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(units))}")
        return 2
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
