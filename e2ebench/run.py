#!/usr/bin/env python3
"""End-to-end benchmark of secure Fig-4 prediction (see README.md).

    python3 e2ebench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the library, abnn2_server and the
harness into .bench_build/e2ebench, runs one workload and prints every
metric by name with its unit, a context line, and as the last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. Exits non-zero
without a result when the build or the run breaks.
"""
import argparse
import hashlib
import json
import math
import os
import signal
import socket
import statistics
import subprocess
import sys
import time

WORKLOADS = ("fig4-cold-b4", "serve-b1")
END_TO_END = ("setup_s", "latency_ms.p50", "latency_ms.p90", "offline_ms.p50",
              "online_ms.p50", "throughput_img_s", "comm_mb", "rounds",
              "wan_s", "cpu_s_per_img", "peak_rss_mb")
PER_LAYER = tuple(
    [f"core.triplet.l{i}.{m}" for i in range(3)
     for m in ("busy_ms.server", "busy_ms.client", "wait_ms.server",
               "wait_ms.client", "mb", "rounds", "ot_instances")] +
    [f"core.relu.l{i}.{m}" for i in range(2)
     for m in ("busy_ms.server", "busy_ms.client", "wait_ms.server",
               "wait_ms.client", "mb", "rounds", "and_gates",
               "positive_share")] +
    ["gc.garble.ns_per_and", "gc.eval.ns_per_and"] +
    [f"core.linear.l{i}.ms" for i in range(3)] +
    ["ot.base.setup_ms", "ot.base.mb", "offline.factory.bundle_ms",
     "offline.factory.bundle_mb", "net.wait_ms.client", "net.framed.mb_s",
     "serve.probe_ms.p50", "serve.busy_share", "serve.reaped",
     "runtime.cpu_per_wall", "trace_overhead"])

BUILD = os.path.join(".bench_build", "e2ebench")
HARNESS = os.path.join(BUILD, "e2ebench_harness")
SERVER = os.path.join(BUILD, "abnn2", "tools", "abnn2_server")
RUN_DIR = os.path.join(BUILD, "run")
SETUP_REPS = 5
POOL_THREADS = "2"
# Every process of a run must end well inside the 180 s a run may take.
CALL_TIMEOUT_S = 150


def build():
    here = os.path.dirname(os.path.abspath(__file__))
    jobs = str(os.cpu_count() or 2)
    for cmd in (["cmake", "-S", here, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", jobs, "--target",
                 "e2ebench_harness", "abnn2_server"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("e2ebench: build failed: " + " ".join(cmd))


def env():
    e = dict(os.environ)
    e["ABNN2_THREADS"] = POOL_THREADS
    for k in ("ABNN2_TRACE", "ABNN2_FORCE_DISPATCH", "ABNN2_FORCE_PORTABLE",
              "ABNN2_RO_BATCH_WIDTH", "ABNN2_VERBOSE"):
        e.pop(k, None)  # measure the shipped defaults only
    return e


def harness(*args):
    p = subprocess.run([HARNESS, *map(str, args)], stdout=subprocess.PIPE,
                       stderr=sys.stderr, env=env(), timeout=CALL_TIMEOUT_S,
                       text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"e2ebench: harness {args[0]} exited {p.returncode}")
    return json.loads(lines[-1])


def source_digest():
    """SHA-256 over the program's sources, standing in for the commit id
    (the checkout the benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    files = ["CMakeLists.txt"]
    for top in ("src", "tools", "e2ebench"):
        for d, _, names in os.walk(top):
            files += [os.path.join(d, n) for n in names]
    for f in sorted(files):
        if os.path.isfile(f):
            h.update(f.encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


class Server:
    """abnn2_server on a free loopback port, serving the saved model."""

    def __init__(self, model, tag):
        self.out = os.path.join(RUN_DIR, f"server-{tag}.out")
        self.err = os.path.join(RUN_DIR, f"server-{tag}.err")
        for _ in range(5):
            with socket.socket() as s:
                s.bind(("127.0.0.1", 0))
                self.port = s.getsockname()[1]
            t0 = time.perf_counter()
            with open(self.out, "w") as o, open(self.err, "w") as e:
                self.proc = subprocess.Popen(
                    [SERVER, model, str(self.port), "--max-sessions", "2"],
                    stdout=o, stderr=e, env=env())
            while time.perf_counter() - t0 < 30:
                if self.proc.poll() is not None:
                    break  # most likely lost the port race; try another
                with open(self.out) as o:
                    if "serving on :" in o.read():
                        self.start_s = time.perf_counter() - t0
                        return
                time.sleep(0.005)
            self.stop()
        sys.exit("e2ebench: abnn2_server did not start")

    def stop(self):
        """SIGTERM (graceful drain), then reap. Returns (cpu_s, maxrss_mb)."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 20
        while True:
            pid, status, ru = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, ru = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.01)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0

    def reaped(self):
        with open(self.err) as e:
            for line in e:
                if line.startswith("[serve] drained:"):
                    return int(line.split(" resumed, ")[1].split(" reaped")[0])
        return None


def run_serve(a):
    model = os.path.join(RUN_DIR, "fig4.mdl")
    setups, idle_cpu = [], []
    for rep in range(SETUP_REPS):
        save_s = harness("save-model", model)["save_s"]
        srv = Server(model, rep)
        try:
            last = rep == SETUP_REPS - 1
            if last:
                r = harness("serve-b1", "--seed", a.seed, "--seconds", a.seconds,
                            "--trace", a.trace, "--port", srv.port,
                            "--model", model)
            else:
                r = harness("serve-warmup", "--seed", a.seed, "--port",
                            srv.port, "--model", model)
        finally:
            cpu_s, rss_mb = srv.stop()
        setups.append(save_s + srv.start_s + r["extra"]["warmup_s"])
        if not last:
            idle_cpu.append(cpu_s)
    if srv.proc.returncode != 0:
        r["errors"].append(f"abnn2_server exited {srv.proc.returncode}")
    reaped = srv.reaped()
    if reaped is None:
        r["errors"].append("abnn2_server printed no drain summary")
        reaped = 0
    # Each reap is a failed request, whether or not the client saw it fail.
    r["failed"] = min(r["attempted"], max(r["failed"], reaped))
    x, m = r["extra"], r["metrics"]
    if not m:
        return r  # the harness found no completed request 0; nothing to add
    # The server's CPU over the window: its lifetime CPU minus that of a
    # server that only started and served the warm-up request.
    cpu = x["client_cpu_s"] + max(0.0, cpu_s - statistics.median(idle_cpu))
    if a.trace:
        m["serve.reaped"]["value"] = float(reaped)
        m["runtime.cpu_per_wall"]["value"] = cpu / x["window_s"]
    else:
        m["setup_s"]["value"] = statistics.median(setups)
        m["cpu_s_per_img"]["value"] = cpu / x["images"]
        m["peak_rss_mb"]["value"] = max(m["peak_rss_mb"]["value"], rss_mb)
    return r


def check_exact(a, r, digest):
    """Counts must repeat bit for bit across runs of the same sources with
    the same seed. The store is keyed by the source digest, so a change
    that legitimately alters a count starts a store of its own."""
    d = os.path.join(BUILD, "exact", digest)
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, f"{a.workload}-seed{a.seed}.json")
    old = {}
    if os.path.exists(path):
        with open(path) as f:
            old = json.load(f)
    bad = [k for k, v in r["exact"].items() if k in old and old[k] != v]
    for k in bad:
        r["errors"].append(f"exact count {k} = {r['exact'][k]}, an earlier "
                           f"run of these sources with this seed gave {old[k]}")
    if bad:
        return  # keep the first values; a mismatch must not replace them
    old.update(r["exact"])
    with open(path + ".tmp", "w") as f:
        json.dump(old, f, sort_keys=True)
    os.replace(path + ".tmp", path)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if a.seed < 0:
        sys.exit("e2ebench: --seed must be non-negative")

    build()
    os.makedirs(RUN_DIR, exist_ok=True)
    digest = source_digest()
    if a.workload == "serve-b1":
        r = run_serve(a)
    else:
        r = harness(a.workload, "--seed", a.seed, "--seconds", a.seconds,
                    "--trace", a.trace)
    if r["attempted"] < 1:
        sys.exit("e2ebench: no batch was attempted")
    check_exact(a, r, digest)

    names = PER_LAYER if a.trace else END_TO_END
    metrics = {}
    for n in names:
        v = r["metrics"].get(n)
        if v is None or not isinstance(v["value"], (int, float)) \
                or not math.isfinite(v["value"]):
            r["errors"].append(f"metric {n} missing or not finite")
            continue
        metrics[n] = v
    context = dict(r["context"], source_sha256=digest,
                   workload=a.workload, seconds=str(a.seconds))

    for n, v in metrics.items():
        print(f"{a.workload} {n} = {v['value']:.6g} {v['unit']}")
    if not a.trace:
        print(f"{a.workload} samples = {int(r['extra'].get('samples', 0))}")
    print(f"{a.workload} failed_share = {r['failed'] / max(1, r['attempted']):.6g}"
          f" ({r['failed']} of {r['attempted']})")
    for e in r["errors"]:
        print(f"{a.workload} CHECK FAILED: {e}")
        print(f"e2ebench: CHECK FAILED: {e}", file=sys.stderr)
    print("context " + json.dumps(context, sort_keys=True))
    print(json.dumps({"correct": not r["errors"], "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
