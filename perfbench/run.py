#!/usr/bin/env python3
"""Ingest-path benchmark: build the program from this checkout's src/, run
one workload and print its metrics, ending with one JSON result line.

    python3 perfbench/run.py --workload raft_4kb --seed 1 --seconds 50

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics: the program's own counters, gprof self time per src/ module from a
second tree built with -pg, and the driver's spans. See perfbench/README.md.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
SRC = os.path.join(ROOT, "src")

# Closed loop of 3 replicas and 256 clients (5 us think time, 4 KB ingest
# batches) in every workload. A run pools round(per_s * --seconds) clusters,
# each with one leader crash. On a 4-core container a cluster costs about
# 0.4 s of host time under Raft, 2-3 s under NB-Raft (most of it the
# drain) and 4.5-7.5 s on disks, so at --seconds 50 a raft_4kb run (60
# clusters) takes about 25 s and an nbraft_4kb_disk run (15 clusters)
# 65-115 s. The failover figure
# needs dozens of crashes; the disk workload gets as many as the time
# budget of its runs allows. nbraft_4kb is not in BENCHMARK.json: the time
# budget of its runs went to the other two.
WORKLOADS = {
    "nbraft_4kb": dict(protocol="nbraft", disk=0, per_s=0.6),
    "raft_4kb": dict(protocol="raft", disk=0, per_s=1.2),
    "nbraft_4kb_disk": dict(protocol="nbraft", disk=1, per_s=0.3),
}
# The traced run covers this share of the untraced run's clusters, twice
# (once untraced for the overhead ratio, once under gprof).
TRACE_SHARE = 0.3

END_TO_END = [
    ("throughput_kops", "kop/s"),
    ("ack_latency_p50_ms", "ms"),
    ("ack_latency_p99_ms", "ms"),
    ("commit_latency_p50_ms", "ms"),
    ("commit_latency_p99_ms", "ms"),
    ("failover_ms", "ms"),
    ("host_us_per_req", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]
COUNTER_LAYER = [
    ("sim.events_per_req", "1/req"),
    ("net.msgs_per_req", "1/req"),
    ("net.kb_per_req", "KB/req"),
    ("raft.append_rpcs_per_entry", "1/entry"),
    ("raft.rpc_timeouts", "count"),
    ("client.retries", "count"),
    ("raft.election_ms", "ms"),
    ("client.resume_ms", "ms"),
    ("nbraft.weak_accepts_per_req", "1/req"),
    ("nbraft.window_inserts_per_entry", "1/entry"),
    ("nbraft.window_overflows", "count"),
    ("storage.fsyncs_per_kentry", "1/kentry"),
    ("storage.disk_kb_per_entry", "KB/entry"),
    ("tsdb.points_per_req", "1/req"),
] + [("phase.%s_us" % p, "us/entry") for p in (
    "t_trans_cl", "t_prs", "t_idx", "t_queue", "t_trans_lf", "t_wait",
    "t_append", "t_commit", "t_apply", "t_fsync")]
MODULES = ["sim", "net", "raft", "nbraft", "storage", "tsdb", "harness",
           "metrics", "other"]
SPANS = ["span.elect_s", "span.warmup_s", "span.measure_s",
         "span.failover_s", "span.drain_s", "span.checks_s"]
PER_LAYER = (COUNTER_LAYER + [("host.%s.self_s" % m, "s") for m in MODULES]
             + [("sim.heap_cmp_per_event", "1/event")]
             + [(s, "s") for s in SPANS]
             + [("trace.overhead_ratio", "ratio")])

def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(tree, gprof):
    """Configures (once) and builds one tree; returns its directory."""
    out = os.path.join(BUILD, tree)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if gprof:
            cmd.append("-DPERFBENCH_GPROF=ON")
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            raise RuntimeError("configure failed for " + tree)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        raise RuntimeError("build failed for " + tree)
    test = os.path.join(out, "perfbench_checks_test")
    if subprocess.run([test], stdout=subprocess.DEVNULL).returncode != 0:
        raise RuntimeError("the checks' own tests fail in " + tree)
    return out


def run_driver(tree, workload, seed, clusters, cwd=None):
    spec = WORKLOADS[workload]
    cmd = [os.path.join(tree, "perfbench_driver"),
           "--protocol", spec["protocol"], "--disk", str(spec["disk"]),
           "--seed", str(seed), "--clusters", str(clusters)]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError("driver exited with %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def module_of(path):
    """src/ module whose directory holds `path`; `other` for the rest of the
    checkout (common/, obs/, the benchmark itself); None outside it (STL)."""
    path = os.path.normpath(path) if path else ""
    if not path.startswith(ROOT + os.sep):
        return None
    if not path.startswith(SRC + os.sep):
        return "other"
    module = path[len(SRC) + 1:].split(os.sep)[0]
    return module if module in MODULES else "other"


def symbol_files(binary):
    """Demangled function name -> defining source file, from debug info."""
    out = subprocess.run(["nm", "-C", "-l", "--defined-only", binary],
                         stdout=subprocess.PIPE, text=True).stdout
    files = {}
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) < 3 or parts[1] not in "TtWw":
            continue
        name, _, where = parts[2].partition("\t")
        if where:
            files[name.strip()] = where.rsplit(":", 1)[0]
    return files


FLAT = re.compile(r"^\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+(\d+)?\s*"
                  r"(?:[\d.]+\s+[\d.]+\s+)?(.+?)\s*$")
ARC = re.compile(r"^\s+(?:[\d.]+\s+)?(?:[\d.]+\s+)?(\d+)(?:/\d+)?\s+(.+?)"
                 r" \[(\d+)\]\s*$")
PRIMARY = re.compile(r"^\[(\d+)\]\s+[\d.]+\s+[\d.]+\s+[\d.]+\s+"
                     r"(?:[\d+]+(?:\+\d+)?\s+)?(.+?) \[(\d+)\]\s*$")


def profile(binary, gmon):
    """Flat self seconds and call counts, plus caller arcs, from gprof."""
    flat_txt = subprocess.run(["gprof", "-b", "-p", binary, gmon],
                              stdout=subprocess.PIPE, text=True).stdout
    self_s, calls = {}, {}
    for line in flat_txt.splitlines():
        m = FLAT.match(line)
        if m and not line.lstrip().startswith("%"):
            self_s[m.group(3)] = float(m.group(1))
            calls[m.group(3)] = int(m.group(2) or 0)
    graph_txt = subprocess.run(["gprof", "-b", "-q", binary, gmon],
                               stdout=subprocess.PIPE, text=True).stdout
    callers = {}
    for block in graph_txt.split("-" * 47):
        parents, primary = [], None
        for line in block.splitlines():
            if line.startswith("["):
                m = PRIMARY.match(line)
                primary = m.group(2) if m else None
                break
            m = ARC.match(line)
            if m and "<spontaneous>" not in line:
                parents.append((m.group(2), int(m.group(1))))
        if primary is not None:
            callers[primary] = parents
    return self_s, calls, callers


# The kernel's type-erased callback wrappers get the callback's body inlined,
# so their self time belongs to the module that scheduled the callback.
WRAPPER = re.compile(r"^nbraft::sim::(?:EventFn::\w+Impl|CpuExecutor::Submit)<")
QUALIFIED = re.compile(r"nbraft::[A-Za-z_][\w:]*")


def function_module(fn, files, by_base):
    mod = module_of(files.get(fn, ""))
    if mod == "sim" and WRAPPER.match(fn):
        for name in QUALIFIED.findall(fn[fn.index("<") + 1:]):
            owner = module_of(by_base.get(name, ""))
            if owner not in (None, "sim"):
                return owner
    return mod


def charge_modules(self_s, callers, files):
    """Self time per src/ module. Functions outside the checkout (STL
    templates) pass their time up the call graph to their callers, split by
    call count, until it reaches checkout code; time with no such caller
    goes to `other`."""
    by_base = {}
    for name, path in files.items():
        by_base.setdefault(name.split("(")[0], path)
    totals = {m: 0.0 for m in MODULES}

    def charge(fn, secs, depth):
        mod = function_module(fn, files, by_base)
        if mod is not None:
            totals[mod] += secs
            return
        parents = [(p, n) for p, n in callers.get(fn, []) if p != fn]
        total = sum(n for _, n in parents)
        if depth >= 8 or total == 0:
            totals["other"] += secs
            return
        for parent, n in parents:
            charge(parent, secs * n / total, depth + 1)

    for fn, secs in self_s.items():
        if secs > 0:
            charge(fn, secs, 0)
    return totals


def traced_metrics(workload, seed, clusters):
    release = build("release", False)
    traced = build("gprof", True)
    base = run_driver(release, workload, seed, clusters)
    out_dir = os.path.join(BUILD, "trace-out", "%s-%d" % (workload, seed))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    res = run_driver(traced, workload, seed, clusters, cwd=out_dir)
    binary = os.path.join(traced, "perfbench_driver")
    self_s, calls, callers = profile(binary, os.path.join(out_dir, "gmon.out"))
    modules = charge_modules(self_s, callers, symbol_files(binary))
    metrics = dict(res["metrics"])
    for m in MODULES:
        metrics["host.%s.self_s" % m] = modules[m]
    later = [n for fn, n in calls.items()
             if fn.startswith("nbraft::sim::Simulator::Later(")]
    metrics["sim.heap_cmp_per_event"] = (
        sum(later) / max(res["metrics"]["events_total"], 1))
    metrics["trace.overhead_ratio"] = (
        res["metrics"]["host_us_per_req"] / base["metrics"]["host_us_per_req"])
    res["metrics"] = metrics
    res["correct"] = res["correct"] and base["correct"]
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    clusters = max(2, round(args.seconds * WORKLOADS[args.workload]["per_s"]))
    try:
        if args.trace:
            clusters = max(1, round(clusters * TRACE_SHARE))
            res = traced_metrics(args.workload, args.seed, clusters)
            names = PER_LAYER
        else:
            res = run_driver(build("release", False), args.workload, args.seed,
                             clusters)
            names = END_TO_END
    except (RuntimeError, OSError, ValueError, KeyError, IndexError) as err:
        log("perfbench: " + str(err))
        return 1

    m = res["metrics"]
    log("perfbench: %s seed %d, %d clusters, %d crashes, %d ack / %d commit "
        "latency samples" % (args.workload, args.seed, clusters,
                             m["crashes"], m["ack_samples"],
                             m["commit_samples"]))
    for name, unit in names:
        print("%-34s %16.6f %s" % (name, m[name], unit))
    print(json.dumps({
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {name: {"value": m[name], "unit": unit}
                    for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
