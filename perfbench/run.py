#!/usr/bin/env python3
"""The repository benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload craft --seed 1 --seconds 40 --trace 0
  python3 perfbench/run.py selftest          # unit tests of the benchmark
  python3 perfbench/run.py compare A.json B.json

A run builds the repository's libraries and the benchmark binary from
source into .bench_build/ (incrementally after the first time), runs one
workload with the thread pool and the obs switch pinned, prints every
metric with its unit, and ends with one JSON line:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer metrics plus self time per layer, the unattributed share of wall
time and the tracing overhead. A traced craft run also checks that its
crafted tensors equal those of the untraced run of the same seed, and
makes that run first when there is none yet. Every result is also
written, with the host fingerprint, to .bench_build/results/. The exit status is 0 only when every
correctness check passed.
"""
import argparse
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
RESULTS = os.path.join(BUILD, "results")
WORK = os.path.join(BUILD, "work")
TMP = os.path.join(BUILD, "tmp")
SERVE_CACHE = os.path.join(WORK, "serve-cache")  # see serve_load.cpp
# The measured processes of a run end within this many seconds of the end
# of the build and the serve-model preparation.
RUN_BUDGET_S = 165
# Training serve models happens once per checkout, in the first run.
PREPARE_TIMEOUT_S = 600
MALLOC_ARENA_MAX = "2"
DEADLINE = None  # set by cmd_run

# ADV_THREADS per workload. Trained weights depend on the pool size, so it
# is part of every result's fingerprint. craft runs at the repository's
# default pool size; serve at 1 thread (see README.md).
THREADS = {"craft": 4, "serve_cifar_mixed": 1}
# The pool size the serve models are trained at.
TRAIN_THREADS = 4


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


# --- host fingerprint ------------------------------------------------------

ISA_FLAGS = ("avx2", "fma", "avx512f", "avx512bw", "avx512_vnni", "avx_vnni")


def cpu_info():
    model, flags = platform.processor() or "unknown", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name":
                    model = value.strip()
                elif key == "flags":
                    flags = set(value.split())
    except OSError:
        pass
    return model, sorted(flag for flag in ISA_FLAGS if flag in flags)


def compiler_info():
    """Compiler id/version and build type of the configured build tree."""
    cache, compiler, build_type = os.path.join(CMAKE_DIR, "CMakeCache.txt"), "", ""
    if os.path.exists(cache):
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    files = os.path.join(CMAKE_DIR, "CMakeFiles")
    if os.path.isdir(files):
        for sub in sorted(os.listdir(files)):
            path = os.path.join(files, sub, "CMakeCXXCompiler.cmake")
            if os.path.exists(path):
                text = open(path).read()
                cid = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
                ver = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
                compiler = "%s %s" % (cid.group(1) if cid else "?",
                                      ver.group(1) if ver else "?")
    return compiler, build_type


def cpu_steal():
    """The aggregate cpu line of /proc/stat (jiffies), or None."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def fingerprint(threads):
    model, isa = cpu_info()
    compiler, build_type = compiler_info()
    return {
        "cpu_model": model,
        "isa_flags": isa,
        "nproc": os.cpu_count(),
        "pool_threads": threads,
        "malloc_arena_max": MALLOC_ARENA_MAX,
        "compiler": compiler,
        "build_type": build_type,
    }


# --- build -----------------------------------------------------------------

def run_quiet(cmd, env):
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        raise SystemExit("perfbench: command failed: %s" % " ".join(cmd))


def build(env, targets):
    """Configures (once) and builds `targets`; a tree configured on another
    host (different fingerprint: -march=native kernels) is rebuilt."""
    stamp = os.path.join(BUILD, "host.json")
    host = {"cpu": cpu_info(), "nproc": os.cpu_count()}
    if os.path.exists(stamp) and load_json(stamp) != json.loads(json.dumps(host)):
        log("perfbench: build tree is from another host; rebuilding")
        shutil.rmtree(CMAKE_DIR, ignore_errors=True)
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        log("perfbench: configuring %s" % CMAKE_DIR)
        run_quiet(["cmake", "-S", "perfbench", "-B", CMAKE_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"], env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", CMAKE_DIR, "-j", jobs, "--target"] + targets,
              env)
    with open(stamp, "w") as f:
        json.dump(host, f)


def base_env():
    env = dict(os.environ)
    # Nothing from the caller's environment may change what is measured.
    for var in ("REPRO_SCALE", "REPRO_CACHE_DIR", "ADV_FAULT", "ADV_OBS",
                "ADV_THREADS", "MALLOC_ARENA_MAX"):
        env.pop(var, None)
    # glibc otherwise creates malloc arenas as threads happen to contend,
    # which made peak RSS of the same run flip between two values.
    env["MALLOC_ARENA_MAX"] = MALLOC_ARENA_MAX
    os.makedirs(TMP, exist_ok=True)
    env["TMPDIR"] = os.path.abspath(TMP)
    return env


# --- reporting ---------------------------------------------------------------

def fmt(value):
    return "%.6g" % value


def overhead_lines(workload, seed, traced, fp):
    """Traced minus untraced end-to-end metrics, against untraced results of
    the same workload, settings and fingerprint (same seed when available)."""
    pool = []
    if os.path.isdir(RESULTS):
        for name in sorted(os.listdir(RESULTS)):
            if not (name.startswith(workload + "-") and name.endswith("-trace0.json")):
                continue
            res = load_json(os.path.join(RESULTS, name))
            if res.get("fingerprint") == fp and res.get("knobs") == traced["knobs"]:
                pool.append(res)
    if not pool:
        return ["tracing overhead: no untraced result of %s on this host yet" % workload]
    same = [r for r in pool if r["seed"] == seed]
    ref = same or pool
    lines = ["tracing overhead vs %s untraced run(s)%s:" % (
        len(ref), " of the same seed" if same else " (median, other seeds)")]
    for name, m in traced["metrics"].items():
        vals = [r["metrics"][name]["value"] for r in ref if name in r["metrics"]]
        if not vals:
            continue
        base = statistics.median(vals)
        delta = m["value"] - base
        lines.append("  %-18s traced %s untraced %s delta %s (%+.1f%%)" % (
            name, fmt(m["value"]), fmt(base), fmt(delta),
            100.0 * delta / base if base else 0.0))
    return lines


def batching_line(label, phases):
    """Batches and answered requests per scheme, summed over `phases`."""
    parts = []
    for scheme, name in (("full", "Full"), ("detector_only", "DetectorOnly")):
        tot = {k: sum(p["batching"][scheme][k] for p in phases)
               for k in ("batches", "rows", "requests_1row", "requests_8row")}
        parts.append("%s %d batches of %.2f rows (requests: %d 1-row, %d 8-row)" % (
            name, tot["batches"], tot["rows"] / max(1, tot["batches"]),
            tot["requests_1row"], tot["requests_8row"]))
    return "  %s: %s" % (label, "; ".join(parts))


def print_report(res, bench, trace):
    say = print
    fp = res["fingerprint"]
    say("host: %s | isa %s | nproc %s | pool %s | %s %s" % (
        fp["cpu_model"], ",".join(fp["isa_flags"]) or "-", fp["nproc"],
        fp["pool_threads"], fp["compiler"], fp["build_type"]))
    for c in res["checks"]:
        if not c["ok"]:
            say("CHECK FAILED: %s (%s)" % (c["name"], c["detail"]))
    say("checks: %d/%d passed" % (sum(c["ok"] for c in res["checks"]),
                                   len(res["checks"])))
    say("end-to-end (%s):" % res["workload"])
    gated = {m["name"] for m in bench["end_to_end"]}
    for name, m in res["metrics"].items():
        say("  %-22s %14s %s%s" % (name, fmt(m["value"]), m["unit"],
                                   "" if name in gated else " (not gated)"))
    notes = res.get("notes", {})
    n, windows = notes["latency_samples"], notes.get("latency_windows", 1)
    per = n // windows
    say("  p50_ms / p90_ms: %s %d samples (%d / %d beyond them%s)" % (
        "median over %d windows of" % windows if windows > 1 else "over", n,
        per - math.ceil(0.5 * per), per - math.ceil(0.9 * per),
        " in each window" if windows > 1 else ""))
    if "max_rps" in notes:
        say("  %-22s %14s 1/s (not gated; ladder rung %d)" % (
            "max_rps", fmt(notes["max_rps"]), notes["max_rps.rung"]))
        nominal = notes["nominal"]
        tails = ", ".join("%s %s" % (k[:-3], "-" if nominal[k] is None else fmt(nominal[k]))
                          for k in ("p95_ms", "p98_ms", "p99_ms", "p99.5_ms"))
        say("  nominal tails over all %d samples (ms, '-' = under 10 samples "
            "beyond): %s" % (nominal["sent"], tails))
    for key in ("craft_images_per_s", "ead_images_per_s", "cw_images_per_s"):
        if key in notes:
            say("  %-22s %14s 1/s" % (key, fmt(notes[key])))
    if "host_steal_share" in res:
        say("host steal during the run: %.2f%% of CPU time" % (
            100.0 * res["host_steal_share"]))
    if trace:
        say("per-layer:")
        for name, m in res["layers"].items():
            say("  %-30s %14s %s" % (name, fmt(m["value"]), m["unit"]))
        say("self time per layer (s, from %d spans):" % res["spans"])
        for layer, secs in res["self_time_s"].items():
            say("  %-12s %10.4f" % (layer, secs))
        say("unattributed share of wall time: %.4f%%" % (
            100.0 * res["unattributed_share"]))
        if "batching" in notes.get("nominal", {}):
            say("batches by scheme:")
            say(batching_line("nominal %s req/s" % fmt(notes["nominal"]["rate"]),
                              [notes["nominal"]]))
            say(batching_line("saturated %s req/s" % fmt(notes["saturated"]["rate"]),
                              [notes["saturated"]]))
            top = notes["max_rps"]
            steps = [s for s in notes["ladder_steps"]
                     if abs(s["rate"] - top) < 1e-3 and "batching" in s]
            if steps:
                say(batching_line("max_rps rung %s req/s, %d sub-steps" % (
                    fmt(top), len(steps)), steps))
        for line in overhead_lines(res["workload"], res["seed"], res, fp):
            say(line)


# --- commands ----------------------------------------------------------------

def drive(cmd, env, threads, trace, timeout=None):
    """Runs the workload binary with the pool size and obs switch pinned;
    by default it must end by the run's deadline."""
    if timeout is None:
        timeout = max(1.0, DEADLINE - time.monotonic())
    env = dict(env, ADV_THREADS=str(threads), ADV_OBS="1" if trace else "0")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: workload exceeded %d s" % timeout)
    log(proc.stdout.rstrip())
    if proc.returncode != 0:
        raise SystemExit("perfbench: workload binary failed (exit %d)" % proc.returncode)


def binary_cmd(workload, seed, seconds):
    return [os.path.join(CMAKE_DIR, "perfbench"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--work-dir", WORK]


def prepare_serve_models(env):
    """Fills the serve model cache outside any measured process and at the
    training pool size (trained weights depend on it): the first run in a
    checkout, whatever its workload, trains the models, so no measured run
    does."""
    stamp = os.path.join(WORK, "prepared-serve_cifar_mixed")
    if os.path.exists(stamp) and os.path.isdir(SERVE_CACHE):
        return
    cmd = binary_cmd("serve_cifar_mixed", 0, 0) + [
        "--result", os.path.join(WORK, "prepare.json"), "--trace", "0",
        "--prepare", "1"]
    drive(cmd, env, TRAIN_THREADS, False, PREPARE_TIMEOUT_S)
    open(stamp, "w").close()


def settings(workload, seconds):
    return {"threads": THREADS[workload], "seconds": seconds}


def result_path(workload, seed, trace):
    return os.path.join(RESULTS, "%s-seed%d-trace%d.json" % (workload, seed, trace))


def measure(workload, seed, seconds, trace, env):
    """One run of the workload binary; returns its report, also written to
    the results directory with the fingerprint and settings."""
    threads = THREADS[workload]
    raw = os.path.join(WORK, "report-%d.json" % os.getpid())
    cmd = binary_cmd(workload, seed, seconds) + ["--result", raw,
                                                 "--trace", str(trace)]
    steal0 = cpu_steal()
    drive(cmd, env, threads, trace)
    steal1 = cpu_steal()
    res = load_json(raw)
    os.remove(raw)
    if res["threads"] != threads:
        raise SystemExit("perfbench: pool size %s, wanted %s" % (res["threads"], threads))
    res["fingerprint"] = fingerprint(threads)
    res["knobs"] = settings(workload, seconds)
    if steal0 and steal1:
        busy = sum(steal1) - sum(steal0)
        res["host_steal_share"] = (steal1[7] - steal0[7]) / busy if busy else 0.0
    with open(result_path(workload, seed, trace), "w") as f:
        json.dump(res, f, indent=1)
    return res


def untraced_crafted(seed, seconds, env):
    """The untraced craft result of `seed` on this host and settings, made
    now when there is none yet."""
    path = result_path("craft", seed, 0)
    if os.path.exists(path):
        ref = load_json(path)
        if (ref.get("fingerprint") == fingerprint(THREADS["craft"])
                and ref.get("knobs") == settings("craft", seconds)
                and "crafted" in ref["notes"]):
            return ref
    log("perfbench: no untraced craft result of seed %d yet; running it" % seed)
    return measure("craft", seed, seconds, 0, env)


def check_crafted(res, ref):
    """Traced crafted tensors must be bitwise equal to untraced ones: the
    craft binary hashes every attack result into notes.crafted."""
    mine, theirs = res["notes"]["crafted"], ref["notes"]["crafted"]
    differ = sorted(k for k in mine if mine[k] != theirs.get(k))
    ok = bool(mine) and mine.keys() == theirs.keys() and not differ
    res["checks"].append({
        "name": "traced crafted tensors equal untraced ones",
        "ok": ok,
        "detail": "differ: %s" % (", ".join(differ) or "none")})
    res["correct"] = res["correct"] and ok


def cmd_run(args):
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        raise SystemExit("perfbench: run from the root of a full repository "
                         "checkout (src/ not found)")
    bench = load_json("BENCHMARK.json")
    if args.workload not in THREADS:
        raise SystemExit("perfbench: unknown workload %r" % args.workload)
    env = base_env()
    build(env, ["perfbench"])
    os.makedirs(RESULTS, exist_ok=True)
    os.makedirs(WORK, exist_ok=True)
    prepare_serve_models(env)
    global DEADLINE
    DEADLINE = time.monotonic() + RUN_BUDGET_S
    ref = None
    if args.trace and args.workload == "craft":
        ref = untraced_crafted(args.seed, args.seconds, env)
    res = measure(args.workload, args.seed, args.seconds, args.trace, env)
    if ref is not None:
        check_crafted(res, ref)
        with open(result_path(args.workload, args.seed, 1), "w") as f:
            json.dump(res, f, indent=1)

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    source = res["layers"] if args.trace else res["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        raise SystemExit("perfbench: workload did not report %s" % ", ".join(missing))

    print_report(res, bench, args.trace)
    print("result file: %s" % result_path(args.workload, args.seed, args.trace))
    line = {
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {m["name"]: {"value": source[m["name"]]["value"],
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


def cmd_selftest(_args):
    env = base_env()
    build(env, ["perfbench_test"])
    return subprocess.run([os.path.join(CMAKE_DIR, "perfbench_test")],
                          env=env).returncode


def cmd_compare(args):
    a, b = load_json(args.a), load_json(args.b)
    if a.get("fingerprint") != b.get("fingerprint"):
        print("perfbench: refusing to compare results from different hosts:")
        print("  %s: %s" % (args.a, json.dumps(a.get("fingerprint"))))
        print("  %s: %s" % (args.b, json.dumps(b.get("fingerprint"))))
        return 3
    if a["workload"] != b["workload"] or a.get("knobs") != b.get("knobs"):
        print("perfbench: refusing to compare different workloads or settings")
        return 3
    for key in ("metrics", "layers"):
        for name, m in a[key].items():
            if name in b[key]:
                va, vb = m["value"], b[key][name]["value"]
                print("%-30s %14s -> %14s %s (%+.1f%%)" % (
                    name, fmt(va), fmt(vb), m["unit"],
                    100.0 * (vb - va) / va if va else 0.0))
    return 0


def main():
    argv = sys.argv[1:]
    if argv and argv[0] in ("selftest", "compare"):
        parser = argparse.ArgumentParser(prog="run.py " + argv[0])
        if argv[0] == "compare":
            parser.add_argument("a")
            parser.add_argument("b")
        args = parser.parse_args(argv[1:])
        fn = cmd_selftest if argv[0] == "selftest" else cmd_compare
    else:
        parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
        parser.add_argument("--workload", required=True)
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--seconds", type=float, required=True)
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        args = parser.parse_args(argv)
        fn = cmd_run
    os.chdir(ROOT)
    sys.exit(fn(args))


if __name__ == "__main__":
    main()
