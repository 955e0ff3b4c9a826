#!/usr/bin/env python3
"""Repository benchmark: one run of one workload through `defa_serve`.

    python3 perfbench/run.py --workload encoder_small --seed 1 --seconds 10 --trace 0

Run from the repository root.  Builds `defa_serve` and the C++ driver
from source into .bench_build/perfbench (a no-op once built), runs the
driver, prints a human-readable report and, as the last line of stdout,
one JSON object {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see NOTES.md).

    python3 perfbench/run.py --update-digests

rewrites digests.json, the committed answers every run is checked
against, from the current program (only for a change meant to alter
the answers).
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import stats  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("encoder_small", "encoder_large", "accel_sim")
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build the two targets; exits 1 on failure."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("perfbench: project sources not found in " + ROOT)
        sys.exit(1)
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "defa_serve", "perfbench_driver"])
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                out.flush()
                with open(build_log) as f:
                    log("".join(f.readlines()[-40:]))
                log("perfbench: build failed: " + " ".join(cmd))
                sys.exit(1)


def run_driver(driver_args):
    """Run the C++ driver in its own process group; returns its raw JSON."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DEFA_")}
    cmd = [os.path.join(BUILD, "perfbench_driver")] + driver_args
    # The driver and the servers it spawns share one process group, which
    # is killed if the driver overruns or this script is stopped.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                            start_new_session=True, text=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out")
        sys.exit(1)
    finally:
        if proc.returncode != 0:  # still running, or failed: servers too
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    if proc.returncode != 0:
        log("perfbench: driver failed with code %d" % proc.returncode)
        sys.exit(1)
    return json.loads(out.strip().splitlines()[-1])


def measure(args):
    """One benchmark run of the driver; returns its raw JSON."""
    work_dir = os.path.join(BUILD, "run")
    os.makedirs(work_dir, exist_ok=True)
    return run_driver(["--serve", os.path.join(BUILD, "defa", "defa_serve"),
                       "--work-dir", work_dir,
                       "--digests", DIGESTS,
                       "--workload", args.workload,
                       "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace)])


def update_digests():
    digests = {}
    for w in WORKLOADS:
        log("perfbench: evaluating every %s request" % w)
        digests[w] = run_driver(["--workload", w, "--emit-digests", "1"])["digests"]
    with open(DIGESTS, "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")
    log("perfbench: wrote %s" % DIGESTS)


def tally(phase):
    failed = phase["typed_errors"] + phase["rejected"] + phase["mismatches"]
    return phase["attempted"], failed


def reference_lines(raw):
    """Reports the committed-digest check; True when every answer matches."""
    bad = raw["digest_mismatches"]
    print("  committed digests: %d of %d distinct answers match digests.json"
          % (raw["distinct_requests"] - len(bad), raw["distinct_requests"]))
    for key in bad:
        print("    differs: %s" % key)
    sim = raw.get("simulated")
    if sim:
        print("  simulated (covered by the digests): %.6g cycles/request, "
              "MSGS conflict frac %.6g" % (sim["wall_cycles_per_req"],
                                           sim["msgs_conflict_frac"]))
    return not bad


def latency_line(phase):
    """Raw-sample percentiles with the samples-beyond rule, for the report."""
    s = phase["samples_ms"]
    n = len(s)
    parts = ["n=%d" % n, "p50=%.4f ms" % stats.percentile(s, 50)]
    for p in (90.0, 99.0, 99.9):
        if stats.supported(n, p):
            parts.append("p%g=%.4f ms (%d beyond)" % (p, stats.percentile(s, p),
                                                     stats.beyond(n, p)))
        else:
            parts.append("p%g=unsupported (%d beyond < %d)" % (p, stats.beyond(n, p),
                                                               stats.MIN_BEYOND))
            break
    return "  latency: " + ", ".join(parts)


def end_to_end(raw):
    attempted, failed = tally(raw)
    metrics = {
        "throughput_rps": stats.windowed_rate(raw["done_s"]),
        "latency_p50_ms": stats.percentile(raw["samples_ms"], 50),
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["server_vm_hwm_kb"] / 1024.0,
        "cpu_ms_per_request": raw["server_cpu_ms"] / attempted,
    }
    print("workload %s seed %d (closed loop, 1 in flight, %d distinct requests)"
          % (raw["workload"], raw["seed"], raw["distinct_requests"]))
    print(latency_line(raw))
    print("  setup_s per spawn: " + ", ".join("%.3f" % v for v in raw["setup_s"]))
    print("  error_frac: %.6f (%d of %d: %d typed errors, %d rejected, %d mismatches)"
          % (failed / attempted, failed, attempted, raw["typed_errors"],
             raw["rejected"], raw["mismatches"]))
    print("  context misses in the timed phase: %d" % raw["context_miss_timed"])
    print("  host CPU steal during the timed phase: %.1f%%" % (100 * raw["host_steal_frac"]))
    same = reference_lines(raw)
    correct = same and failed == 0 and raw["context_miss_timed"] == 0
    return correct, attempted, failed, metrics


def per_layer(raw):
    attempted, failed = tally(raw)
    a2, f2 = tally(raw["untraced"])
    layers = raw["layers"]
    metrics = {name: layers[name] for name in stats.PER_LAYER}
    print("workload %s seed %d traced run" % (raw["workload"], raw["seed"]))
    print(latency_line(raw))
    for name, unit in stats.PER_LAYER.items():
        print("  %-34s %14.6g %s" % (name, metrics[name], unit))
    enc = raw["encoder_span_ms_per_req"]
    if layers["core.encoder_ms"] > 0:
        shares = raw["encoder_span_shares"]
        unattributed = layers["core.encoder_unattributed_frac"]
        print("  host shares of one encoder run (%.3f ms):" % enc)
        for span, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            print("    %-20s %.4f" % (span, share))
        print("    %-20s %.4f" % ("unattributed", unattributed))
        print("    %-20s %.4f" % ("sum", sum(shares.values()) + unattributed))
        m = raw["modeled_shares"]
        print("  modeled Fig. 1(b) GPU shares (%s): MM %.4f, softmax %.4f, "
              "MSGS+AG %.4f, other %.4f" % (m["fig1b_benchmark"], m["fig1b_mm"],
                                            m["fig1b_softmax"], m["fig1b_msgs_ag"],
                                            m["fig1b_other"]))
    modeled = {k: v for k, v in raw["modeled_shares"].items()
               if k.startswith(("cycles_", "energy_"))}
    if modeled:
        print("  modeled accelerator shares (Fig. 8): " +
              ", ".join("%s %.4f" % kv for kv in modeled.items()))
    print("  obs.trace_overhead_frac: %.4f (traced vs untraced throughput)"
          % layers["obs.trace_overhead_frac"])
    if raw["spans_dropped"]:
        print("  warning: the server dropped %d spans" % raw["spans_dropped"])
    same = reference_lines(raw)
    correct = same and failed + f2 == 0 and layers["core.context_miss_timed"] == 0
    return correct, attempted + a2, failed + f2, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-digests", action="store_true")
    args = ap.parse_args()
    if args.update_digests:
        build()
        update_digests()
        return 0
    if None in (args.workload, args.seed, args.seconds):
        ap.error("--workload, --seed and --seconds are required")
    build()
    raw = measure(args)
    correct, attempted, failed, metrics = (per_layer if args.trace else end_to_end)(raw)
    units = stats.PER_LAYER if args.trace else stats.END_TO_END
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
