#!/usr/bin/env python3
"""Time-to-verdict benchmark for lbsa.

Run from the repository root:

  python3 perfbench/run.py --workload corpus-check --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py                 # every workload, untraced then traced
  python3 perfbench/run.py --selftest      # shows that a wrong verdict fails the run

On first use it configures and builds perfbench/ (a CMake package that
compiles the library from src/) into .bench_build. It refuses a Debug or
sanitizer build. Each workload runs in a child process, perfbench/main.cc.
The child runs cold iterations for --seconds and checks every verdict
against the reference. With --trace 1 it adds one traced iteration, a stage
replay and an engine comparison. Set-up time is sampled over several
start-ups of that child.

The last stdout line is one JSON object: correct, attempted, failed, and
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
The lines before it name every metric with its unit and sample count, and
give the build's provenance. The full result, with provenance, is written
to .bench_out/. The exit code is non-zero if any verdict is wrong.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "lbsa_perfbench")

# Start-ups of the child per run whose set-up times are pooled into setup_s.
SETUP_SAMPLES = 39
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    """A failure that must end the run without a result line."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "layer_map.json")) as f:
        layer_map = json.load(f)["per_layer"]
    names = [m["name"] for m in spec["per_layer"]]
    if sorted(names) != sorted(layer_map):
        raise BenchError("perfbench/layer_map.json and BENCHMARK.json "
                         "per_layer disagree on metric names: %s"
                         % sorted(set(names) ^ set(layer_map)))
    return spec


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no lbsa source tree at %s/src; run from a checkout "
                         "of the repository" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "lbsa_perfbench",
                  "-j", jobs])
    for cmd in steps:
        rc, _ = run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if rc != 0:
            raise BenchError("build step %s exited %d" % (" ".join(cmd), rc))


def read_cache():
    cache = {}
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(("#", "//")) or "=" not in line:
                continue
            key, value = line.rstrip("\n").split("=", 1)
            cache[key.split(":", 1)[0]] = value
    return cache


def git_describe():
    # The ceiling keeps git from searching above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    if out.returncode != 0:
        return "unknown (not a git checkout)"
    return out.stdout.strip()


def provenance():
    cache = read_cache()
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(v for k, v in cache.items()
                     if k.startswith("CMAKE_CXX_FLAGS"))
    sanitizers = sorted({tok.split("=", 1)[1] for tok in flags.split()
                         if tok.startswith("-fsanitize=")})
    if cache.get("LBSA_SANITIZE"):
        sanitizers.append(cache["LBSA_SANITIZE"])
    return {
        "commit": git_describe(),
        "compiler": cache.get("LBSA_BENCH_COMPILER", "unknown"),
        "build_type": build_type or "RelWithDebInfo (CMakeLists default)",
        "sanitizer": ",".join(sanitizers) or "none",
        "nproc": os.cpu_count(),
        "obs_disabled": "LBSA_OBS_DISABLED" in flags,
    }


def guard(prov):
    if prov["build_type"] == "Debug" or prov["sanitizer"] != "none":
        raise BenchError("refusing to report numbers from a %s build (%s); "
                         "reconfigure .bench_build without it"
                         % ("Debug" if prov["build_type"] == "Debug"
                            else "sanitizer", prov["sanitizer"]))


def run_group(cmd, timeout, stdout=None):
    """Runs cmd in its own process group; returns (exit code, stdout).

    On a timeout, an error or SIGTERM the whole group (the build's make and
    compilers included) is killed, and this waits until all of it is gone.
    """
    try:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, text=True,
                                start_new_session=True)
    except OSError as e:
        raise BenchError("cannot start %s: %s" % (cmd[0], e))
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException as e:
        kill_group(proc)
        if isinstance(e, subprocess.TimeoutExpired):
            raise BenchError("%s timed out after %d s" % (cmd[0], timeout))
        raise
    return proc.returncode, out


def kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    # Grandchildren are not ours to wait for: poll until the group is gone.
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_child(args):
    """Runs the benchmark binary; returns (exit code, parsed JSON)."""
    rc, out = run_group([BINARY] + args, RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    lines = out.strip().splitlines()
    if rc not in (0, 1) or not lines:
        raise BenchError("benchmark child exited %d" % rc)
    return rc, json.loads(lines[-1])


def run_workload(spec, name, seed, seconds, trace, flip=False):
    """One benchmark run; returns (exit code, result line, report)."""
    common = ["--workload", name, "--seed", str(seed)]
    if flip:
        common.append("--flip-expectation")
    setups = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        _, probe = run_child(common + ["--seconds", "0", "--trace", "0",
                                       "--setup-only"])
        setups.append(probe["timed_start_s"] - t0)
    t0 = time.monotonic()
    rc, res = run_child(common + ["--seconds", str(seconds),
                                  "--trace", str(trace)])
    setups.append(res["timed_start_s"] - t0)
    if not all(0 < s < 60 for s in setups):
        raise BenchError("implausible set-up times %s" % setups)

    units = {}
    if trace:
        for m in spec["per_layer"]:
            units[m["name"]] = m["unit"]
        missing = sorted(set(units) - set(res["layers"]))
        if missing:
            raise BenchError("traced run did not report %s" % missing)
        values = {k: res["layers"][k] for k in units}
    else:
        for m in spec["end_to_end"]:
            units[m["name"]] = m["unit"]
        values = {
            "wall_to_verdict_s": res["wall_to_verdict_s"],
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
            "setup_s": statistics.median(setups),
        }
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    correct = rc == 0 and res["failed"] == 0
    line = {"correct": correct, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}
    report = dict(res, setup_samples_s=setups, metrics=metrics)
    return (0 if correct else 1), line, report


def print_report(name, trace, line, report, prov):
    n_iter = len(report["iterations"])
    print("provenance: " + " ".join("%s=%s" % kv for kv in prov.items()))
    share = line["failed"] / line["attempted"] if line["attempted"] else 1.0
    print("%s verdict_error_share = %.6g (%d failed of %d verdicts)"
          % (name, share, line["failed"], line["attempted"]))
    for err in report["errors"]:
        print("%s verdict error: %s" % (name, err))
    m = line["metrics"]
    if not trace:
        print("%s wall_to_verdict_s = %.6f s (median of %d iterations)"
              % (name, m["wall_to_verdict_s"]["value"], n_iter))
        print("%s peak_rss_mb = %.3f MB (process peak over %d iterations)"
              % (name, m["peak_rss_mb"]["value"], n_iter))
        print("%s setup_s = %.6f s (median of %d start-ups)"
              % (name, m["setup_s"]["value"], len(report["setup_samples_s"])))
        return
    b = report["breakdown"]
    accounted = b["explore.self_s"] + b["task_check.self_s"]
    print("%s traced wall_to_verdict_s = %.6f s (1 traced iteration; "
          "untraced median %.6f s of %d)"
          % (name, b["traced_wall_s"], report["wall_to_verdict_s"], n_iter))
    print("%s   explore.self_s + task_check.self_s = %.6f + %.6f = %.6f s"
          % (name, b["explore.self_s"], b["task_check.self_s"], accounted))
    print("%s   remainder %.6f s = other public calls (hierarchy_rows_json, "
          "fuzz campaigns) %.6f s + outside public calls %.6f s"
          % (name, b["traced_wall_s"] - accounted, b["other_public_calls_s"],
             b["outside_public_calls_s"]))
    if report.get("auto_engine"):
        print("%s   engine auto picked for dac6: %s"
              % (name, report["auto_engine"]))
    for k in sorted(m):
        print("%s %s = %.6g %s" % (name, k, m[k]["value"], m[k]["unit"]))


def write_report(name, seed, trace, report, prov):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "result-%s-seed%d-trace%d.json"
                        % (name, seed, trace))
    with open(path, "w") as f:
        json.dump(dict(report, provenance=prov), f, indent=1)


def on_sigterm(signum, frame):
    # Unwinds through subprocess.run, which kills and reaps its child.
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload != "all" and args.workload not in names:
            raise BenchError("unknown workload %r; choose from %s"
                             % (args.workload, names))
        seconds = (args.seconds if args.seconds is not None
                   else spec["run_seconds"])
        build()
        prov = provenance()
        guard(prov)

        if args.selftest:
            rc, line, report = run_workload(spec, "corpus-check", args.seed,
                                            0, 0, flip=True)
            print_report("corpus-check", 0, line, report, prov)
            print(json.dumps(line))
            if rc != 0 and not line["correct"] and line["failed"] > 0:
                log("self-test passed: a flipped reference verdict failed "
                    "the run (exit %d)" % rc)
                return 0
            log("self-test FAILED: the flipped verdict went unnoticed")
            return 1

        if args.workload != "all":
            trace = args.trace if args.trace is not None else 0
            rc, line, report = run_workload(spec, args.workload, args.seed,
                                            seconds, trace)
            write_report(args.workload, args.seed, trace, report, prov)
            print_report(args.workload, trace, line, report, prov)
            print(json.dumps(line), flush=True)
            return rc

        traces = [args.trace] if args.trace is not None else [0, 1]
        summary = {"correct": True, "attempted": 0, "failed": 0,
                   "metrics": {}}
        for name in names:
            for trace in traces:
                rc, line, report = run_workload(spec, name, args.seed,
                                                seconds, trace)
                write_report(name, args.seed, trace, report, prov)
                print_report(name, trace, line, report, prov)
                summary["correct"] = summary["correct"] and rc == 0
                summary["attempted"] += line["attempted"]
                summary["failed"] += line["failed"]
                for k, v in line["metrics"].items():
                    summary["metrics"]["%s/%s" % (name, k)] = v
        print(json.dumps(summary), flush=True)
        return 0 if summary["correct"] else 1
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
