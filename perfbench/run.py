#!/usr/bin/env python3
"""The repository benchmark: builds perfbench against ../src and runs one
workload in its own process.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}, with the end-to-end metrics of BENCHMARK.json for --trace 0 and
its per-layer metrics for --trace 1. The full report (host and revision
stamp, checks, digests, per-query budget) and, for traced runs, the spans
are written under the build directory. --self-check runs every workload at
a tiny size, traced and untraced, and checks that every metric named in
BENCHMARK.json is emitted with a unit and that every output check passes.
"""
import argparse
import fcntl
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("campaign", "scan", "production", "serve")
RUN_TIMEOUT_S = 170
SPAN_KEYS = {"name", "start_ns", "end_ns", "id", "parent", "request"}


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures and builds the perfbench binary (Release); returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no library sources: " + os.path.join(ROOT, "src"))
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr, stderr=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", bdir, "-j", jobs,
                        "--target", "perfbench"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(bdir, "perfbench")


def revision():
    """The git revision when run from a clone, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for f in sorted(filenames):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def run_workload(binary, workload, seed, seconds, trace, size, out_dir, rev):
    """Runs one workload; returns (report dict, human-readable lines)."""
    os.makedirs(out_dir, exist_ok=True)
    stem = "%s-%s-seed%d-trace%d" % (workload, size, seed, trace)
    spans = os.path.join(out_dir, stem + ".spans.jsonl")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace),
           "--size", size, "--rev", rev]
    if trace:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, cwd=ROOT)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s exited with %d" % (workload, proc.returncode))
    report = json.loads(lines[-1])
    report["spans_file"] = spans if trace else None
    with open(os.path.join(out_dir, stem + ".report.json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    return report, lines[:-1]


def result_line(spec, report, trace):
    """The contract's result object for one run."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    emitted = report["per_layer"] if trace else report["end_to_end"]
    metrics = {}
    for m in wanted:
        got = emitted.get(m["name"])
        if got is None:
            if not trace:
                raise RuntimeError("end-to-end metric %s not emitted" % m["name"])
            # A layer this workload never enters (e.g. the simulator's
            # event queue on the live server) did no work: zero.
            got = {"value": 0, "unit": m["unit"]}
        elif got["unit"] != m["unit"]:
            raise RuntimeError("metric %s emitted in %s, declared in %s"
                               % (m["name"], got["unit"], m["unit"]))
        elif not isinstance(got["value"], (int, float)) or \
                not math.isfinite(got["value"]):
            raise RuntimeError("metric %s has no finite value" % m["name"])
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if int(report["attempted"]) < 1:
        raise RuntimeError("no operation attempted")
    correct = all(c["ok"] for c in report["checks"]) and bool(report["checks"])
    return {"correct": correct, "attempted": int(report["attempted"]),
            "failed": int(report["failed"]), "metrics": metrics}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def self_check(binary, spec, out_dir, rev):
    """Every workload at tiny size, traced and untraced, in seconds."""
    problems = []
    layer_seen = set()
    for w in WORKLOADS:
        for trace in (0, 1):
            report, _ = run_workload(binary, w, 1, 2.0, trace, "tiny",
                                     out_dir, rev)
            for c in report["checks"]:
                if not c["ok"]:
                    problems.append("%s: check %s failed (%s)"
                                    % (w, c["name"], c["detail"]))
            section = report["per_layer" if trace else "end_to_end"]
            for name, m in section.items():
                if not m.get("unit"):
                    problems.append("%s: %s has no unit" % (w, name))
            if trace:
                layer_seen.update(section)
                with open(report["spans_file"]) as fh:
                    spans = [json.loads(l) for l in fh if l.strip()]
                if not spans or any(set(s) != SPAN_KEYS for s in spans):
                    problems.append("%s: spans missing or malformed" % w)
                if w != "serve" and "per_query_budget" not in report:
                    problems.append("%s: no per-query budget" % w)
            else:
                for m in spec["end_to_end"]:
                    if m["name"] not in section:
                        problems.append("%s: end-to-end %s not emitted"
                                        % (w, m["name"]))
            try:
                result_line(spec, report, trace)
            except RuntimeError as e:
                problems.append("%s: %s" % (w, e))
            print("self-check %-10s trace %d: %d checks, %d metrics"
                  % (w, trace, len(report["checks"]), len(section)))
    for m in spec["per_layer"]:
        if m["name"] not in layer_seen:
            problems.append("per-layer %s emitted by no workload" % m["name"])
    for p in problems:
        print("self-check FAILED: " + p)
    print("self-check %s" % ("passed" if not problems else "failed"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and args.workload is None:
        ap.error("--workload or --self-check is required")
    try:
        spec = load_spec()
        bdir = build_dir()
        binary = build(bdir)
        rev = revision()
        out_dir = os.path.join(bdir, "runs")
        if args.self_check:
            return self_check(binary, spec, out_dir, rev)
        report, lines = run_workload(binary, args.workload, args.seed,
                                     args.seconds, args.trace, "full",
                                     out_dir, rev)
        result = result_line(spec, report, args.trace)
    except (OSError, ValueError, RuntimeError, KeyError,
            subprocess.SubprocessError) as e:
        log("error: %s" % e)
        return 1
    for line in lines:
        print(line)
    budget = report.get("per_query_budget")
    if budget:
        print("per-query budget (%s): sum %.0f ns of %.0f ns measured, "
              "explained %.3f" % (budget["query_unit"],
                                  budget["sum_ns_per_query"],
                                  budget["measured_ns_per_query"],
                                  budget["explained_ratio"]))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
