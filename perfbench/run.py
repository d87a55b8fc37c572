#!/usr/bin/env python3
"""The jsoncdn benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload paper-batch --seed 42 --seconds 40

Run from the root of a jsoncdn checkout. The script builds jsoncdn-perfbench
(perfbench/jsoncdn_perfbench.cpp plus ../src, Release) into .bench_build/,
builds the workload's input store from --seed several times (set-up), then
runs the job over that store in fresh processes, one after another, until
--seconds have passed (a closed loop). Every job's output is checked. The
last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over the run's jobs and
set-ups); --trace 1 reports the per-layer metrics from traced jobs and
set-ups, which also write Chrome trace-event JSON into .bench_work/.
perfbench/README.md describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_work")
PROGRAM = os.path.join(BUILD_DIR, "jsoncdn-perfbench")
REFERENCE_FILE = os.path.join(BENCH_DIR, "reference_digests.json")
BUILD_TYPE = "Release"

# jsoncdn-perfbench defines each workload's input and job; both jobs run on
# one thread. ref_threads is the thread count of the reference job whose
# report every timed job must match byte for byte (the repository's
# thread-invariance contract); synth-stream is checked against an exact
# batch pass instead.
WORKLOADS = {
    "paper-batch": {"ref_threads": 2},
    "synth-stream": {"ref_threads": None},
}
# Set-up repeats at least SETUP_MIN times and until SETUP_SECONDS have
# passed, so a short set-up is sampled more often than a long one.
SETUP_MIN = 5
SETUP_SECONDS = 6.0
MIN_JOBS = 3
# A run stops starting jobs after this long even below MIN_JOBS, so a run
# over a slow build of the program still ends within three minutes.
RUN_CAP_S = 120
JOB_TIMEOUT_S = 100

END_TO_END = [
    ("wall_s", "s"),
    ("rows_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
    ("pass_share", "share"),
]

# Spans jsoncdn-perfbench records, by the layer (module) that owns the call.
SETUP_SPANS = ["workload.generate", "cdn.run", "shard.synth", "shard.write"]
JOB_SPANS = [
    "shard.open", "shard.read_all", "shard.scan",
    "logs.sort_by_time", "logs.json_rows",
    "core.characterization",
    "core.characterization.source", "core.characterization.methods",
    "core.characterization.cacheability", "core.characterization.sizes",
    "core.characterization.domains", "core.characterization.heatmap",
    "core.characterization.status",
    "core.periodicity", "core.ngram", "core.render",
    "stream.ingest", "stream.summary", "stream.render",
]
# Layers the job spans; set-up spans do not nest, so their own timings are
# their self times.
LAYERS = ["shard", "logs", "core", "stream"]
COUNTERS = [
    ("shard.chunks_decoded", "count"),
    ("shard.chunks_pruned", "count"),
    ("shard.bytes_decoded", "B"),
    ("shard.bytes_per_row", "B"),
    ("core.periodicity.flows", "count"),
    ("core.periodicity.periodic_objects", "count"),
    ("core.ngram.predictions", "count"),
    ("stream.state_bytes", "B"),
    ("stream.candidates", "count"),
    ("workload.events", "count"),
    ("cdn.origin_fetches", "count"),
    ("cdn.hit_ratio", "share"),
]
DERIVED = [
    ("core.ngram.predictions_per_s", "1/s"),
    ("stream.ingest.rows_per_s", "1/s"),
    ("trace.overhead_share", "ratio"),
]


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order. Every timing
    comes as a wall `_s` and a CPU `.cpu_s` pair."""
    timed = SETUP_SPANS + JOB_SPANS + [
        "shard.scan_self", "stream.chunk_ingest_p50", "stream.chunk_ingest_max",
    ] + [layer + ".self" for layer in LAYERS]
    out = []
    for base in timed:
        out += [(base + "_s", "s"), (base + ".cpu_s", "s")]
    return out + COUNTERS + DERIVED


# ---- build --------------------------------------------------------------


def build():
    """Configures and builds jsoncdn-perfbench; returns False with a log on
    error."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no jsoncdn sources next to perfbench/",
              file=sys.stderr)
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
        ["cmake", "--build", BUILD_DIR, "-j",
         str(min(os.cpu_count() or 1, 4))],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                print("perfbench: build failed, see " + log_path,
                      file=sys.stderr)
                return False
    return True


# ---- processes ------------------------------------------------------------


def run_program(args):
    """Runs jsoncdn-perfbench to completion; returns (parsed stdout JSON,
    peak RSS in MiB). Peak RSS is the child's own ru_maxrss, read with
    wait4."""
    proc = subprocess.Popen([PROGRAM] + args, stdout=subprocess.PIPE)
    timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError("jsoncdn-perfbench %s exited with %d"
                           % (args[0], proc.returncode))
    result = json.loads(out.decode().strip().splitlines()[-1])
    return result, usage.ru_maxrss / 1024.0


# ---- checks ---------------------------------------------------------------


def sha256_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def check_digest(report, expected):
    """One check per expected digest: the report's sha256 must equal it."""
    digest = hashlib.sha256(report).hexdigest()
    return [("digest", digest == want) for want in expected]


def check_stream(estimates, exact, top_k=20):
    """Checks the streaming summary against the exact batch pass: exact
    counters must be equal, HyperLogLog estimates equal to a sketch of the
    exact key set, the other sketch estimates within their guaranteed error
    bounds. Returns [(check name, passed)]."""
    checks = []
    for key, value in sorted(exact["exact"].items()):
        checks.append(("exact." + key, estimates["exact"].get(key) == value))
    # HLL error is only bounded in probability (a 3-sigma bound fails on
    # some seeds), but its registers do not depend on how the input was
    # split, so the stream must match the batch sketch exactly.
    for key in ("distinct_urls", "distinct_clients", "distinct_domains"):
        checks.append(("hll." + key, estimates[key] == exact[key]))
    config = estimates["config"]
    # Space-Saving tracks every key counted more than N / capacity times, and
    # overestimates any tracked key by at most that much.
    hh_bound = exact["exact"]["json_records"] / config["heavy_hitters"]
    sketch_top = {key: count for key, count, _ in estimates["top_urls"]}
    for url, count in exact["top_urls"][:top_k]:
        if url in sketch_top:
            checks.append(("heavy_hitter.count",
                           0 <= sketch_top[url] - count <= hh_bound))
        else:
            checks.append(("heavy_hitter.found", count <= hh_bound))
    # The 1.05 slack absorbs rounding in the sketch's bucket-midpoint math.
    alpha = config["quantile_alpha"] * 1.05
    for sizes in ("json_sizes", "html_sizes"):
        for q, want in exact[sizes].items():
            got = estimates[sizes][q]
            err = abs(got - want) / want if want else abs(got)
            checks.append(("quantile.%s.%s" % (sizes, q), err <= alpha))
    return checks


# ---- traces ---------------------------------------------------------------


def load_spans(path):
    """Reads a Chrome trace written by jsoncdn-perfbench into span dicts,
    times in seconds."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    return [{"id": e["args"]["id"], "parent": e["args"]["parent"],
             "name": e["name"], "start": e["ts"] / 1e6,
             "dur": e["dur"] / 1e6, "cpu": e["args"]["cpu_us"] / 1e6}
            for e in events]


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that the union of its children covers. Returns {id: (wall, cpu)}, cpu
    self time being the span's CPU minus its children's."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start"], s["start"] + s["dur"]
        covered, reach = 0.0, lo
        kids = sorted(children.get(s["id"], []), key=lambda c: c["start"])
        for c in kids:
            a = max(c["start"], reach)
            b = min(c["start"] + c["dur"], hi)
            if b > a:
                covered += b - a
                reach = b
        child_cpu = sum(c["cpu"] for c in kids)
        out[s["id"]] = (s["dur"] - covered, s["cpu"] - child_cpu)
    return out


def check_span_tree(spans, tolerance_s=5e-6):
    """Every span's direct children must lie inside its interval and sum to
    no more than its duration, so the self times of a tree sum to its
    root's duration."""
    by_id = {s["id"]: s for s in spans}
    sums = {}
    ok = True
    for s in spans:
        if s["parent"] < 0:
            continue
        p = by_id[s["parent"]]
        sums[p["id"]] = sums.get(p["id"], 0.0) + s["dur"]
        ok = ok and s["start"] >= p["start"] - tolerance_s and (
            s["start"] + s["dur"] <= p["start"] + p["dur"] + tolerance_s)
    ok = ok and all(total <= by_id[p]["dur"] + tolerance_s
                    for p, total in sums.items())
    return [("trace.children_within_parent", ok)]


def span_metrics(spans, layers=True):
    """Per-layer timings of one traced process: total and CPU time per span
    name, layer self times (when `layers`), and the streaming chunk
    distribution."""
    selfs = self_times(spans)
    m = {}

    def add(key, value):
        m[key] = m.get(key, 0.0) + value

    for s in spans:
        add(s["name"] + "_s", s["dur"])
        add(s["name"] + ".cpu_s", s["cpu"])
        wall, cpu = selfs[s["id"]]
        layer = s["name"].split(".")[0]
        if layers and layer in LAYERS:
            add(layer + ".self_s", wall)
            add(layer + ".self.cpu_s", cpu)
        if s["name"] == "shard.scan":
            add("shard.scan_self_s", wall)
            add("shard.scan_self.cpu_s", cpu)
    chunks = [s for s in spans if s["name"] == "stream.ingest"]
    if chunks:
        walls = [c["dur"] for c in chunks]
        cpus = [c["cpu"] for c in chunks]
        m["stream.chunk_ingest_p50_s"] = statistics.median(walls)
        m["stream.chunk_ingest_p50.cpu_s"] = statistics.median(cpus)
        m["stream.chunk_ingest_max_s"] = max(walls)
        m["stream.chunk_ingest_max.cpu_s"] = max(cpus)
    return m


# ---- one run --------------------------------------------------------------


def median_of(samples, key):
    values = [s[key] for s in samples if key in s]
    return statistics.median(values) if values else 0.0


def stamp(workload, seed, threads, simd):
    git_sha = "unknown"
    try:
        git_sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload, "seed": seed, "threads": threads,
        "git_sha": git_sha, "cpu": cpu, "nproc": os.cpu_count(),
        "build_type": BUILD_TYPE, "simd": simd,
        "JSONCDN_DISABLE_SIMD": os.environ.get("JSONCDN_DISABLE_SIMD", ""),
    }


def run(workload, seed, seconds, trace):
    spec = WORKLOADS[workload]
    os.makedirs(WORK_DIR, exist_ok=True)
    tag = "%s-%d-%d" % (workload, seed, os.getpid())
    store = os.path.join(WORK_DIR, tag + ".jlog")
    report = os.path.join(WORK_DIR, tag + ".report")
    reference = os.path.join(WORK_DIR, tag + ".reference")
    setup_trace = os.path.join(WORK_DIR, tag + ".setup.trace.json")
    job_trace = os.path.join(WORK_DIR, tag + ".job.trace.json")
    checks = []
    run_start = time.monotonic()
    try:
        # Set-up, repeated; the store of the last one is used.
        setups = []
        setup_start = time.monotonic()
        while (len(setups) < SETUP_MIN or
               time.monotonic() - setup_start < SETUP_SECONDS):
            args = ["setup", "--workload", workload, "--seed", str(seed),
                    "--out", store]
            if trace:
                args += ["--trace", setup_trace]
            out, _ = run_program(args)
            sample = {"setup_s": out["setup_s"]}
            sample.update(out["counters"])
            if trace:
                sample.update(span_metrics(load_spans(setup_trace),
                                           layers=False))
            setups.append(sample)

        # Reference outputs, computed once per run, outside the timed jobs.
        expected = []
        if spec["ref_threads"] is not None:
            run_program(["job", "--workload", workload, "--input", store,
                        "--threads", str(spec["ref_threads"]),
                        "--report", reference])
            expected.append(sha256_file(reference))
            pinned = load_reference().get(workload, {}).get(str(seed))
            if pinned:
                expected.append(pinned)
        else:
            run_program(["exact", "--input", store, "--out", reference])
            with open(reference) as f:
                exact = json.load(f)

        # The closed loop: one job at a time until the time is up. A traced
        # run alternates traced and untraced jobs for the overhead ratio.
        jobs, traced_jobs = [], []
        simd, threads = "unknown", 0
        start = time.monotonic()
        while not jobs or (
                time.monotonic() - run_start < RUN_CAP_S and
                (len(jobs) < MIN_JOBS or
                 (trace and len(traced_jobs) < MIN_JOBS) or
                 time.monotonic() - start < seconds)):
            traced = trace and len(traced_jobs) <= len(jobs)
            args = ["job", "--workload", workload, "--input", store,
                    "--report", report]
            if traced:
                args += ["--trace", job_trace]
            out, rss = run_program(args)
            simd, threads = out["simd"], out["threads"]
            sample = {"wall_s": out["wall_s"], "cpu_s": out["cpu_s"],
                      "peak_rss_mib": rss,
                      "rows": out["rows"],
                      "rows_per_s": out["rows"] / out["wall_s"]}
            sample.update(out["counters"])
            with open(report, "rb") as f:
                body = f.read()
            if spec["ref_threads"] is not None:
                checks += check_digest(body, expected)
            else:
                checks += check_stream(json.loads(body), exact)
            if traced:
                spans = load_spans(job_trace)
                checks += check_span_tree(spans)
                sample.update(span_metrics(spans))
                traced_jobs.append(sample)
            else:
                jobs.append(sample)
    finally:
        for path in (store, report, reference):
            if os.path.exists(path):
                os.remove(path)

    failed = sum(1 for _, ok in checks if not ok)
    for name, ok in checks:
        if not ok:
            print("perfbench: check failed: " + name, file=sys.stderr)
    if trace:
        metrics = traced_metrics(setups, traced_jobs, jobs)
    else:
        metrics = {
            "wall_s": median_of(jobs, "wall_s"),
            "rows_per_s": median_of(jobs, "rows_per_s"),
            "cpu_s": median_of(jobs, "cpu_s"),
            "peak_rss_mib": median_of(jobs, "peak_rss_mib"),
            "setup_s": median_of(setups, "setup_s"),
            "pass_share": (len(checks) - failed) / len(checks),
        }
    info = stamp(workload, seed, threads, simd)
    info.update({"jobs": len(jobs), "traced_jobs": len(traced_jobs),
                 "setups": len(setups), "checks": len(checks)})
    return checks, failed, metrics, info


def traced_metrics(setups, traced_jobs, jobs):
    """Medians of every per-layer metric; a metric a workload never touches
    reads 0."""
    names = [n for n, _ in per_layer_metrics()]
    setup_keys = set()
    for s in setups:
        setup_keys.update(s)
    m = {}
    for name in names:
        source = setups if name in setup_keys else traced_jobs
        m[name] = median_of(source, name)
    if m["core.ngram_s"] > 0:
        m["core.ngram.predictions_per_s"] = (
            m["core.ngram.predictions"] / m["core.ngram_s"])
    if m["stream.ingest_s"] > 0:
        m["stream.ingest.rows_per_s"] = (
            median_of(traced_jobs, "rows") / m["stream.ingest_s"])
    m["trace.overhead_share"] = (
        median_of(traced_jobs, "wall_s") / median_of(jobs, "wall_s"))
    return m


def load_reference():
    if not os.path.exists(REFERENCE_FILE):
        return {}
    with open(REFERENCE_FILE) as f:
        return json.load(f)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running job is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not build():
        return 1
    checks, failed, metrics, info = run(
        args.workload, args.seed, args.seconds, bool(args.trace))
    units = dict(END_TO_END + per_layer_metrics())
    for name, value in metrics.items():
        print("%-40s %16.6f %s" % (name, value, units[name]))
    print(json.dumps({"stamp": info}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
