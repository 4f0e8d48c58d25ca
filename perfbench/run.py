#!/usr/bin/env python3
"""End-to-end benchmark of the re2xolap HTTP server.

    python3 perfbench/run.py --workload explore|hot_query|live_ingest \
        --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout. Each run builds the server and the
benchmark client from the checkout's sources (CMake, Release, under
.bench_build/), writes the workload's snapshot image (untimed, once per
checkout), boots the real `re2xolap_server` binary with its default
configuration, drives it from one client process and validates every
response. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are the per-layer metrics, from a run that repeats the
workload with client spans on, scrapes the server's /metrics and replays
the workload in process with a span around each layer call (spans are
written to .bench_build/perfbench-runs/<run>/spans.jsonl). Every other
line of output names a metric with its unit and sample count. A failed
check makes the run print "correct": false and exit 1.

--smoke runs every workload briefly, both with and without tracing, and
checks that every metric BENCHMARK.json names prints with its unit and
that validation passes. README.md describes workloads and metrics.
"""

import argparse
import json
import math
import os
import select
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
IMAGES = ROOT / ".bench_build" / "perfbench-images"
RUNS = ROOT / ".bench_build" / "perfbench-runs"
SERVER = BUILD / "re2xolap" / "examples" / "re2xolap_server"
CLIENT = BUILD / "perfbench_client"

# Snapshot size per workload. live_ingest serves a smaller image: reads on a
# live chain cost 13-43x frozen reads at seed, so a 120k image would leave
# too few reads per run for a steady percentile.
WORKLOADS = {
    "explore": {"observations": 120000, "live": False},
    "hot_query": {"observations": 120000, "live": False},
    "live_ingest": {"observations": 10000, "live": True},
}
SETUP_BOOTS = 9
CLIENT_TIMEOUT_S = 150
SMOKE_SECONDS = 2


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def fail(message):
    log("error: " + message)
    sys.exit(2)


# --- build and inputs ------------------------------------------------------


def clean_env():
    """The program runs as shipped: no RE2XOLAP_* knob reaches it."""
    return {k: v for k, v in os.environ.items() if not k.startswith("RE2XOLAP_")}


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no program sources at %s; run from the root of a checkout" % ROOT)
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4", "--target",
                  "re2xolap_server", "perfbench_client"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            fail("build step failed: " + " ".join(cmd))


def image(observations):
    IMAGES.mkdir(parents=True, exist_ok=True)
    path = IMAGES / ("eurostat-%d.snap" % observations)
    if not path.is_file():  # the client writes it atomically
        done = subprocess.run([str(CLIENT), "prepare", str(observations),
                               str(path)], env=clean_env())
        if done.returncode != 0:
            fail("could not write the snapshot image")
    return path


# --- server lifecycle ------------------------------------------------------


def healthz(port):
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=2) as s:
            s.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                      b"Connection: close\r\n\r\n")
            return s.recv(64).startswith(b"HTTP/1.1 200")
    except OSError:
        return False


def boot(image_path, live):
    """Spawns the server; returns (process, port, seconds to first 200)."""
    cmd = [str(SERVER), str(image_path), "--port=0"]
    if live:
        cmd.append("--live")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, env=clean_env())
    port = None
    line = b""
    deadline = time.monotonic() + 60
    while port is None:
        if time.monotonic() > deadline or proc.poll() is not None:
            stop(proc)
            fail("server did not start")
        ready, _, _ = select.select([proc.stdout], [], [], 0.5)
        if ready:
            line += os.read(proc.stdout.fileno(), 256)
            if b"\n" in line and b"listening on" in line:
                port = int(line.split(b"\n")[0].rsplit(b":", 1)[1])
    while not healthz(port):
        if time.monotonic() > deadline or proc.poll() is not None:
            stop(proc)
            fail("server never answered /healthz")
        time.sleep(0.002)
    return proc, port, time.perf_counter() - start


def stop(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def peak_rss_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    return 0.0


# --- statistics --------------------------------------------------------------


def percentile(values, p):
    """Percentile p (0-100) by linear interpolation between order stats."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = (len(v) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def tail_percentile(n):
    """Highest reported percentile with at least ten samples beyond it."""
    best = 50.0
    for p in (90.0, 99.0, 99.9):
        if n * (100.0 - p) / 100.0 >= 10:
            best = p
    return best


def median(values):
    return statistics.median(values) if values else 0.0


# Interference from outside the benchmark (other tenants of the machine)
# comes in bursts of seconds. Timings are therefore medians over equal time
# windows of the measured phase: as many windows, up to MAX_WINDOWS, as
# leave each window at least ten samples beyond the percentile it reports
# (or 100 completions, for a rate). Windows in which the hypervisor stole
# more than STEAL_LIMIT of the machine's CPU time (/proc/stat) are left out
# while at least a quarter of the windows remain.
MAX_WINDOWS = 20
STEAL_LIMIT = 0.10


def steal_share(cpu, a, b):
    """Share of the machine's CPU ticks stolen between phase times a, b."""
    def last(t):
        return max((s for s in cpu if s[0] <= t), default=cpu[0],
                   key=lambda s: s[0])
    t0, total0, steal0 = last(a)
    t1, total1, steal1 = last(b)
    return (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0


def windows(phase, pop, count):
    """Latencies of `pop` in `count` equal windows of the phase (by
    completion time), without the windows stolen from."""
    wall = phase["wall_s"]
    bins = [[] for _ in range(count)]
    for ms, t in zip(pop["latency_ms"], pop["done_s"]):
        bins[min(count - 1, int(t / wall * count))].append(ms)
    clean = [b for i, b in enumerate(bins) if steal_share(
        phase["cpu"], i * wall / count, (i + 1) * wall / count) <= STEAL_LIMIT]
    return clean if len(clean) >= max(1, count // 4) else bins


def windowed_percentile(phase, pop, p):
    n = len(pop["latency_ms"])
    count = max(1, min(MAX_WINDOWS, int(n * (100 - p) / 1000)))
    return median([percentile(b, p) for b in windows(phase, pop, count) if b])


def windowed_rate(phase, pop):
    count = max(1, min(MAX_WINDOWS, len(pop["latency_ms"]) // 100))
    return median([len(b) * count / phase["wall_s"]
                   for b in windows(phase, pop, count)])


def prometheus(path):
    """{name: value} for counters/gauges, {name: {le: cumulative}} for
    histogram buckets."""
    scalars, buckets = {}, {}
    with open(path) as f:
        for line in f:
            if not line.strip() or line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            if "_bucket{le=" in name:
                base, le = name.split("_bucket{le=")
                le = le.strip('"}')
                buckets.setdefault(base, {})[
                    math.inf if le == "+Inf" else float(le)] = float(value)
            else:
                scalars[name] = float(value)
    return scalars, buckets


def histogram_percentile(before, after, name, q):
    """Quantile q of the observations made between two scrapes,
    interpolated geometrically inside the bucket holding it (4 buckets per
    doubling)."""
    def per_bucket(cum):
        out, prev = {}, 0.0
        for le in sorted(cum):
            out[le] = cum[le] - prev
            prev = cum[le]
        return out
    b = per_bucket(before.get(name, {}))
    a = per_bucket(after.get(name, {}))
    window = {le: a[le] - b.get(le, 0.0) for le in a}
    total = sum(window.values())
    if total <= 0:
        return 0.0
    seen = 0.0
    for le in sorted(window):
        if window[le] > 0 and seen + window[le] >= q * total:
            if math.isinf(le):
                return le
            inside = (q * total - seen) / window[le]
            return le * 2 ** ((inside - 1) / 4)
        seen += window[le]
    return 0.0


# --- one run -------------------------------------------------------------------


def run_client(workload, seed, seconds, port, image_path, trace, out_dir):
    cmd = [str(CLIENT), "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--port", str(port),
           "--image", str(image_path), "--trace", str(trace),
           "--out", str(out_dir)]
    proc = subprocess.Popen(cmd, stdout=sys.stderr, env=clean_env())
    try:
        code = proc.wait(timeout=CLIENT_TIMEOUT_S)
    except BaseException as e:
        proc.kill()
        proc.wait()
        if isinstance(e, subprocess.TimeoutExpired):
            fail("client exceeded %d s" % CLIENT_TIMEOUT_S)
        raise
    if code != 0:
        fail("client exited with %d" % code)
    with open(out_dir / "result.json") as f:
        return json.load(f)


def end_to_end(workload, result, setups, rss):
    p = result["phases"][0]
    wall = p["wall_s"]
    req, ses, ing = p["requests"], p["sessions"], p["ingest"]
    n = len(req["latency_ms"])
    m = {
        "setup_s": (median(setups), "s", len(setups)),
        "throughput_rps": (windowed_rate(p, req), "req/s", n),
        "latency_ms_p90": (windowed_percentile(p, req, 90), "ms", n),
        "peak_rss_mb": (rss, "MB", 1),
    }
    # Printed but not gated by BENCHMARK.json: the median, because on
    # explore it falls between the trivial and the working requests and
    # moves by a fifth from seed to seed; the rest, because not every
    # workload defines them.
    extra = {"latency_ms_p50": (windowed_percentile(p, req, 50), "ms", n),
             "failed_ratio": (result["failed"] / max(1, result["attempted"]),
                              "ratio", result["attempted"]),
             "cpu_steal_share": (steal_share(p["cpu"], 0, wall), "ratio",
                                 len(p["cpu"]))}
    tail = tail_percentile(n)
    if tail > 90:
        extra["latency_ms_p%g" % tail] = (
            windowed_percentile(p, req, tail), "ms", n)
    if workload == "explore":
        extra["sessions_per_s"] = (ses["ok"] / wall, "1/s", ses["ok"])
        extra["session_ms_p50"] = (windowed_percentile(p, ses, 50), "ms",
                                   ses["ok"])
    if workload == "live_ingest":
        acks = len(ing["latency_ms"])
        extra["ingest_ms_p50"] = (windowed_percentile(p, ing, 50), "ms", acks)
        extra["ingest_ms_p90"] = (windowed_percentile(p, ing, 90), "ms", acks)
    return m, extra


def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f]


def per_layer(result, out_dir):
    untraced, traced = result["phases"][0], result["phases"][1]
    sb, hb = prometheus(out_dir / "metrics_before.txt")
    sa, ha = prometheus(out_dir / "metrics_after.txt")

    def delta(name):
        return sa.get(name, 0.0) - sb.get(name, 0.0)

    def ratio(hits, misses):
        h, m = delta(hits), delta(misses)
        return h / (h + m) if h + m > 0 else 0.0

    spans = load_spans(out_dir / "spans.jsonl")
    by_name = {}
    for s in spans:
        s["ms"] = (s["end_us"] - s["start_us"]) / 1000.0
        by_name.setdefault(s["name"], []).append(s)

    def durations(name):
        return [s["ms"] for s in by_name.get(name, [])]

    def attrs(name, key):
        return [s["attrs"][key] for s in by_name.get(name, [])
                if key in s["attrs"]]

    def first_attr(name, key):
        values = attrs(name, key)
        return values[0] if values else 0.0

    exec_spans = by_name.get("sparql.exec", [])
    rows = sum(attrs("sparql.exec", "rows"))
    starts = by_name.get("core.session.start", [])
    candidates = sum(attrs("core.session.start", "candidates"))
    result_bytes = (attrs("http POST /query", "bytes") +
                    attrs("http POST /session/<id>/execute", "bytes"))

    def slowdown(name):
        frozen = first_attr(name, "frozen_ms")
        return first_attr(name, "live_ms") / frozen if frozen > 0 else 0.0

    def p(phase, q):
        return windowed_percentile(phase, phase["requests"], q)

    def rps(phase):
        return windowed_rate(phase, phase["requests"])

    layers = {
        "server.request_ms_p50": (histogram_percentile(
            hb, ha, "server_request_millis", 0.5), "ms"),
        "server.queue_wait_ms_p90": (histogram_percentile(
            hb, ha, "server_queue_wait_millis", 0.9), "ms"),
        "server.shed": (delta("server_shed"), "count"),
        "server.expired_in_queue": (delta("server_expired_in_queue"), "count"),
        "engine.result_hit_ratio": (ratio("engine_result_cache_hits",
                                          "engine_result_cache_misses"),
                                    "ratio"),
        "engine.plan_hit_ratio": (ratio("engine_plan_cache_hits",
                                        "engine_plan_cache_misses"), "ratio"),
        "engine.hit_ms_p50": (histogram_percentile(
            hb, ha, "engine_execute_hit_millis", 0.5), "ms"),
        "engine.miss_ms_p50": (histogram_percentile(
            hb, ha, "engine_execute_miss_millis", 0.5), "ms"),
        "sparql.parse_ms": (median(durations("sparql.parse")), "ms"),
        "sparql.plan_ms": (median(durations("sparql.plan")), "ms"),
        "sparql.exec_ms": (median(durations("sparql.exec")), "ms"),
        "sparql.join_ms": (median(attrs("sparql.exec", "join_ms")), "ms"),
        "sparql.aggregate_ms": (median(attrs("sparql.exec", "aggregate_ms")),
                                "ms"),
        "sparql.scanned_per_row": (sum(attrs("sparql.exec", "scanned")) /
                                   max(1.0, rows), "count"),
        "sparql.render_ms": (median(durations("sparql.render")), "ms"),
        "sparql.render_us_per_row": (1000 * sum(durations("sparql.render")) /
                                     max(1.0, rows), "us"),
        "result.bytes_p50": (median(result_bytes), "bytes"),
        "reolap.start_ms": (median(durations("core.session.start")), "ms"),
        "reolap.candidates": (candidates / max(1, len(starts)), "count"),
        "reolap.probes_per_candidate": (
            sum(attrs("core.session.start", "probes")) / max(1.0, candidates),
            "count"),
        "exref.disaggregate_ms": (median(durations("exref.disaggregate")),
                                  "ms"),
        "exref.topk_ms": (median(durations("exref.topk")), "ms"),
        "exref.similarity_ms": (median(durations("exref.similarity")), "ms"),
        "rdf.text_lookup_us": (1000 * median(durations("rdf.text_lookup")),
                               "us"),
        "rdf.blocks_decoded_per_query": (
            sum(attrs("sparql.exec", "blocks_decoded")) /
            max(1, len(exec_spans)), "count"),
        "rdf.live_read_slowdown.depth4": (slowdown("rdf.live_read.depth4"),
                                          "x"),
        "rdf.live_read_slowdown.compacted": (
            slowdown("rdf.live_read.compacted"), "x"),
        "store.ingest_ms": (median(durations("store.ingest")), "ms"),
        "store.compact_ms": (median(durations("store.compact")), "ms"),
        "store.compact_ms.depth256": (median(durations(
            "store.compact.depth256")), "ms"),
        "store.chain_depth_max": (untraced["chain_depth_max"], "count"),
        "storage.load_ms": (median(durations("storage.open_snapshot")), "ms"),
        "storage.image_bytes_per_triple": (
            first_attr("storage.open_snapshot", "image_bytes") /
            max(1.0, first_attr("storage.open_snapshot", "triples")), "bytes"),
        # Workloads without a writer report the client's CPU sampler, the
        # only other scheduled activity of the load generator.
        "load.writer_late_ms_max": (untraced["writer_late_ms_max"] or
                                    untraced["sampler_late_ms_max"], "ms"),
        "trace.overhead.latency_ms_p50": (
            p(traced, 50) - p(untraced, 50), "ms"),
        "trace.overhead.throughput_rps": (rps(traced) - rps(untraced),
                                          "req/s"),
    }
    return layers, len(spans)


def run(workload, seed, seconds, trace):
    spec = WORKLOADS[workload]
    build()
    image_path = image(spec["observations"])
    out_dir = RUNS / ("%s-seed%d-trace%d" % (workload, seed, trace))
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in out_dir.iterdir():
        stale.unlink()

    setups = []
    for _ in range(SETUP_BOOTS - 1):
        proc, _, took = boot(image_path, spec["live"])
        setups.append(took)
        stop(proc)
    proc, port, took = boot(image_path, spec["live"])
    setups.append(took)
    try:
        result = run_client(workload, seed, seconds, port, image_path, trace,
                            out_dir)
        rss = peak_rss_mb(proc.pid)
    finally:
        stop(proc)

    print("workload %s seed %d trace %d: %s" % (
        workload, seed, trace, json.dumps(result["defaults"], sort_keys=True)))
    if trace:
        metrics, n_spans = per_layer(result, out_dir)
        for name, (value, unit) in metrics.items():
            print("  %-34s %14.4f %s" % (name, value, unit))
        print("  spans: %d written to %s" % (n_spans, out_dir / "spans.jsonl"))
    else:
        gated, extra = end_to_end(workload, result, setups, rss)
        for name, (value, unit, n) in {**gated, **extra}.items():
            print("  %-34s %14.4f %-6s (n=%d)" % (name, value, unit, n))
        metrics = {k: (v, u) for k, (v, u, _) in gated.items()}
    for message in result["validation_messages"]:
        print("  validation failure: " + message)
    return {
        "correct": result["failed"] == 0,
        "attempted": max(1, result["attempted"]),
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def smoke():
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            out = run(workload, 1, SMOKE_SECONDS, trace)
            if not out["correct"]:
                problems.append("%s trace %d: validation failed" % (workload,
                                                                   trace))
            for metric in listed:
                got = out["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append("%s trace %d: %s missing or not in %s" % (
                        workload, trace, metric["name"], metric["unit"]))
    for problem in problems:
        print("smoke: " + problem)
    print("smoke: %s" % ("FAIL" if problems else "ok"))
    return not problems


def main():
    # A terminated run still stops the server and client it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        sys.exit(0 if smoke() else 1)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    out = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(out))
    sys.exit(0 if out["correct"] else 1)


if __name__ == "__main__":
    main()
