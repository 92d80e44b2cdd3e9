#!/usr/bin/env python3
"""Serving benchmark for medrelax: RELAX-by-term over loopback TCP.

Run from the repository root:

    python3 perfbench/run.py --workload term-zipf --seed 1 --seconds 35 \
        --trace 0

One run builds the server, the ingest tool and perfbench from source
into .bench_build/ (perfbench/CMakeLists.txt), generates the fixed
64 000-concept world (GenerateWorld) and the workload's RELAX lines from
--seed, ingests the world into a flat image with medrelax_ingest, then drives
`medrelax_server serve --image IMG --listen 0` from one client process
(perfbench load: one thread, at most min(4, nproc) connections plus
one control connection). Every reply is checked against an in-process
oracle on the same image (perfbench check); a wrong answer makes the
run exit non-zero. Workloads, server flags and provenance live in
perfbench/workloads.json; a run's files (and, traced, its spans.json) stay
in .bench_build/run/<workload>/ until the next run of that workload.

The load comes in rounds (the workload's "rounds"), each a short warm-up,
an open-loop window and a closed-loop window. Before, between and after
the rounds, while the measured server idles, the run takes its other
samples: starts of spare servers, each timed to its first answer and then
sent RELOAD probes, and (between rounds) ingests of a spare image. So
every metric is sampled across the whole run,
and each is reported as the median of its samples (the latency and
throughput ones as the median over rounds), which keeps a burst of host
interference in one part of the run from setting it.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same workload,
then the traced in-process chain (perfbench trace) and prints the
per-layer metrics. The last stdout line is the JSON result; the lines
before it are a human-readable report with the run context.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.abspath(".bench_build")
BUILD_TYPE = "RelWithDebInfo"
CONNS = min(4, os.cpu_count() or 1)
SPARE_STARTS = 2  # spare-server starts before, between and after the rounds

# Workload definitions and their provenance (perfbench/workloads.json).
with open(os.path.join(HERE, "workloads.json")) as _f:
    CONFIG = json.load(_f)
WORKLOADS = CONFIG["workloads"]
SERVICE_FLAGS = ["--workers", str(CONFIG["server"]["workers"]),
                 "--queue", str(CONFIG["server"]["queue"]),
                 "--cache", str(CONFIG["server"]["cache_capacity"])]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run(cmd):
    """Runs cmd to completion; its stdout is returned, stderr passes on."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError("command failed (%d): %s" % (proc.returncode,
                                                         " ".join(cmd)))
    return proc.stdout


def flush_to_disk(path):
    """Writes `path` back now rather than during a later measurement."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)


def build():
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                    "--target", "perfbench", "medrelax_server",
                    "medrelax_ingest"],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    return (os.path.join(BUILD, "perfbench"),
            os.path.join(BUILD, "medrelax", "tools", "medrelax_server"),
            os.path.join(BUILD, "medrelax", "tools", "medrelax_ingest"))


class Server:
    """One medrelax_server process serving IMG on an ephemeral port."""

    def __init__(self, binary, image, log_path):
        self.log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [binary, "serve", "--image", image, "--listen", "0"]
            + SERVICE_FLAGS,
            stdout=subprocess.PIPE, stderr=self.log)
        try:
            banner = self.proc.stdout.readline().decode()
            if not banner.startswith("ok listening port="):
                raise RuntimeError("server did not start: %r" % banner)
        except BaseException:
            self.stop()
            raise
        self.port = int(banner.split("port=")[1])

    def session(self):
        sock = socket.create_connection(("127.0.0.1", self.port))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        reader = sock.makefile("rb")
        reader.readline()  # "ok serving ..."
        return sock, reader

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for row in f:
                if row.startswith("VmHWM:"):
                    return int(row.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def read_reply(reader):
    """One RELAX/STATS reply: a single `err`/`ok` line, or up to `end`."""
    first = reader.readline().decode()
    if not first:
        raise RuntimeError("server closed the session")
    if first.startswith("err ") or not (first.startswith("ok relax ")
                                        or first.startswith("ok stats")):
        return first
    out = [first]
    while out[-1] != "end\n":
        out.append(reader.readline().decode())
    return "".join(out)


def timed_start(binary, image, first_line, log_path):
    """Starts a server; returns (server, seconds from exec to the first
    RELAX answer, that answer)."""
    start = time.perf_counter()
    server = Server(binary, image, log_path)
    try:
        sock, reader = server.session()
        sock.sendall((first_line + "\n").encode())
        reply = read_reply(reader)
        elapsed = time.perf_counter() - start
        sock.close()
    except BaseException:
        server.stop()
        raise
    return server, elapsed, reply


def server_stats(server):
    sock, reader = server.session()
    sock.sendall(b"STATS\n")
    block = read_reply(reader)
    sock.close()
    stats = {}
    for row in block.splitlines()[1:-1]:
        key, _, value = row.partition("=")
        stats[key] = value
    return stats


def reload_round_trips(server, image, count):
    """Milliseconds of `count` RELOAD round trips on one session."""
    sock, reader = server.session()
    times = []
    try:
        for _ in range(count):
            start = time.perf_counter()
            sock.sendall(("RELOAD %s\n" % image).encode())
            reply = reader.readline().decode()
            times.append((time.perf_counter() - start) * 1e3)
            if not reply.startswith("ok reload "):
                raise RuntimeError("RELOAD failed: %r" % reply)
    finally:
        sock.close()
    return times


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    w = WORKLOADS[args.workload]
    rounds = w["rounds"]

    bench, server_bin, ingest_bin = build()
    # One directory per workload, replaced by its next run, so old images
    # are not written back to disk while a later run measures.
    work = os.path.join(BUILD, "run", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    image = os.path.join(work, w["mapper"] + ".img")
    server_log = os.path.join(work, "server.log")

    gen = json.loads(run([bench, "gen", work, "--seed", str(args.seed),
                          "--world-seed", str(CONFIG["world"]["world_seed"]),
                          "--concepts", str(CONFIG["world"]["concepts"]),
                          "--lines", w["lines"],
                          "--count", str(w["candidates"])]))

    ingest_times = []

    def ingest(out):
        cmd = [ingest_bin, work, out] + (
            ["--exact"] if w["mapper"] == "exact" else [])
        start = time.perf_counter()
        run(cmd)
        ingest_times.append(time.perf_counter() - start)
        flush_to_disk(out)

    # The served image is ingested once and never rewritten (a live server
    # maps it); the later ingests, between rounds, write a spare image.
    ingest(image)

    prepared = json.loads(run([bench, "prepare", work, "--image", image,
                               "--max", str(w["distinct"])]))
    with open(os.path.join(work, "lines.tsv")) as f:
        first_line = f.readline().rstrip("\n").split("\t")[4]

    setup_times, reload_times, loads = [], [], []
    servers = []
    try:
        with open(os.path.join(work, "setup_replies.tsv"), "w") as replies:
            def start_server():
                server, elapsed, reply = timed_start(server_bin, image,
                                                     first_line, server_log)
                setup_times.append(elapsed)
                replies.write("0\t" + reply.replace("\n", "\x1f") + "\n")
                return server

            server = start_server()
            servers.append(server)
            warmup, open_s, closed_s = (args.seconds * x / rounds
                                        for x in w["phases"])
            ticks_before = cpu_ticks()
            for r in range(rounds + 1):
                # Before, between and after the rounds the measured server
                # idles while the other end-to-end steps take samples.
                if 0 < r < rounds:
                    for _ in range(w["ingests_per_gap"]):
                        ingest(os.path.join(work, "spare.img"))
                for _ in range(SPARE_STARTS):
                    spare = start_server()
                    servers.append(spare)
                    reload_times += reload_round_trips(
                        spare, image, w["reloads_per_start"])
                    spare.stop()
                    servers.pop()
                if r == rounds:
                    break
                loads.append(json.loads(run(
                    [bench, "load", work, "--port", str(server.port),
                     "--seed", str(args.seed * 1000 + r),
                     "--zipf", str(w["zipf"]), "--warmup-s", str(warmup),
                     "--open-s", str(open_s), "--closed-s", str(closed_s),
                     "--rate", str(w["rate"]), "--conns", str(CONNS),
                     "--gen-probes", str(w["gen_probes"])])))
            ticks_after = cpu_ticks()
        stats = server_stats(server)
        rss_mb = server.peak_rss_mb()
        server.stop()
        servers.clear()
    finally:
        for s in servers:
            s.stop()

    check = json.loads(run([bench, "check", work, "--image", image]))

    def total(key):
        return sum(x[key] for x in loads)

    def median_of(key):
        return statistics.median(x[key] for x in loads)

    attempted = total("open_attempted") + total("closed_attempted")
    answered = total("open_ok") + total("closed_ok")
    failed = attempted - answered + total("refused")
    correct = check["mismatches"] == 0 and check["replies_checked"] > 0
    error_kinds = "; ".join(x["error_kinds"] for x in loads
                            if x["error_kinds"])
    rps = [x["closed_ok"] / x["closed_seconds"] for x in loads]

    steal = ((ticks_after[0] - ticks_before[0])
             / max(1, ticks_after[1] - ticks_before[1]))
    context = ("nproc=%d build_type=%s world_concepts=%d mapper=%s"
               " distinct_lines=%d cache_capacity=%d conns=%d workers=%d"
               " open_rate=%g rounds=%d seed=%d cpu_steal_share=%.4f" % (
                   os.cpu_count() or 1, BUILD_TYPE, gen["concepts"],
                   w["mapper"], prepared["lines"],
                   CONFIG["server"]["cache_capacity"], CONNS,
                   CONFIG["server"]["workers"], w["rate"], rounds, args.seed,
                   steal))
    print("# run " + context)
    print("# samples open=%d closed=%d setup=%d ingest=%d reloads=%d"
          " late_p99_ms=%.3f" % (total("open_ok"), total("closed_ok"),
                                 len(setup_times), len(ingest_times),
                                 len(reload_times), median_of("late_p99_ms")))
    print("# rounds relax_p50_us=%s relax_p99_us=%s relax_rps=%s" % (
        ",".join("%.0f" % x["open_p50_us"] for x in loads),
        ",".join("%.0f" % x["open_p99_us"] for x in loads),
        ",".join("%.1f" % x for x in rps)))
    print("# errors %d of %d attempted (error_share=%.6f): %s" % (
        attempted - answered, attempted,
        (attempted - answered) / max(1, attempted), error_kinds or "none"))
    print("# oracle lines=%d replies=%d mismatches=%d" % (
        check["lines_checked"], check["replies_checked"],
        check["mismatches"]))

    if args.trace == 0:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ingest_s": (statistics.median(ingest_times), "s"),
            "relax_p50_us": (median_of("open_p50_us"), "us"),
            "relax_rps": (statistics.median(rps), "1/s"),
            "answered_share": (answered / max(1, attempted), "ratio"),
            "reload_ms": (statistics.median(reload_times), "ms"),
            "rss_mb": (rss_mb, "MB"),
        }
    else:
        trace_cmd = [bench, "trace", work,
                     "--image-out", os.path.join(work, "trace.img"),
                     "--seed", str(args.seed), "--zipf", str(w["zipf"]),
                     "--requests", str(w["chain_requests"])] + SERVICE_FLAGS
        if w["mapper"] == "exact":
            trace_cmd.append("--exact")
        t = json.loads(run(trace_cmd))
        hits = int(stats["cache_hits"])
        completed = max(1, int(stats["completed"]))
        floor_us = (t["protocol.parse_p50_ns"] / 1e3 + t["matching.map_p50_us"]
                    + t["service.relax_p50_us"] + median_of("gen_p50_us"))
        print("# chain requests=%d computed=%d" % (t["chain.requests"],
                                                   t["relax.computed"]))
        metrics = {
            "net.gen_rtt_p50_us": (median_of("gen_p50_us"), "us"),
            "protocol.parse_p50_ns": (t["protocol.parse_p50_ns"], "ns"),
            "matching.map_p50_us": (t["matching.map_p50_us"], "us"),
            "matching.map_p99_us": (t["matching.map_p99_us"], "us"),
            "matching.candidates_mean": (t["matching.candidates_mean"],
                                         "count"),
            "matching.exact_key_share": (t["matching.exact_key_share"],
                                         "ratio"),
            "matching.trigram_build_ms": (t["matching.trigram_build_ms"],
                                          "ms"),
            "cache.hit_rate": (hits / completed, "ratio"),
            "cache.admission_rejects": (int(stats["admission_rejects"]),
                                        "count"),
            "cache.activity_evictions": (int(stats["activity_evictions"]),
                                         "count"),
        }
        for key, unit in (("service.relax_p50_us", "us"),
                          ("service.relax_p99_us", "us"),
                          ("service.wait_p50_us", "us"),
                          ("service.coalesced_share", "ratio"),
                          ("service.requests_per_invocation", "ratio"),
                          ("service.queue_high_water", "count"),
                          ("service.rejected", "count"),
                          ("relax.total_p50_us", "us"),
                          ("relax.candidate_p50_us", "us"),
                          ("relax.scoring_p50_us", "us"),
                          ("relax.rank_p50_us", "us"),
                          ("relax.candidates_scanned_mean", "count"),
                          ("relax.neighbors_visited_mean", "count"),
                          ("relax.geometry_hit_rate", "ratio"),
                          ("snapshot.load_p50_ms", "ms"),
                          ("ingest.build_s", "s"),
                          ("ingest.write_s", "s"),
                          ("tracing.overhead_share", "ratio")):
            metrics[key] = (t[key], unit)
        metrics["e2e.relax_p99_us"] = (median_of("open_p99_us"), "us")
        metrics["loadgen.late_p99_ms"] = (median_of("late_p99_ms"), "ms")
        metrics["ledger.coverage"] = (floor_us / median_of("open_p50_us"),
                                      "ratio")

    for name, (value, unit) in metrics.items():
        print("%-34s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted + len(reload_times),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    # A SIGTERM unwinds like an exception, so every server gets stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.CalledProcessError,
            ValueError, KeyError) as err:
        log("perfbench: %s" % err)
        sys.exit(1)
