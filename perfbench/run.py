#!/usr/bin/env python3
"""Loopback benchmark of `vsim serve`.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload knn-ram --seed 1 --seconds 10 --trace 0

It builds the library, the `vsim` CLI and the benchmark harness from
source (into .bench_build/), generates a seeded mesh corpus, measures
set-up (`vsim build` extraction plus `vsim serve` start, up to the first
answered query) several times, then drives the last server with the
closed-loop load generator and checks every answer. `--trace 1` runs
the same pipeline once more and adds the in-process layer replay; it
reports the per-layer metrics instead of the end-to-end ones.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

# Query shape and the load generator's closed loop: WINDOW callers, each
# waiting for its reply, keep the server's workers busy, so throughput
# follows the server's CPU cost rather than wake-up latencies.
K = 10
WINDOW = 32
# Server workers (per workload) + reactor loops + load-generator threads
# stay within 4 cores: 2 + 1 + 1, or 1 + 1 + 1 on knn-cached.
REACTOR_THREADS = 1
# The load generator runs on the last CPU, the server on the others, so
# the scheduler cannot stack the client thread onto a server thread.
ALL_CPUS = sorted(os.sched_getaffinity(0))
CLIENT_CPUS = {ALL_CPUS[-1]}
SERVER_CPUS = set(ALL_CPUS[:-1]) or CLIENT_CPUS
# Set-up is measured this many times per run; the median is reported.
SETUP_REPS = 3
# Sampled queries checked against the brute-force Definition 6.
BRUTE_FORCE_SAMPLE = 12
# Objects whose voxelization and cover search the replay times.
EXTRACT_SAMPLE = 200
# The disk workload's buffer pool: well below the ~154 pages of the
# 2 000-object store, so refinement really goes through page misses.
DISK_POOL_PAGES = 32
# Stops a server that outlives the run (a crashed benchmark, say).
SERVER_LIFETIME_S = 170

WORKLOADS = {
    # Exact 10-NN over 2 000 aircraft-like objects, RAM-resident, no
    # result cache: refinement dominates.
    "knn-ram": {"count": 2000, "store": False, "cache_mb": 0, "threads": 2},
    # The same corpus and queries served from a VectorSetStore through a
    # small sharded buffer pool.
    "knn-disk": {"count": 2000, "store": True, "cache_mb": 0, "threads": 2},
    # 500 objects with the result cache on: after the warm-up pass every
    # measured query is a cache hit, so the wire and the service layer
    # are the whole cost.
    "knn-cached": {"count": 500, "store": False, "cache_mb": 8, "threads": 1},
}

END_TO_END = {
    "setup_s": "s",
    "qps": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "cpu_us_per_query": "us",
    "rss_mb": "MB",
}

PER_LAYER = {
    "features.ingest_s": "s",
    "voxel.voxelize_ms": "ms",
    "features.cover_ms": "ms",
    "service.start_s": "s",
    "core.db_load_s": "s",
    "index.engine_build_s": "s",
    "index.mtree_build_s": "s",
    "index.xtree_build_s": "s",
    "storage.store_write_s": "s",
    "core.knn_us": "us",
    "index.filter_us": "us",
    "distance.exact_calls": "count",
    "distance.refine_us": "us",
    "distance.matching_us": "us",
    "kernels.cost_matrix_ns": "ns",
    "distance.assignment_us": "us",
    "storage.get_us": "us",
    "cache.pool_misses_per_query": "count",
    "cache.pool_hit_ratio": "ratio",
    "service.queue_wait_us": "us",
    "service.overhead_us": "us",
    "service.cache_hit_ratio": "ratio",
    "net.rtt_overhead_us": "us",
    "net.codec_us": "us",
    "bench.trace_overhead_us": "us",
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def fail(message):
    """Ends the run without a result line."""
    log("perfbench: " + message)
    sys.exit(2)


def last_json(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError("no output")
    return json.loads(lines[-1])


class Bench:
    def __init__(self, root, workload, seed, seconds, trace):
        self.root = root
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.build_dir = os.path.join(root, ".bench_build", "perfbench")
        self.vsim = os.path.join(self.build_dir, "vsim", "tools", "vsim")
        self.harness = os.path.join(self.build_dir, "perfbench_harness")
        self.work = os.path.join(root, ".bench_build", "work", workload)
        self.servers = []

    # ------------------------------------------------------------ build

    def build(self):
        jobs = str(os.cpu_count() or 1)
        # Configuring every time keeps a reused build directory in step
        # with edited CMake files; an unchanged tree configures in seconds.
        self.run_quiet(["cmake", "-S", os.path.join(self.root, "perfbench"),
                        "-B", self.build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        self.run_quiet(["cmake", "--build", self.build_dir, "-j", jobs,
                        "--target", "perfbench_harness"])

    @staticmethod
    def run_quiet(cmd):
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise RuntimeError("command failed: " + " ".join(cmd))
        return done.stdout

    # ----------------------------------------------------------- corpus

    def corpus(self):
        """The seeded mesh files; reused by later runs with the same seed."""
        path = os.path.join(self.root, ".bench_build", "corpus",
                            "aircraft-%d-%d" % (self.workload["count"], self.seed))
        done = os.path.join(path, ".complete")
        if not os.path.exists(done):
            shutil.rmtree(path, ignore_errors=True)
            self.run_quiet([self.vsim, "generate", "--dataset", "aircraft",
                            "--count", str(self.workload["count"]),
                            "--seed", str(self.seed), "--out", path])
            open(done, "w").close()
        return path

    # ----------------------------------------------------------- set-up

    def start_server(self, db, port_file, out_log):
        cmd = [self.vsim, "serve", "--db", db, "--port", "0",
               "--port-file", port_file, "--transport", "epoll",
               "--threads", str(self.workload["threads"]),
               "--reactor-threads", str(REACTOR_THREADS),
               "--cache-mb", str(self.workload["cache_mb"]),
               "--duration-s", str(SERVER_LIFETIME_S)]
        if self.workload["store"]:
            store = os.path.join(self.work, "served.vspg")
            if os.path.exists(store):
                os.remove(store)
            cmd += ["--store", store, "--pool-pages", str(DISK_POOL_PAGES)]
        server = subprocess.Popen(
            cmd, stdout=out_log, stderr=subprocess.STDOUT,
            preexec_fn=lambda: os.sched_setaffinity(0, SERVER_CPUS))
        self.servers.append(server)
        return server

    def stop_servers(self):
        for server in self.servers:
            if server.poll() is None:
                server.send_signal(signal.SIGTERM)
        for server in self.servers:
            try:
                server.wait(timeout=20)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
        self.servers = []

    def setup_once(self, meshes, rep):
        """Mesh files on disk -> first answered query. Returns the server."""
        db = os.path.join(self.work, "corpus.vsimdb")
        port_file = os.path.join(self.work, "port")
        for stale in (db, port_file):
            if os.path.exists(stale):
                os.remove(stale)
        start = time.monotonic()
        self.run_quiet([self.vsim, "build", "--in", meshes, "--db", db,
                        "--threads", str(os.cpu_count() or 1)])
        built = time.monotonic()
        out_log = open(os.path.join(self.work, "serve-%d.log" % rep), "w")
        server = self.start_server(db, port_file, out_log)
        out_log.close()
        probe = subprocess.run(
            [self.harness, "probe", "--port-file", port_file,
             "--timeout-s", "120", "--k", str(K)],
            stdout=subprocess.PIPE, text=True)
        if probe.returncode != 0 or server.poll() is not None:
            raise RuntimeError("server did not answer its first query")
        answered = last_json(probe.stdout)
        return server, answered["port"], {
            "setup_s": answered["answered_mono_s"] - start,
            "features.ingest_s": built - start,
            "service.start_s": answered["answered_mono_s"] - built,
        }

    # -------------------------------------------------------------- run

    def run(self):
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        meshes = self.corpus()
        db = os.path.join(self.work, "corpus.vsimdb")
        reps = 1 if self.trace else SETUP_REPS
        setups = []
        for rep in range(reps):
            self.stop_servers()
            server, port, times = self.setup_once(meshes, rep)
            setups.append(times)

        load = subprocess.run(
            [self.harness, "load", "--port", str(port),
             "--server-pid", str(server.pid), "--db", db, "--k", str(K),
             "--window", str(WINDOW), "--seconds", str(self.seconds),
             "--seed", str(self.seed), "--sample", str(BRUTE_FORCE_SAMPLE)],
            stdout=subprocess.PIPE, text=True,
            preexec_fn=lambda: os.sched_setaffinity(0, CLIENT_CPUS))
        self.stop_servers()
        if load.returncode != 0:
            raise RuntimeError("load generator failed")
        result = last_json(load.stdout)
        log("load: %s" % json.dumps(result))
        correct = bool(result["correct"])
        attempted = result["attempted"] + reps
        failed = result["failed"]

        if not self.trace:
            values = {name: result[name] for name in END_TO_END
                      if name != "setup_s"}
            values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
            units = END_TO_END
        else:
            replay = subprocess.run(
                [self.harness, "replay", "--db", db, "--meshes", meshes,
                 "--work", self.work, "--seed", str(self.seed), "--k", str(K),
                 "--disk", "1" if self.workload["store"] else "0",
                 "--pool-pages", str(DISK_POOL_PAGES),
                 "--threads", str(self.workload["threads"]),
                 "--cache-mb", str(self.workload["cache_mb"]),
                 "--extract-sample", str(EXTRACT_SAMPLE)],
                stdout=subprocess.PIPE, text=True)
            if replay.returncode != 0:
                raise RuntimeError("replay failed")
            traced = last_json(replay.stdout)
            log("replay: %s" % json.dumps(traced))
            correct = correct and bool(traced["correct"])
            values = dict(traced)
            values.update(setups[0])
            for name in ("net.rtt_overhead_us", "service.cache_hit_ratio",
                         "service.queue_wait_us"):
                values[name] = result[name]
            # Pool counters come from the server's scrape where the server
            # has a pool; elsewhere from the replay's store at the same
            # pool size.
            for name in ("pool_misses_per_query", "pool_hit_ratio"):
                values["cache." + name] = (
                    result["cache." + name] if self.workload["store"]
                    else traced["replay." + name])
            units = PER_LAYER

        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items()}
        return {"correct": correct, "attempted": attempted,
                "failed": failed, "metrics": metrics}, result["kernels"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("CMakeLists.txt", os.path.join("src", "vsim")):
        if not os.path.exists(os.path.join(root, needed)):
            fail("run from the root of a vsim source checkout (%s missing)"
                 % needed)

    bench = Bench(root, args.workload, args.seed, args.seconds, args.trace)
    try:
        bench.build()
        output, kernel_set = bench.run()
    except (RuntimeError, OSError, ValueError, KeyError) as error:
        fail(str(error))
    finally:
        bench.stop_servers()
    print("# host %s, nproc %d, kernels %s, build RelWithDebInfo (-O2 -g)"
          % (platform.node(), os.cpu_count() or 0, kernel_set))
    print(json.dumps(output))


if __name__ == "__main__":
    main()
