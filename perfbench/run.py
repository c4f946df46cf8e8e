#!/usr/bin/env python3
"""The repository benchmark: real `tracon dynamic` runs, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the `tracon` CLI, the
`telemetry_check` validator and the traced-run program (perfbench/
CMakeLists.txt) in .bench_build/ as an optimized build; later runs only
bring that build up to date. Results files land in .bench_build/results/.

Workloads are closed loops: one `tracon` process at a time, started by
this script after the previous one exits. NAME is one of WORKLOADS, or
`all` to run every workload in turn. The benchmark seed N picks the CLI
seeds (`--seed` of tracon) of the run: N, N + SEED_STRIDE, ..., as many
as CLI_SEEDS gives the workload, so that the simulated results average
over several generated systems. HELD_OUT_SEED is kept out of tuning, for
confirming later claims.

--trace 0 measures the end-to-end metrics of the untraced CLI: set-up
time (the same command with the horizon cut to SETUP_HOURS, repeated
SETUP_REPS times), then one full invocation per CLI seed, and more,
cycling through the seeds, as long as the next one is expected to end
within S seconds. Every invocation runs cold in a fresh scratch
directory that is deleted afterwards. Its peak RSS comes from its own
wait4() rusage.
wall_s is the fastest invocation's and tasks_per_s (simulated tasks
completed / wall time) the highest; setup_s and peak_rss_mb are
medians over the invocations; normalized_throughput and
mean_runtime_s, which the CLI seed fixes, are means over the CLI seeds;
ok_frac is 1 - failed/attempted.

--trace 1 alternates an untraced CLI invocation with the traced program on
the same arguments, within S seconds in the same way, and reports the
per-layer metrics the tracer measures, plus the tracing overhead. The
traced run must reproduce the CLI's summary exactly.

Output checks (each failure counts the invocation as failed): exit code
0; a summary with finite, self-consistent figures; the same summary (and,
for workloads with sinks, the same export bytes) as every earlier run of
the same CLI seed with the same `tracon` binary; the exports pass
telemetry_check once per binary. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The exit code is 1
when an output check failed, 2 when the benchmark could not run at all.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
TRACON_BUILD = os.path.join(BUILD, "tracon")
TRACE_BUILD = os.path.join(BUILD, "trace")
TRACON = os.path.join(TRACON_BUILD, "tools", "tracon")
TELEMETRY_CHECK = os.path.join(TRACON_BUILD, "tools", "telemetry_check")
TRACER = os.path.join(TRACE_BUILD, "perfbench_trace")
SPAWN = os.path.join(TRACE_BUILD, "perfbench_spawn")
SCRATCH = os.path.join(BUILD, "scratch")
RESULTS = os.path.join(BUILD, "results")
REFS = os.path.join(BUILD, "refs")

HELD_OUT_SEED = 20111
SEED_STRIDE = 7919
SETUP_HOURS = "0.001"  # 3.6 virtual seconds: set-up, and almost no simulation
SETUP_REPS = 3
INVOCATION_TIMEOUT_S = 120

# --threads 3 leaves one of four cores to this script.
WORKLOADS = {
    "paper-mix": [
        "--machines", "64", "--lambda", "160", "--hours", "10",
        "--mix", "heavy", "--scheduler", "mix", "--confidence-weighting"],
    "fleet-1e5": [
        "--machines", "100000", "--lambda", "100000", "--hours", "1",
        "--threads", "3"],
    "provenance-4096": [
        "--machines", "4096", "--lambda", "4096", "--hours", "1",
        "--threads", "3", "--rebalance"],
}
# CLI seeds per run. One seed's normalized throughput and mean runtime
# sit up to ~7% from the seed-to-seed median, so each run averages its
# simulated metrics over several, as many as fit about 25 s of runs.
CLI_SEEDS = {"paper-mix": 6, "fleet-1e5": 3, "provenance-4096": 3}
# Export files per sink flag; written into the invocation's scratch dir.
SINKS = {
    "provenance-4096": {
        "metrics-out": "metrics.json", "series-out": "series.jsonl",
        "decisions-out": "decisions.jsonl", "spans-out": "spans.jsonl"},
}
TELEMETRY_CHECK_FLAGS = {
    "metrics-out": "--metrics", "series-out": "--series",
    "decisions-out": "--decisions", "spans-out": "--spans"}


SUMMARY = re.compile(
    r"completed (\d+) \(FIFO (\d+), normalized (\S+)\)\n"
    r"\s*dropped (\d+)\s+mean runtime (\S+) s")


class Failure(Exception):
    """An output check failed."""


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_quiet(argv, log):
    # Compiler temporaries stay in the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    with open(log, "a") as out:
        out.write("$ " + " ".join(argv) + "\n")
        out.flush()
        if subprocess.run(argv, stdout=out, stderr=subprocess.STDOUT,
                          env=dict(os.environ, TMPDIR=tmp)).returncode:
            with open(log) as f:
                sys.stderr.write("".join(f.readlines()[-30:]))
            die(f"command failed: {' '.join(argv)} (log: {log})")


def build():
    """Configures (once) and brings up to date the optimized build."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die(f"{ROOT} is not a tracon source tree")
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(TRACON_BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", ROOT, "-B", TRACON_BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"], log)
    run_quiet(["cmake", "--build", TRACON_BUILD, "-j", jobs,
               "--target", "tracon", "telemetry_check"], log)
    if not os.path.isfile(os.path.join(TRACE_BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                   "-B", TRACE_BUILD, "-DCMAKE_BUILD_TYPE=Release",
                   f"-DTRACON_BUILD_DIR={TRACON_BUILD}"], log)
    run_quiet(["cmake", "--build", TRACE_BUILD, "-j", jobs], log)


def host_stamp():
    """Host and build identity; refuses a build without optimization."""
    cache = {}
    with open(os.path.join(TRACON_BUILD, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"([A-Za-z_0-9]+):[A-Z]+=(.*)", line)
            if m:
                cache[m.group(1)] = m.group(2)
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join([cache.get("CMAKE_CXX_FLAGS", ""),
                      cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", "")])
    if build_type not in ("Release", "RelWithDebInfo") or not re.search(
            r"-O[23]\b", flags):
        die(f"refusing to report numbers from a non-optimized build "
            f"(build type '{build_type}', flags '{flags.strip()}')")
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()[:1]

    def git(*argv):
        try:
            r = subprocess.run(["git", "-C", ROOT, *argv], capture_output=True,
                               text=True, timeout=30)
        except OSError:
            return None
        return r.stdout.strip() if r.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = (git("status", "--porcelain", "--untracked-files=no")
              if sha else None)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "compiler": version[0] if version else compiler,
        "build_type": build_type,
        "cxx_flags": flags.strip(),
        "git_sha": sha,
        "git_dirty": bool(status) if sha else None,
        "tracon": os.path.relpath(TRACON, ROOT),
        "tracon_sha256": file_sha256(TRACON),
    }


class Invocation:
    """One child process, run to completion in its own scratch directory."""

    counter = 0

    def __init__(self, argv):
        Invocation.counter += 1
        self.dir = os.path.join(
            SCRATCH, f"{os.getpid()}-{Invocation.counter}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.argv = argv
        self.exit_code = None
        self.wall_s = None
        self.peak_rss_mb = None
        self.stdout = ""

    def run(self):
        """Runs the command under perfbench_spawn, which takes its wall
        time and peak RSS from the command's own wait4() rusage."""
        out_path = os.path.join(self.dir, ".stdout")
        err_path = os.path.join(self.dir, ".stderr")
        report_path = os.path.join(self.dir, ".rusage")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen([SPAWN, report_path, *self.argv],
                                    cwd=self.dir, stdout=out, stderr=err)
            try:
                proc.wait(timeout=INVOCATION_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
            finally:
                if proc.poll() is None:
                    # The launcher kills and reaps the command.
                    proc.terminate()
                    proc.wait()
        self.exit_code = proc.returncode
        if os.path.isfile(report_path):
            with open(report_path) as f:
                code, wall, rss_kib = f.read().split()
            self.exit_code, self.wall_s = int(code), float(wall)
            self.peak_rss_mb = int(rss_kib) / 1024.0
        with open(out_path) as f:
            self.stdout = f.read()
        if self.exit_code != 0:
            with open(err_path) as f:
                sys.stderr.write(f.read()[-2000:])
        return self

    def path(self, name):
        return os.path.join(self.dir, name)

    def remove(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def cli_seeds(workload, seed):
    return [seed + SEED_STRIDE * i for i in range(CLI_SEEDS[workload])]


def cli_argv(program, workload, cli_seed, hours=None):
    argv = [program, "dynamic", *WORKLOADS[workload], "--seed", str(cli_seed)]
    if hours is not None:
        argv[argv.index("--hours") + 1] = hours
    for flag, name in SINKS.get(workload, {}).items():
        argv += [f"--{flag}", name]
    return argv


def parse_summary(inv):
    """The CLI summary figures; raises Failure unless sane."""
    if inv.exit_code != 0:
        raise Failure(f"exit code {inv.exit_code}: {' '.join(inv.argv)}")
    m = SUMMARY.search(inv.stdout)
    if not m:
        raise Failure("no summary in the output")
    completed, fifo = int(m.group(1)), int(m.group(2))
    dropped = int(m.group(4))
    normalized, mean_runtime = float(m.group(3)), float(m.group(5))
    if not (math.isfinite(normalized) and math.isfinite(mean_runtime)):
        raise Failure(f"non-finite summary figure: {m.group(0)!r}")
    if completed <= 0 or fifo <= 0 or mean_runtime <= 0:
        raise Failure(f"empty simulation: {m.group(0)!r}")
    if abs(normalized - completed / fifo) > 0.0006:
        raise Failure(f"normalized {normalized} != {completed}/{fifo}")
    return {"completed": completed, "fifo_completed": fifo,
            "normalized": normalized, "dropped": dropped,
            "mean_runtime_s": mean_runtime, "line": m.group(0)}


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Checker:
    """Holds each (workload, CLI seed) to the first result the same
    `tracon` binary produced for it, in this run or an earlier one. The
    binary, not the sources, keys the references: the exports stamp the
    build's `git describe`, which the configure step bakes into it."""

    def __init__(self, tracon_sha256):
        self.dir = os.path.join(REFS, tracon_sha256)
        os.makedirs(self.dir, exist_ok=True)

    def check(self, workload, cli_seed, inv):
        summary = parse_summary(inv)
        record = {"line": summary["line"], "exports": {}}
        for flag, name in SINKS.get(workload, {}).items():
            path = inv.path(name)
            if not os.path.isfile(path) or os.path.getsize(path) == 0:
                raise Failure(f"missing export {name}")
            record["exports"][name] = file_sha256(path)
        ref_path = os.path.join(self.dir, f"{workload}-{cli_seed}.json")
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                ref = json.load(f)
            if ref != record:
                raise Failure(f"{workload} seed {cli_seed} differs from its "
                              f"first run: {record} vs {ref}")
        else:
            self.telemetry_check(workload, inv)
            with open(ref_path, "w") as f:
                json.dump(record, f)
        return summary

    def telemetry_check(self, workload, inv):
        """Validates the exports once per binary (~6 s, untimed)."""
        marker = os.path.join(self.dir, f"{workload}.telemetry_checked")
        sinks = SINKS.get(workload, {})
        if not sinks or os.path.exists(marker):
            return
        argv = [TELEMETRY_CHECK]
        for flag, name in sinks.items():
            argv += [TELEMETRY_CHECK_FLAGS[flag], inv.path(name)]
        r = subprocess.run(argv, capture_output=True, text=True)
        if r.returncode != 0:
            raise Failure(f"telemetry_check failed: {r.stdout[-1000:]}"
                          f"{r.stderr[-1000:]}")
        open(marker, "w").close()


def median(values):
    return statistics.median(values) if values else math.nan


def mean(values):
    return statistics.fmean(values) if values else math.nan


def fits(start, seconds, walls):
    """Whether one more invocation, as long as the median one so far, still
    ends within the run's measuring time."""
    return time.perf_counter() - start + median(walls or [0.0]) <= seconds


def measure(workload, seed, seconds, checker, record):
    """The end-to-end metrics of the untraced CLI."""
    seeds = cli_seeds(workload, seed)
    attempted = failed = 0
    setup = []
    for i in range(SETUP_REPS):
        inv = Invocation(cli_argv(TRACON, workload, seeds[i % len(seeds)],
                                  SETUP_HOURS))
        try:
            inv.run()
        finally:
            inv.remove()
        attempted += 1
        if inv.exit_code != 0:
            failed += 1
        else:
            setup.append(inv.wall_s)
    record["setup_walls_s"] = setup

    runs = []
    start = time.perf_counter()
    while len(runs) < len(seeds) or fits(start, seconds, [
            r["wall_s"] for r in runs if r["wall_s"] is not None]):
        cli_seed = seeds[len(runs) % len(seeds)]
        inv = Invocation(cli_argv(TRACON, workload, cli_seed))
        attempted += 1
        try:
            inv.run()
            summary = checker.check(workload, cli_seed, inv)
        except Failure as e:
            print(f"perfbench: check failed: {e}", file=sys.stderr)
            failed += 1
            summary = None
        finally:
            inv.remove()
        runs.append({"cli_seed": cli_seed, "wall_s": inv.wall_s,
                     "peak_rss_mb": inv.peak_rss_mb, "summary": summary})
    record["invocations"] = runs

    ok = [r for r in runs if r["summary"]]
    per_seed = {r["cli_seed"]: r["summary"] for r in ok}
    # Other tenants of the host only ever slow an invocation down, and
    # they come and go within a run, so the fastest invocation is the
    # steadiest estimate of the program's own speed.
    metrics = {
        "wall_s": min([r["wall_s"] for r in ok], default=math.nan),
        "setup_s": median(setup),
        "tasks_per_s": max([r["summary"]["completed"] / r["wall_s"]
                            for r in ok], default=math.nan),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in ok]),
        "normalized_throughput": mean(
            [s["normalized"] for s in per_seed.values()]),
        "mean_runtime_s": mean(
            [s["mean_runtime_s"] for s in per_seed.values()]),
        "ok_frac": 1.0 - failed / attempted,
    }
    return attempted, failed, metrics


def trace(workload, seed, seconds, checker, record):
    """Per-layer metrics from the traced program, plus its overhead."""
    seeds = cli_seeds(workload, seed)
    attempted = failed = 0
    pairs = []
    layers = []
    spans_kept = os.path.join(RESULTS, f"{workload}-seed{seed}-spans.json")
    start = time.perf_counter()
    while not pairs or fits(start, seconds, [
            p["cli_wall_s"] + p["traced_wall_s"] for p in pairs
            if "failed" not in p]):
        cli_seed = seeds[len(pairs) % len(seeds)]
        cli = Invocation(cli_argv(TRACON, workload, cli_seed))
        traced = Invocation(cli_argv(TRACER, workload, cli_seed) +
                            ["--spans-file", "trace_spans.json"])
        attempted += 2
        try:
            cli.run()
            expected = checker.check(workload, cli_seed, cli)
            traced.run()
            got = parse_summary(traced)
            if got["line"] != expected["line"]:
                raise Failure(f"traced run differs from the CLI: "
                              f"{got['line']!r} vs {expected['line']!r}")
            m = re.search(r"^perfbench\.layers (\{.*\})$", traced.stdout, re.M)
            if not m:
                raise Failure("no per-layer line in the traced output")
            values = json.loads(m.group(1))
            shutil.copyfile(traced.path("trace_spans.json"), spans_kept)
            traced_wall = traced.wall_s - values.pop("trace.untimed_s")
            layers.append(values)
            pairs.append({"cli_seed": cli_seed, "cli_wall_s": cli.wall_s,
                          "traced_wall_s": traced_wall})
        except Failure as e:
            print(f"perfbench: check failed: {e}", file=sys.stderr)
            failed += 1
            pairs.append({"cli_seed": cli_seed, "failed": str(e)})
        finally:
            cli.remove()
            traced.remove()
    record["pairs"] = pairs
    record["spans_file"] = os.path.relpath(spans_kept, ROOT)

    metrics = {}
    if layers:
        for name in layers[0]:
            metrics[name] = median([v[name] for v in layers])
        ok = [p for p in pairs if "failed" not in p]
        metrics["trace.wall_s"] = median([p["traced_wall_s"] for p in ok])
        metrics["trace.overhead_frac"] = median(
            [p["traced_wall_s"] / p["cli_wall_s"] - 1.0 for p in ok])
    return attempted, failed, metrics


def run_workload(workload, seed, seconds, traced, stamp, checker, units):
    seeds = cli_seeds(workload, seed)
    record = {"workload": workload, "seed": seed, "cli_seeds": seeds,
              "seconds": seconds, "trace": int(traced), "host": stamp}
    fn = trace if traced else measure
    attempted, failed, metrics = fn(workload, seed, seconds, checker, record)
    if failed == 0 and set(metrics) != set(units):
        die(f"metrics {sorted(set(metrics) ^ set(units))} disagree with "
            f"BENCHMARK.json")
    record.update(attempted=attempted, failed=failed, metrics=metrics)
    path = os.path.join(RESULTS,
                        f"{workload}-seed{seed}-trace{int(traced)}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    print(f"== {workload} (seed {seed}, CLI seeds {seeds}) ==")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:16.6f} {units[name]}")
    print(f"  results: {os.path.relpath(path, ROOT)}")
    return attempted, failed, metrics


def declared_units(traced):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per workload (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    units = declared_units(args.trace)
    build()
    os.makedirs(RESULTS, exist_ok=True)
    stamp = host_stamp()
    checker = Checker(stamp["tracon_sha256"])
    print("host: " + json.dumps(stamp))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    result = {}
    for name in names:
        a, f, metrics = run_workload(name, args.seed, args.seconds,
                                     bool(args.trace), stamp, checker, units)
        attempted += a
        failed += f
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, value in metrics.items():
            result[prefix + metric] = {
                "value": value if math.isfinite(value) else None,
                "unit": units.get(metric, "?")}
    correct = failed == 0 and all(
        m["value"] is not None for m in result.values())
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
