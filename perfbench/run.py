"""Host-time benchmark of the repro compiler, cache and serving stack.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
Workloads (rationale in ``perfbench/RATIONALE.md``):

* ``compile-cache`` — each sample is a cold job and a warm job, each a
  fresh interpreter.  The cold job compiles and prices the 30-module
  sweep into empty in-memory tiers (cold pass) and writes it to an
  empty disk tier (persist).  The warm job restores it from that tier
  (restart pass) and serves it again with fresh graph objects from
  memory (lookup pass).
* ``serve-mix`` — one process warms the serving oracle (set-up), then
  runs seeded nominal/overload open-loop load tests.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes a separate traced run and prints the per-layer
ones.  Samples and their correctness checks run in child processes
(``child.py``); this script never imports the program.  The last line
of output is the result object; the line before it records the
environment, the samples, any failed check and any count that differed
between two samples of the same seed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

from reference import timed_in_reference
from tracer import add_counts

perf_counter = time.perf_counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = pathlib.Path(__file__).resolve().parent
SRC = ROOT / "src"
RUN_LIMIT_S = 170.0  # every child ends by then, so a run ends within 180 s
RESTARTS = 1  # warm jobs per cold job
IMPORT_TIMINGS = 3  # set-up timings before each compile-cache job
# Per-layer names of the workloads' own passes.
PASS_METRICS = ("cold_compile_s", "lookup_s", "restart_s", "persist_s",
                "serve_req_per_s", "overload_req_per_s")


def child_env() -> tuple[dict, list[str]]:
    """The children's environment, and the ``REPRO_*`` names cleared
    from it: a stray ``REPRO_COMPILE_CACHE_DIR`` would turn a cold
    compile warm, and ``REPRO_COMPILE_WORKERS`` would change threading."""
    env = dict(os.environ)
    cleared = sorted(name for name in env if name.startswith("REPRO_"))
    for name in cleared:
        del env[name]
    env["PYTHONPATH"] = str(SRC)
    return env, cleared


class Runner:
    """Starts child jobs and waits for each, within the run's time limit."""

    def __init__(self, seed: int, tmp: pathlib.Path):
        self.seed = seed
        self.tmp = tmp
        self.env, self.cleared = child_env()
        self.deadline = perf_counter() + RUN_LIMIT_S

    def _run(self, argv: list[str]) -> str:
        timeout = self.deadline - perf_counter()
        if timeout <= 0:
            raise SystemExit("benchmark run exceeded its time limit")
        done = subprocess.run(argv, env=self.env, cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            raise SystemExit(f"{' '.join(argv[1:3])} exited with "
                             f"{done.returncode}")
        return done.stdout

    def job(self, name: str, trace: int = 0, **options) -> dict:
        argv = [sys.executable, str(HERE / "child.py"), name,
                "--seed", str(self.seed), "--tmp", str(self.tmp),
                "--trace", str(trace)]
        for option, value in options.items():
            argv += [f"--{option}", str(value)]
        result = json.loads(self._run(argv).strip().splitlines()[-1])
        result["job"] = name
        return result

    def import_seconds(self) -> float:
        """Interpreter start plus ``import repro``, timed from outside,
        in reference seconds."""
        return timed_in_reference(
            self._run, [sys.executable, "-c", "import repro"])

    def repeat(self, sample, seconds: float, minimum: int) -> list:
        """Calls of ``sample`` until the next one would end after
        ``seconds`` (at least ``minimum`` of them)."""
        samples: list[dict] = []
        walls: list[float] = []
        start = perf_counter()
        while True:
            began = perf_counter()
            samples.append(sample())
            walls.append(perf_counter() - began)
            typical = statistics.median(walls)
            if len(samples) >= minimum and (
                    perf_counter() - start + typical > seconds
                    or perf_counter() + typical > self.deadline - 5):
                return samples


# -- workloads ----------------------------------------------------------------------

def median_of(samples: list[dict], key: str, kind: str = "passes") -> float:
    """Median of pass ``key`` over the samples that ran it, in host
    seconds (``passes``) or reference seconds (``reference_s``)."""
    return statistics.median(s[kind][key] for s in samples
                             if key in s[kind])


def merged(first: dict, second: dict) -> dict:
    """The traced cold and warm jobs as one traced sample: times and
    counts add up."""
    sample = {"passes": {**first["passes"], **second["passes"]},
              "pass_self_s": {**first["pass_self_s"],
                              **second["pass_self_s"]}}
    for key in ("sample_s", "unattributed_s"):
        sample[key] = first[key] + second[key]
    for key in ("counts", "self_s", "inclusive_s", "trace_counts"):
        sample[key] = add_counts(dict(first[key]), second[key])
    return sample


def compile_cache(runner: Runner, args) -> dict:
    runner.import_seconds()  # writes bytecode on a fresh checkout
    setup: list[float] = []

    def job(name: str, trace: int = 0) -> dict:
        # Set-up is timed before every job, so its median spans the run.
        setup.extend(runner.import_seconds() for _ in range(IMPORT_TIMINGS))
        return runner.job(name, trace)

    def sample() -> list[dict]:
        """One cold job, then RESTARTS warm jobs over the tier it wrote."""
        jobs = [job("cold")] + [job("warm") for _ in range(RESTARTS)]
        shutil.rmtree(runner.tmp / "tier")  # the next cold job starts empty
        return jobs

    traced = None
    if args.trace:
        samples = [job("cold"), job("warm")]
        shutil.rmtree(runner.tmp / "tier")
        cold, warm = job("cold", trace=1), job("warm", trace=1)
        traced = merged(cold, warm)
        traced["untraced_s"] = sum(s["sample_s"] for s in samples)
        traced["untraced_counts"] = add_counts(dict(samples[0]["counts"]),
                                               samples[1]["counts"])
        jobs = samples + [cold, warm]
    else:
        # A sample takes over 30 s, so at ``--seconds 10`` a run is always
        # the minimum of two samples; a larger ``--seconds`` adds more.
        samples = [job for jobs in runner.repeat(sample, args.seconds, 2)
                   for job in jobs]
        jobs = samples
    return {"setup_s": setup, "samples": samples, "traced": traced,
            "main": "cold_compile_s", "second": "restart_s", "jobs": jobs}


def serve_mix(runner: Runner, args) -> dict:
    seconds = args.seconds / 2 if args.trace else args.seconds
    result = runner.job("serve", trace=args.trace, seconds=seconds)
    for sample in result["samples"]:
        sample["job"] = "serve"
    traced = result.get("traced")
    if traced:
        traced["untraced_s"] = statistics.median(
            s["sample_s"] for s in result["samples"])
        traced["untraced_counts"] = result["samples"][0]["counts"]
    return {"setup_s": [result["setup_reference_s"]],
            "samples": result["samples"],
            "traced": traced, "main": "nominal_s",
            "second": "overload_s", "jobs": [result]}


WORKLOADS = {"compile-cache": compile_cache, "serve-mix": serve_mix}


# -- metrics ------------------------------------------------------------------------

def end_to_end(run: dict) -> dict[str, float]:
    samples = run["samples"]
    return {
        "setup_s": statistics.median(run["setup_s"]),
        "peak_rss_mb": max(s["peak_rss_mb"] for s in samples),
        "main_pass_s": median_of(samples, run["main"], "reference_s"),
        "second_pass_s": median_of(samples, run["second"], "reference_s"),
    }


def per_layer(run: dict) -> dict[str, float]:
    samples, traced = run["samples"], run["traced"]
    metrics: dict[str, float] = {}
    for layer, seconds in traced["self_s"].items():
        metrics[f"{layer}_s"] = seconds
    metrics.update(traced["inclusive_s"])
    metrics.update(traced["counts"])
    metrics.update(traced["trace_counts"])
    for prefix in ("compile_cache", "plan"):
        served = (metrics.get(f"{prefix}.hits", 0)
                  + metrics.get(f"{prefix}.disk_hits", 0))
        requests = served + metrics.get(f"{prefix}.misses", 0)
        metrics[f"{prefix}.hit_ratio"] = served / requests if requests else 0
    fired = metrics.pop("ir.simplify_fired_iterations", 0)
    iterations = metrics.get("ir.simplify_iterations", 0)
    metrics["ir.simplify_useful_ratio"] = (fired / iterations
                                           if iterations else 0.0)
    if metrics.get("serving.batches"):
        metrics["serving.mean_batch"] = (metrics["serving.completed"]
                                         / metrics["serving.batches"])
        nominal = [s["passes"]["nominal_s"] for s in samples]
        metrics["serving.loadtest_p90_s"] = (
            statistics.quantiles(nominal, n=10)[-1] if len(nominal) > 1
            else nominal[0])
    for name in PASS_METRICS:  # medians over the untraced samples
        if any(name in s["passes"] for s in samples):
            metrics[name] = median_of(samples, name)
    metrics["trace.sample_s"] = traced["sample_s"]
    metrics["trace.unattributed_s"] = traced["unattributed_s"]
    metrics["trace.overhead_s"] = traced["sample_s"] - traced["untraced_s"]
    return metrics


def count_drift(counts: list[dict], skip: str = "") -> tuple[int, list]:
    """Counts compared, and those that differ between runs of the same
    job and seed (names starting with ``skip`` are not compared).  With
    fewer than two runs nothing can differ, so nothing is compared."""
    if len(counts) < 2:
        return 0, []
    keys = sorted(key for key in set().union(*counts)
                  if not (skip and key.startswith(skip)))
    drift = []
    for key in keys:
        values = [c.get(key) for c in counts]
        if len(set(values)) > 1:
            drift.append(f"{key}: {values}")
    return len(keys), drift


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return done.stdout.strip() or None


def environment(cleared: list[str]) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "commit": git_commit(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg_start": os.getloadavg(),
            "repro_env_cleared": cleared}


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Terminated, unwind: the running child is killed and the temporary
    # directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"no program sources at {SRC}: run from a checkout root")
    declared = declared_metrics()

    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True)
    runner = Runner(args.seed, tmp)
    env = environment(runner.cleared)
    try:
        run = WORKLOADS[args.workload](runner, args)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    env["loadavg_end"] = os.getloadavg()

    failures = [f for job in run["jobs"] for f in job["failures"]]
    attempted = sum(job["attempted"] for job in run["jobs"])
    compared, drift = 0, []
    for job in sorted({s["job"] for s in run["samples"]}):
        more, found = count_drift([s["counts"] for s in run["samples"]
                                   if s["job"] == job])
        compared, drift = compared + more, drift + found
    if run["traced"]:
        # The tracer's own allocations shift the collection counts.
        more, found = count_drift(
            [run["traced"]["untraced_counts"], run["traced"]["counts"]],
            skip="python.gc_")
        compared, drift = compared + more, drift + found
    attempted += compared
    failures += [f"count drift: {d}" for d in drift]

    kind = "per_layer" if args.trace else "end_to_end"
    values = per_layer(run) if args.trace else end_to_end(run)
    names = {m["name"] for m in declared[kind]}
    metrics = {m["name"]: {"value": values.get(m["name"], 0),
                           "unit": m["unit"]} for m in declared[kind]}
    print(json.dumps({
        "env": env,
        "samples": [{"job": s["job"], "host_s": s["passes"],
                     "reference_s": s["reference_s"]}
                    for s in run["samples"]],
        "setup_s": run["setup_s"],
        "traced_pass_self_s": {
            name: {layer: round(seconds, 4) for layer, seconds
                   in sorted(layers.items(), key=lambda item: -item[1])}
            for name, layers
            in (run["traced"] or {}).get("pass_self_s", {}).items()},
        "failures": failures,
        "undeclared_metrics": sorted(set(values) - names),
    }))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


if __name__ == "__main__":
    main()
