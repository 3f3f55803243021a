#!/usr/bin/env python3
"""braidsub benchmark: closed-loop job lists, end-to-end and per-layer.

Run from the root of a source checkout (``src/braidsub`` must exist):

    python3 bench/run.py --workload tietze_ladder --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                  # every workload, default settings
    python3 bench/run.py --self-test      # checks of the benchmark itself

One client runs a workload's fixed job list, one job process at a time
(a closed loop), and repeats the whole list while the next pass still
fits in ``--seconds``.  Every answer is checked against the paper's
values (see checks.py), and every job's exact problem size must repeat
across passes.  With ``--trace 0`` the metrics are end to end; with
``--trace 1`` untraced and traced passes alternate, and the metrics are
per layer (see layers.py and METRICS.md).

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 when every answer is right, 1 when one is wrong, and
2 when the benchmark cannot run (for example, no ``src/braidsub``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
from layers import PER_LAYER, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("top_job_s", "s"),
    ("peak_rss_mb", "MB"),
)

# A run must end well inside 180 s, whatever --seconds asks for.
RUN_LIMIT_S = 165.0


class Unavailable(Exception):
    """The program under test cannot be started from this directory."""


class JobRunner:
    """Spawns job processes one at a time and collects their results."""

    def __init__(self, tmp: str):
        self.tmp = tmp
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.count = 0
        self.env = dict(os.environ)
        paths = [os.path.join(ROOT, "src"), self.env.get("PYTHONPATH", "")]
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        self.env["PYTHONHASHSEED"] = "0"
        self.env["BRAIDSUB_OUTDIR"] = os.path.join(tmp, "out")

    def process(self, jobs: list, trace: bool) -> dict:
        """Run one job process; returns its result plus ``setup`` seconds."""
        self.count += 1
        spec_path = os.path.join(self.tmp, "spec-%d.json" % self.count)
        result_path = os.path.join(self.tmp, "result-%d.json" % self.count)
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump({"jobs": jobs, "trace": trace}, fh)
        cmd = [sys.executable, os.path.join(HERE, "job.py"), spec_path, result_path]
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"failure": "job process killed at the run's time limit"}
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
        if proc.returncode != 0 or not os.path.exists(result_path):
            tail = err.decode(errors="replace").strip().splitlines()[-1:] or ["no output"]
            return {"failure": "job process exited %d: %s" % (proc.returncode, tail[0])}
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        os.remove(spec_path)
        os.remove(result_path)
        result["setup"] = result["ready"] - spawned
        return result

    def warm_up(self) -> None:
        """Import the package once (this also writes its bytecode cache)."""
        if not os.path.isfile(os.path.join(ROOT, "src", "braidsub", "__init__.py")):
            raise Unavailable("no src/braidsub under %s" % ROOT)
        result = self.process([], False)
        if "failure" in result:
            raise Unavailable(result["failure"])


def run_pass(runner: JobRunner, procs: list, trace: bool, tamper=None) -> dict:
    """One pass over the job list: job times, setups, sizes and problems."""
    jobs, setups, rss_kb, traces = {}, [], 0, []
    for spec in procs:
        result = runner.process(spec["jobs"], trace)
        if "failure" in result:
            for job in spec["jobs"]:
                jobs[job["name"]] = {"seconds": None, "sizes": {}, "problems": [result["failure"]]}
            continue
        setups.append(result["setup"])
        rss_kb = max(rss_kb, result["maxrss_kb"])
        if result["trace"] is not None:
            traces.append(result["trace"])
        for job, res in zip(spec["jobs"], result["jobs"]):
            answer = tamper(job, res["answer"]) if tamper else res["answer"]
            jobs[job["name"]] = {"seconds": res["seconds"], "sizes": res["sizes"],
                                 "problems": checks.check(job, answer)}
    wall = sum(j["seconds"] for j in jobs.values() if j["seconds"] is not None)
    return {"trace": trace, "jobs": jobs, "setups": setups, "rss_kb": rss_kb,
            "traces": traces, "wall": wall}


def measure(runner: JobRunner, workload: str, seed: int, seconds: float,
            trace: bool, tamper=None) -> dict:
    """Repeat the workload's passes while the next one fits in ``seconds``."""
    procs, top = WORKLOADS[workload](seed)
    random.Random(seed).shuffle(procs)
    kinds = (False, True) if trace else (False,)
    passes = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        passes += [run_pass(runner, procs, k, tamper) for k in kinds]
        now = time.monotonic()
        if now - start + (now - t0) > seconds or now + (now - t0) > runner.deadline:
            break
    # Problem sizes are exact counts: every pass must reproduce the first.
    first = passes[0]["jobs"]
    for p in passes[1:]:
        for name, job in p["jobs"].items():
            if job["sizes"] != first[name]["sizes"] and not job["problems"]:
                job["problems"].append("problem size differs from the first pass")
    return {"workload": workload, "seed": seed, "top": top, "passes": passes}


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def end_to_end(m: dict) -> dict:
    plain = [p for p in m["passes"] if not p["trace"]]
    return {
        "setup_s": _median(s for p in plain for s in p["setups"]),
        "wall_s": _median(p["wall"] for p in plain),
        "top_job_s": _median(p["jobs"][m["top"]]["seconds"] for p in plain),
        "peak_rss_mb": max(p["rss_kb"] for p in plain) / 1024.0,
    }


def per_layer(m: dict) -> dict:
    pairs = zip(m["passes"][0::2], m["passes"][1::2])
    rows = [layer_metrics(traced["traces"], traced["wall"], plain["wall"])
            for plain, traced in pairs]
    return {name: _median(r[name] for r in rows) for name, _, _ in PER_LAYER}


def tally(m: dict) -> tuple[int, int]:
    jobs = [j for p in m["passes"] for j in p["jobs"].values()]
    return len(jobs), sum(1 for j in jobs if j["problems"])


def report(m: dict, values: dict, trace: bool) -> None:
    """Human-readable lines: metrics with units and sample counts, sizes."""
    plain = [p for p in m["passes"] if not p["trace"]]
    attempted, failed = tally(m)
    nproc = sum(len(p["setups"]) for p in plain)
    print("workload %s: seed %d, closed loop, 1 client, %d job processes per pass, "
          "%d untraced and %d traced passes" % (m["workload"], m["seed"], len(plain[0]["setups"]),
                                                len(plain), len(m["passes"]) - len(plain)))
    if trace:
        for name, unit, _ in PER_LAYER:
            print("  %-45s %.6g %s" % (name, values[name], unit))
    else:
        walls = [p["wall"] for p in plain]
        notes = {
            "setup_s": "median of %d job processes" % nproc,
            "wall_s": "median of %d passes, range %.4f..%.4f" % (len(walls), min(walls), max(walls)),
            "top_job_s": "%s, median of %d passes" % (m["top"], len(plain)),
            "peak_rss_mb": "largest of %d job processes" % nproc,
        }
        for name, unit in END_TO_END:
            print("  %-12s %10.4f %-3s (%s)" % (name, values[name], unit, notes[name]))
    print("  %-12s %10.4f %-3s (%d of %d jobs wrong or crashed)"
          % ("error_rate", failed / attempted, "1", failed, attempted))
    for name, job in m["passes"][0]["jobs"].items():
        sizes = " ".join("%s=%s" % kv for kv in sorted(job["sizes"].items()))
        print("  size %s: %s" % (name, sizes))
    for p in m["passes"]:
        for name, job in p["jobs"].items():
            for problem in job["problems"]:
                print("WRONG %s: %s" % (name, problem), file=sys.stderr)


def main(argv=None, tamper=None) -> int:
    """Run the benchmark; ``tamper`` (self-test only) rewrites answers before checking."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        import selftest

        return selftest.main()
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            seconds = json.load(fh)["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    tmp = os.path.join(ROOT, ".bench_tmp", "run-%d" % os.getpid())
    os.makedirs(tmp)
    try:
        runner = JobRunner(tmp)
        try:
            runner.warm_up()
        except Unavailable as exc:
            print("cannot run the benchmark: %s" % exc, file=sys.stderr)
            return 2
        metrics, attempted, failed = {}, 0, 0
        for name in names:
            runner.deadline = time.monotonic() + RUN_LIMIT_S
            m = measure(runner, name, args.seed, seconds, bool(args.trace), tamper)
            values = per_layer(m) if args.trace else end_to_end(m)
            report(m, values, bool(args.trace))
            units = {n: u for n, u, _ in PER_LAYER} if args.trace else dict(END_TO_END)
            prefix = "" if len(names) == 1 else name + "."
            for key, value in values.items():
                metrics[prefix + key] = {"value": value, "unit": units[key]}
            a, f = tally(m)
            attempted += a
            failed += f
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:  # another run still uses it
            pass
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
