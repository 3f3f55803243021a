"""Self-test of the benchmark: ``python3 bench/run.py --self-test``.

It shows that

* the kernel-word generator is seeded: the same seed gives the same
  words, another seed other words, and every word is a freely reduced
  kernel word whose record carries its seed and actual length;
* a clean run of a small job list passes, and the exact problem sizes
  repeat between its untraced and its traced pass;
* a tampered answer of every job kind is caught: it counts as failed
  and the run exits nonzero;
* BENCHMARK.json names exactly the workloads and metrics run.py has;
* in a directory without ``src/braidsub`` the run fails without a result.

Exit code 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys

import kernel_words
import run
import workloads
from layers import PER_LAYER


def _mini(seed: int):
    def cli(name, *argv):
        return {"jobs": [{"name": name, "kind": "cli", "argv": list(argv)}]}

    words = kernel_words.kernel_words(seed, 4, (40, 80))
    procs = [
        cli("tietze", "tietze", "--script", "VBN_REDUCE", "--n", "4", "--format", "json"),
        cli("derive", "derive", "--group", "vb", "--n", "4", "--compare-paper", "--window", "-3..3"),
        cli("verify", "verify", "--lemma", "L7", "--n", "4", "--m-range", "-2..2"),
        {"jobs": [{"name": "profile.%s" % g, "kind": "profile", "group": g, "n": n,
                   "radii": [4, 6, 8]} for g, n in (("vb", 3), ("wb", 4))]},
        {"jobs": [{"name": "truncation", "kind": "truncation", "script": "VB3_REDUCE", "n": 3}]},
        {"jobs": [{"name": "roundtrip.%d" % w["target"], "kind": "roundtrip",
                   "seed": w["seed"], "letters": w["letters"]} for w in words]},
    ]
    return procs, "roundtrip.80"


def corrupt(job, answer):
    """A wrong answer for every job kind."""
    answer = copy.deepcopy(answer)
    kind = job["kind"]
    if kind == "cli":
        out = answer["stdout"]
        if job["argv"][0] == "tietze":
            obj = json.loads(out)
            obj["generators"]["count"] += 1
            out = json.dumps(obj)
        else:
            out = out.replace("mismatches: 0", "mismatches: 1").replace("MATCH\n", "MISMATCH\n")
        answer["stdout"] = out
    elif kind == "profile":
        answer["torsion"] = (answer["torsion"] or [3])[:-1]
    elif kind == "truncation":
        answer["agree"] = False
    elif kind == "roundtrip":
        answer["letters"][0][2] *= -1
    return answer


def _run(argv, tamper=None):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv, tamper=tamper)
    return code, json.loads(buf.getvalue().splitlines()[-1])


def check_kernel_words(failures: list) -> None:
    a = kernel_words.kernel_words(5, 4, (100, 200))
    if a != kernel_words.kernel_words(5, 4, (100, 200)):
        failures.append("same seed, different words")
    if a == kernel_words.kernel_words(6, 4, (100, 200)):
        failures.append("different seeds, same words")
    for w in a:
        letters = w["letters"]
        if kernel_words.bidegree(letters) != (0, 0):
            failures.append("word not in the kernel")
        if kernel_words.free_reduce(letters) != letters:
            failures.append("word not freely reduced")
        if w["seed"] != 5 or w["length"] != len(letters) or abs(len(letters) - w["target"]) > 2:
            failures.append("bad word record %s" % {k: v for k, v in w.items() if k != "letters"})


def check_runs(failures: list) -> None:
    workloads.WORKLOADS["selftest_mini"] = _mini
    argv = ["--workload", "selftest_mini", "--seed", "3", "--seconds", "0"]
    code, res = _run(argv + ["--trace", "1"])
    if code != 0 or res["failed"] or res["attempted"] != 16:
        failures.append("clean traced run: exit %d, %s" % (code, res))
    code, res = _run(argv + ["--trace", "0"], tamper=corrupt)
    if code == 0 or res["correct"] or res["failed"] != res["attempted"]:
        failures.append("tampered run not caught: exit %d, %s" % (code, res))
    del workloads.WORKLOADS["selftest_mini"]


def check_benchmark_json(failures: list) -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.py")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(run.END_TO_END):
        failures.append("BENCHMARK.json end_to_end differs from run.py")
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != list(PER_LAYER):
        failures.append("BENCHMARK.json per_layer differs from layers.py")


def check_bare_directory(failures: list) -> None:
    bare = os.path.join(run.ROOT, ".bench_tmp", "bare-%d" % os.getpid())
    try:
        shutil.copytree(run.HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "window_ladder", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            os.rmdir(os.path.dirname(bare))
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        failures.append("bare directory: exit %d, stdout %r" % (proc.returncode, proc.stdout))


def main() -> int:
    failures: list = []
    for check in (check_kernel_words, check_benchmark_json, check_runs, check_bare_directory):
        check(failures)
        print("%-22s %s" % (check.__name__, "ok" if not failures else "FAILED"))
        if failures:
            break
    for f in failures:
        print("self-test failure: %s" % f, file=sys.stderr)
    return 1 if failures else 0
