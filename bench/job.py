"""One benchmark job process.

Usage: ``python3 job.py SPEC.json RESULT.json`` with ``src`` on
``PYTHONPATH``.  The process imports braidsub, stamps the moment it is
ready (on the monotonic clock the parent also reads, so the parent can
compute set-up time), then runs the spec's jobs one after another.  Each
job is timed on its own; the answers, the exact problem sizes and, when
the spec asks for it, the trace summary are computed after the timed
region and written to RESULT.json.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
import traceback

# Package functions are called through their modules, so that the traced
# run's rebinding reaches them.
from braidsub import abelianize, cli, presets, rewriting, tietze
from braidsub.words import Word, rho, sigma

READY = time.monotonic()


def _presentation_size(p) -> list[int]:
    return [len(p.relators), sum(len(inst.template) for inst in p.relators)]


# ---------------------------------------------------------------------------
# Job kinds: prepare (untimed), run (timed), sizes (untimed)
# ---------------------------------------------------------------------------


def run_cli(job, _):
    buf = io.StringIO()
    saved = sys.stdout
    sys.stdout = buf
    try:
        rc = cli.main(job["argv"])
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code
    finally:
        sys.stdout = saved
    return {"rc": rc, "stdout": buf.getvalue()}, None


def sizes_cli(job, answer, _) -> dict:
    out = answer["stdout"]
    sizes = {"output_bytes": len(out.encode())}
    cmd = job["argv"][0]
    if cmd == "tietze":
        obj = json.loads(out)
        steps = [_presentation_size(presets.parse_presentation(s["presentation"]))
                 for s in obj["steps"]]
        group, n = obj["group"], obj["n"]
        sizes |= {
            "families": len(presets.derived_presentation(group, n).relators),
            "steps": len(steps),
            "step_relators_max": max(r for r, _ in steps),
            "step_letters_max": max(l for _, l in steps),
            "final_relators": steps[-1][0],
            "final_letters": steps[-1][1],
        }
    elif cmd == "report":
        sizes["rows"] = len(json.loads(out)["rows"])
    elif cmd == "verify":
        lines = out.splitlines()
        sizes["lemmas"] = sum(1 for l in lines if not l.startswith(" ") and "cases" in l)
        sizes["cases"] = sum(1 for l in lines if " tier=" in l)
    elif cmd == "derive":
        words = out.split()
        sizes["derived_instances"] = int(words[1])
        sizes["stated_instances"] = int(words[4].rstrip(","))
    return sizes


def run_profile(job, _):
    windows = tuple((-r, r) for r in job["radii"])
    prof = abelianize.stabilization_profile(job["group"], job["n"], windows)
    answer = {
        "torsion": prof["torsion"],
        "free_ranks": [r["free_rank"] for r in prof["rows"]],
        "free_rank_delta": prof["free_rank_delta"],
        "stable": prof["stable"],
    }
    return answer, None


def sizes_profile(job, answer, _) -> dict:
    p = presets.reduced_presentation(job["group"], job["n"])
    rows = cols = nonzeros = letters = 0
    for r in job["radii"]:
        fp = presets.instantiate(p, (-r, r))
        matrix, gens = abelianize.relation_matrix(fp)
        rows += len(matrix)
        cols += len(gens)
        nonzeros += sum(1 for row in matrix for x in row if x)
        letters += sum(len(w) for _, w in fp.relators)
    return {"families": len(p.relators), "instances": rows, "letters": letters,
            "snf_rows": rows, "snf_cols": cols, "snf_nonzeros": nonzeros}


def run_truncation(job, _):
    result = tietze.run_script(job["script"], job.get("n"))
    check = abelianize.check_script_truncation(result)
    return {"agree": check["agree"], "comparisons": len(check["steps"])}, result


def sizes_truncation(job, answer, result) -> dict:
    steps = [_presentation_size(after) for _, after in result.steps]
    return {
        "families": len(result.initial.relators),
        "steps": len(steps),
        "comparisons": answer["comparisons"],
        "step_relators_max": max(r for r, _ in steps),
        "step_letters_max": max(l for _, l in steps),
    }


def prepare_roundtrip(job):
    make = {"sigma": sigma, "rho": rho}
    return Word([(make[fam](k), exp) for fam, k, exp in job["letters"]])


def run_roundtrip(job, w):
    out = rewriting.expand_raw(rewriting.rewrite_slots(w))
    return {"letters": [[sym.family, sym.indices[0], exp] for sym, exp in out]}, None


def sizes_roundtrip(job, answer, _) -> dict:
    return {"letters": len(job["letters"]), "seed": job["seed"]}


KINDS = {
    "cli": (None, run_cli, sizes_cli),
    "profile": (None, run_profile, sizes_profile),
    "truncation": (None, run_truncation, sizes_truncation),
    "roundtrip": (prepare_roundtrip, run_roundtrip, sizes_roundtrip),
}


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    inputs = []
    for job in spec["jobs"]:
        prepare = KINDS[job["kind"]][0]
        inputs.append(prepare(job) if prepare else None)
    tracer = None
    if spec.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    done = []
    for job, data in zip(spec["jobs"], inputs):
        run = KINDS[job["kind"]][1]
        t0 = time.perf_counter()
        try:
            answer, keep = run(job, data)
        except Exception:  # a crashing job is a failed job, not a failed run
            answer, keep = {"error": traceback.format_exc(limit=3)}, None
        done.append((job, answer, keep, time.perf_counter() - t0))
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    trace = tracer.summary() if tracer else None
    if trace is not None:
        trace["counters"]["output_bytes"] = sum(
            len(a["stdout"].encode()) for j, a, _, _ in done if j["kind"] == "cli" and "stdout" in a)
    jobs = []
    for job, answer, keep, seconds in done:
        sizes = {}
        if "error" not in answer:
            try:
                sizes = KINDS[job["kind"]][2](job, answer, keep)
            except Exception:  # malformed output: the answer check reports it
                sizes = {}
        jobs.append({"name": job["name"], "seconds": seconds, "answer": answer, "sizes": sizes})
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"ready": READY, "maxrss_kb": maxrss_kb, "jobs": jobs, "trace": trace}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
