"""Per-layer metrics from the trace summaries of one traced pass.

The layers are the package modules.  Which end-to-end metric and
workload each of these should move is written down in METRICS.md.
"""

from __future__ import annotations

import math
from collections import Counter

from tracing import TIETZE_OPS

# (name, unit, better)
PER_LAYER = (
    ("words.mul_calls", "count", "lower"),
    ("words.letters_built", "count", "lower"),
    ("words.self_s", "s", "lower"),
    ("cosets.step_calls", "count", "lower"),
    ("cosets.self_s", "s", "lower"),
    ("rewriting.rewrite_slots_s", "s", "lower"),
    ("rewriting.expand_raw_s", "s", "lower"),
    ("rewriting.expand_exponent", "log/log", "lower"),
    ("rewriting.canon_key_calls", "count", "lower"),
    ("rewriting.canon_key_s", "s", "lower"),
    ("rewriting.verify_cases", "count", "higher"),
    ("rewriting.self_s", "s", "lower"),
    ("rewriting.template_key_calls", "count", "lower"),
    ("rewriting.template_key_letters", "count", "lower"),
    ("rewriting.template_key_s", "s", "lower"),
    ("rewriting.template_key_distinct_ratio", "ratio", "higher"),
    ("presets.instantiate_calls", "count", "lower"),
    ("presets.instances_out", "count", "lower"),
    ("presets.instantiate_s", "s", "lower"),
    ("presets.print_s", "s", "lower"),
    ("presets.self_s", "s", "lower"),
    ("tietze.steps", "count", "lower"),
    ("tietze.step_relators_max", "count", "lower"),
    ("tietze.step_letters_max", "count", "lower"),
    *(("tietze.op_s.%s" % op, "s", "lower") for op in TIETZE_OPS),
    ("tietze.self_s", "s", "lower"),
    ("abelianize.snf_calls", "count", "lower"),
    ("abelianize.snf_s.profile", "s", "lower"),
    ("abelianize.snf_s.step", "s", "lower"),
    ("abelianize.snf_cells", "count", "lower"),
    ("abelianize.snf_nonzeros", "count", "lower"),
    ("abelianize.snf_nonzero_share", "ratio", "lower"),
    ("abelianize.snf_unit_share", "ratio", "lower"),
    ("abelianize.snf_max_rows", "count", "lower"),
    ("abelianize.snf_max_cols", "count", "lower"),
    ("abelianize.relation_matrix_s", "s", "lower"),
    ("abelianize.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("share.tietze_ops_and_template_keys", "ratio", "lower"),
    ("share.snf", "ratio", "lower"),
    ("share.words_cosets_rewriting", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _slope(points) -> float:
    """Least-squares slope of log(seconds) against log(length)."""
    pts = [(math.log(n), math.log(s)) for n, s in points if n > 0 and s > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def layer_metrics(traces: list, traced_s: float, untraced_s: float) -> dict:
    """Merge the per-process summaries of one traced pass into metrics.

    ``traced_s`` and ``untraced_s`` are the summed job times of the traced
    pass and of the untraced pass run next to it.
    """
    calls, total, self_s, counters = Counter(), Counter(), Counter(), Counter()
    snf, expand, steps = [], [], []
    for t in traces:
        calls.update(t["calls"])
        total.update(t["total"])
        self_s.update(t["self"])
        counters.update(t["counters"])
        snf += t["snf"]
        expand += t["expand"]
        steps += t["steps"]
    cells = sum(m["rows"] * m["cols"] for m in snf)
    nonzeros = sum(m["nonzeros"] for m in snf)
    tkey_calls = calls["template_canon_key"]
    return {
        "words.mul_calls": calls["Word.__mul__"],
        "words.letters_built": counters["letters_built"],
        "words.self_s": self_s["words"],
        "cosets.step_calls": calls["step"],
        "cosets.self_s": self_s["cosets"],
        "rewriting.rewrite_slots_s": total["rewrite_slots"],
        "rewriting.expand_raw_s": total["expand_raw"],
        "rewriting.expand_exponent": _slope(expand),
        "rewriting.canon_key_calls": calls["canon_key"],
        "rewriting.canon_key_s": total["canon_key"],
        "rewriting.verify_cases": counters["verify_cases"],
        "rewriting.self_s": self_s["rewriting"],
        "rewriting.template_key_calls": tkey_calls,
        "rewriting.template_key_letters": counters["template_letters"],
        "rewriting.template_key_s": total["template_canon_key"],
        "rewriting.template_key_distinct_ratio":
            counters["template_distinct"] / tkey_calls if tkey_calls else 0.0,
        "presets.instantiate_calls": calls["instantiate"],
        "presets.instances_out": counters["instances_out"],
        "presets.instantiate_s": total["instantiate"],
        "presets.print_s": total["print_presentation"],
        "presets.self_s": self_s["presets"],
        "tietze.steps": len(steps),
        "tietze.step_relators_max": max((r for r, _ in steps), default=0),
        "tietze.step_letters_max": max((l for _, l in steps), default=0),
        **{"tietze.op_s.%s" % op: total[op] for op in TIETZE_OPS},
        "tietze.self_s": self_s["tietze"],
        "abelianize.snf_calls": len(snf),
        "abelianize.snf_s.profile": sum(m["s"] for m in snf if m["caller"] == "profile"),
        "abelianize.snf_s.step": sum(m["s"] for m in snf if m["caller"] == "step"),
        "abelianize.snf_cells": cells,
        "abelianize.snf_nonzeros": nonzeros,
        "abelianize.snf_nonzero_share": nonzeros / cells if cells else 0.0,
        "abelianize.snf_unit_share": sum(m["units"] for m in snf) / nonzeros if nonzeros else 0.0,
        "abelianize.snf_max_rows": max((m["rows"] for m in snf), default=0),
        "abelianize.snf_max_cols": max((m["cols"] for m in snf), default=0),
        "abelianize.relation_matrix_s": total["relation_matrix"],
        "abelianize.self_s": self_s["abelianize"],
        "cli.self_s": self_s["cli"],
        "cli.output_bytes": counters["output_bytes"],
        "share.tietze_ops_and_template_keys":
            (self_s["tietze"] + self_s["template_key"]) / traced_s,
        "share.snf": total["snf"] / traced_s,
        "share.words_cosets_rewriting":
            (self_s["words"] + self_s["cosets"] + self_s["rewriting"]) / traced_s,
        "trace.overhead_ratio": traced_s / untraced_s,
    }
