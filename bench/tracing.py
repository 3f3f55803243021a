"""Per-layer tracing of one job process, installed from outside the package.

The tracer wraps public functions of the braidsub modules and rebinds
each wrapped name in every braidsub module that holds it (for example
``template_canon_key`` inside ``tietze`` as well as ``rewriting``), so
calls made inside the package are seen too.  Entry points get one span
per call; hot leaves only add to a call count and a time.  Every wrapped
call sits on one stack, so a frame's self time is its duration minus the
time of the wrapped calls nested in it, and self time is summed per
bucket (a module, or the template-key bucket).

Nothing is written while jobs run: spans and references to inputs stay
in memory, and :meth:`Tracer.summary` turns them into JSON-able numbers
once the timed jobs are over.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

TIETZE_OPS = (
    "eliminate_family",
    "reduce_family_to_seeds",
    "observe_unbounded",
    "drop_relator",
    "rotate_relator",
    "flip_g_letter",
    "braid_flip",
    "rewrite_letter",
    "torsion_reduce_relator",
    "torsion_cleanup",
)

# (module, function, bucket, kind) -- kind is "span" or "leaf".
TARGETS = (
    ("cli", "main", "cli", "span"),
    ("rewriting", "rewrite_slots", "rewriting", "span"),
    ("rewriting", "expand_raw", "rewriting", "span"),
    ("rewriting", "verify_lemma", "rewriting", "span"),
    ("rewriting", "assemble", "rewriting", "span"),
    ("rewriting", "canon_key", "rewriting", "leaf"),
    ("rewriting", "template_canon_key", "template_key", "leaf"),
    ("cosets", "step", "cosets", "leaf"),
    ("presets", "instantiate", "presets", "span"),
    ("presets", "print_presentation", "presets", "leaf"),
    ("tietze", "run_script", "tietze", "span"),
    *(("tietze", op, "tietze", "span") for op in TIETZE_OPS),
    ("abelianize", "stabilization_profile", "abelianize", "span"),
    ("abelianize", "step_invariants", "abelianize", "span"),
    ("abelianize", "snf", "abelianize", "span"),
    ("abelianize", "relation_matrix", "abelianize", "leaf"),
)

SNF_CALLERS = {"stabilization_profile": "profile", "step_invariants": "step"}


def _rebind(orig, wrapper) -> None:
    for modname, mod in list(sys.modules.items()):
        if modname == "braidsub" or modname.startswith("braidsub."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)


class Tracer:
    """Call counts, times and spans for the wrapped package functions."""

    def __init__(self):
        self.stack: list = []  # open frames: [child_time, name, is_span]
        self.calls: Counter = Counter()
        self.depth: Counter = Counter()
        self.total: dict = defaultdict(float)  # inclusive, outermost calls only
        self.self_time: dict = defaultdict(float)  # per bucket
        self.counters: Counter = Counter()
        self.spans: list = []  # (name, parent span name, seconds, kept data)
        self.template_inputs: list = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, bucket: str, fn, is_span: bool, keep=None):
        """Wrap fn; a span also records its parent span and ``keep(args, result)``."""
        stack, calls, depth, total, self_time, spans = (
            self.stack, self.calls, self.depth, self.total, self.self_time, self.spans)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, name, is_span]
            stack.append(frame)
            depth[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                depth[name] -= 1
                calls[name] += 1
                if not depth[name]:
                    total[name] += elapsed
                self_time[bucket] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if is_span:
                parent = next((f[1] for f in reversed(stack) if f[2]), None)
                spans.append((name, parent, elapsed, keep(args, result) if keep else None))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target present in the imported braidsub modules."""
        from braidsub import abelianize, cli, cosets, presets, rewriting, tietze, words

        mods = {"cli": cli, "cosets": cosets, "presets": presets,
                "rewriting": rewriting, "tietze": tietze, "abelianize": abelianize}
        # What a span keeps for the summary: references and lengths only, so
        # that the traced calls stay cheap.
        keep = {
            "expand_raw": lambda args, result: len(result),
            "verify_lemma": lambda args, result: len(result["cases"]),
            "instantiate": lambda args, result: len(result.relators),
            "snf": lambda args, result: args[0],
            **{op: (lambda args, result: result[0]) for op in TIETZE_OPS},
        }
        inputs = self.template_inputs
        for modname, fname, bucket, kind in TARGETS:
            orig = getattr(mods[modname], fname, None)
            if orig is None:
                continue
            fn = orig
            if fname == "template_canon_key":
                def fn(t, _orig=orig):
                    inputs.append(t)
                    return _orig(t)
            _rebind(orig, self._wrap(fname, bucket, fn, kind == "span", keep.get(fname)))

        word = words.Word
        orig_init = word.__init__
        counters = self.counters

        def init(obj, letters=()):
            if type(letters) is not tuple:
                letters = tuple(letters)
            counters["letters_built"] += len(letters)
            orig_init(obj, letters)

        word.__init__ = self._wrap("Word.__init__", "words", init, False)
        word.__mul__ = self._wrap("Word.__mul__", "words", word.__mul__, False)

    # -- summary ----------------------------------------------------------

    def summary(self) -> dict:
        snf, expand, steps = [], [], []
        counters = Counter(self.counters)
        for name, parent, seconds, kept in self.spans:
            if name == "snf":
                snf.append(_matrix_stats(kept) | {"caller": SNF_CALLERS.get(parent, "other"),
                                                  "s": seconds})
            elif name == "expand_raw":
                expand.append((kept, seconds))
            elif name == "verify_lemma":
                counters["verify_cases"] += kept
            elif name == "instantiate":
                counters["instances_out"] += kept
            elif name in TIETZE_OPS and parent not in TIETZE_OPS:
                steps.append([len(kept.relators), sum(len(i.template) for i in kept.relators)])
        templates = self.template_inputs
        counters["template_letters"] = sum(len(t) for t in templates)
        counters["template_distinct"] = len(set(templates))
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "counters": dict(counters),
            "snf": snf,
            "expand": expand,
            "steps": steps,
        }


def _matrix_stats(matrix) -> dict:
    rows = len(matrix)
    nonzeros = units = 0
    for row in matrix:
        for x in row:
            if x:
                nonzeros += 1
                units += x in (1, -1)
    return {"rows": rows, "cols": len(matrix[0]) if rows else 0,
            "nonzeros": nonzeros, "units": units}
