"""Spans and counters at coopdss module boundaries, installed from outside.

The tracer never edits the package.  `install` replaces public functions and
methods by wrappers, patching class attributes and module globals (every
coopdss module that imported a function by name gets the wrapper too), and
`uninstall` puts the originals back, so an untraced phase runs the program
exactly as shipped.

A span is (span id, name, start ns, end ns, parent span id, op id).  Spans
stay in memory until `write_spans`.  Field arithmetic gets counters only, no
spans, because it runs millions of times per pass.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

SCHEME_MODULES = ("mbcr_exact", "mbcr_bivariate", "mscr_ia", "mscr_dk", "insecure_demo")

# scheme method -> span suffix
_SCHEME_OPS = {
    "__init__": "init",
    "encode": "encode",
    "reconstruct": "reconstruct",
    "cooperative_repair": "repair",
    "observation_matrix": "observation",
}

SPANS = (
    "field.matrix.rank_profile", "field.matrix.solve", "field.matrix.inverse",
    "field.matrix.matvec", "field.find_irreducible", "field.moore_matrix",
    "precode.random_symbols",
    "codes.mbcr_exact.find_structure", "codes.mscr_ia.find_placement",
    *[f"codes.{s}.{op}" for s in SCHEME_MODULES for op in _SCHEME_OPS.values()],
    "codes.nodeio.write", "codes.nodeio.read",
    "secrecy.rank_leakage", "secrecy.brute_force",
    "bounds.secure_bound",
    "sim.run", "sim.replay_check", "sim.trace_to_text", "sim.trace_parse", "sim.observation",
)

# spans reported as self time (duration minus the time child spans cover);
# every other span is reported inclusive of its children
SELF_TIME = {
    *[f"codes.{s}.{op}" for s in SCHEME_MODULES
      for op in ("encode", "reconstruct", "repair", "observation")],
    "secrecy.rank_leakage", "sim.trace_to_text",
}

# counters filled by wrappers (field arithmetic and size measures)
COUNTERS = [
    "field.ext_mul_calls",
    "field.ext_add_calls",
    "field.ext_scalar_mul_calls",
    "field.ext_inv_calls",
    "field.frobenius_calls",
    "field.prime_mul_calls",
    "field.matrix.rank_cells",
    "codes.nodeio.bytes",
    "secrecy.obs_rows",
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op = None  # op id stamped on every span; None during set-up
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------------

    def _span_wrapper(self, name, fn, measure=None):
        spans, stack, tracer = self.spans, self._stack, self

        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans.append((sid, name, start, end, parent, tracer.op))
            if measure is not None:
                measure(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, key, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching -----------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_method(self, cls, attr, name, measure=None):
        self._set(cls, attr, self._span_wrapper(name, cls.__dict__[attr], measure))

    def _patch_function(self, module, attr, name, measure=None):
        """Wrap a module-level function in its own module and in every
        coopdss module that imported it by name."""
        original = getattr(module, attr)
        wrapper = self._span_wrapper(name, original, measure)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("coopdss") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def install(self) -> None:
        from coopdss import bounds, field, precode, secrecy, sim
        from coopdss.codes import (SCHEME_CLASSES, mbcr_exact, mscr_ia, nodeio)

        counts = self.counts

        def add(key, value):
            counts[key] += value

        for attr, key in (("mul", "ext_mul"), ("add", "ext_add"), ("sub", "ext_add"),
                          ("neg", "ext_add"), ("scalar_mul", "ext_scalar_mul"),
                          ("inv", "ext_inv"), ("frobenius", "frobenius")):
            self._set(field.ExtField, attr,
                      self._count_wrapper(f"field.{key}_calls", field.ExtField.__dict__[attr]))
        self._set(field.PrimeField, "mul",
                  self._count_wrapper("field.prime_mul_calls", field.PrimeField.__dict__["mul"]))

        M = field.Matrix
        self._patch_method(M, "rank_profile", "field.matrix.rank_profile",
                           lambda a, r: add("field.matrix.rank_cells", a[0].nrows * a[0].ncols))
        self._patch_method(M, "solve", "field.matrix.solve")
        self._patch_method(M, "inverse", "field.matrix.inverse")
        self._patch_method(M, "matvec", "field.matrix.matvec")
        self._patch_function(field, "find_irreducible", "field.find_irreducible")
        self._patch_function(field, "moore_matrix", "field.moore_matrix")
        self._patch_function(precode, "random_symbols", "precode.random_symbols")

        for cls in SCHEME_CLASSES.values():
            short = cls.__module__.rsplit(".", 1)[1]
            for attr, op in _SCHEME_OPS.items():
                self._patch_method(cls, attr, f"codes.{short}.{op}")
        self._patch_function(mbcr_exact, "find_structure", "codes.mbcr_exact.find_structure")
        self._patch_function(mscr_ia, "find_placement", "codes.mscr_ia.find_placement")
        self._patch_function(nodeio, "write_nodes", "codes.nodeio.write",
                             lambda a, r: add("codes.nodeio.bytes", len(r)))
        self._patch_function(nodeio, "read_nodes", "codes.nodeio.read",
                             lambda a, r: add("codes.nodeio.bytes", len(a[0])))

        self._patch_function(secrecy, "rank_leakage", "secrecy.rank_leakage",
                             lambda a, r: add("secrecy.obs_rows", a[0].n_rows))
        self._patch_function(secrecy, "brute_force_leakage", "secrecy.brute_force")
        for attr in ("mbcr_secure_bound", "mscr_secure_bound", "mscr_dk_achievable"):
            self._patch_function(bounds, attr, "bounds.secure_bound")

        self._patch_function(sim, "run", "sim.run")
        self._patch_function(sim, "replay_check", "sim.replay_check")
        self._patch_function(sim, "trace_to_text", "sim.trace_to_text")
        self._patch_function(sim, "trace_transfers_from_text", "sim.trace_parse")
        self._patch_function(sim, "observation", "sim.observation")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation --------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """`<span>_s` and `<span>_calls` for every span name, the same summed
        over the five schemes as `codes.<op>_s` / `_calls`, and the counters.

        Inclusive time counts only the outermost span of a name, so a span
        nested in another of the same name (a scheme built while a scheme is
        being built) is not counted twice."""
        by_id = {span[0]: span for span in self.spans}
        child_ns = defaultdict(int)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start

        def nested_in(span, group) -> bool:
            parent = span[4]
            while parent is not None:
                if by_id[parent][1] in group:
                    return True
                parent = by_id[parent][4]
            return False

        calls = Counter(span[1] for span in self.spans)
        ns = defaultdict(int)
        for span in self.spans:
            sid, name, start, end = span[:4]
            if name in SELF_TIME:
                ns[name] += end - start - child_ns[sid]
            elif not nested_in(span, {name}):
                ns[name] += end - start
        out: dict[str, float] = {}
        for name in SPANS:
            out[f"{name}_s"] = ns[name] / 1e9
            out[f"{name}_calls"] = calls[name]
        for op in _SCHEME_OPS.values():
            group = {f"codes.{s}.{op}" for s in SCHEME_MODULES}
            if op == "init":
                out["codes.init_s"] = sum(span[3] - span[2] for span in self.spans
                                          if span[1] in group
                                          and not nested_in(span, group)) / 1e9
            else:
                out[f"codes.{op}_s"] = sum(ns[name] for name in group) / 1e9
            out[f"codes.{op}_calls"] = sum(calls[name] for name in group)
        for metric in COUNTERS:
            out[metric] = self.counts[metric]
        # scheme constructions made inside read_nodes
        out["codes.nodeio.read_scheme_builds"] = sum(
            1 for span in self.spans
            if span[1].endswith(".init") and span[4] is not None
            and by_id[span[4]][1] == "codes.nodeio.read")
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({"fields": ["id", "name", "start_ns", "end_ns", "parent", "op"],
                       "spans": self.spans}, fh)
