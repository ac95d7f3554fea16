"""Per-layer tracing of coverdepth, installed from outside the package.

The tracer wraps the public functions of each coverdepth module, so every
call becomes a span: name, start, end, parent span and case id. Spans live
in compact in-memory arrays and are written out once, after the pass.
FieldSpec's scalar operations (add, sub, mul, inv, neg, pow) are counted,
not spanned: they run millions of times per pass and a span each would cost
more than the operation.

Callers bind names with ``from .x import y``, so a wrapper replaces the
name in every coverdepth module that holds it, or calls through the other
binding would go uncounted. Work done in ``--jobs`` worker processes is not
traced: it shows only as the child CPU time of the calls that started the
workers.
"""

from __future__ import annotations

import functools
import itertools
import json
import resource
import sys
import time
from array import array
from typing import Callable, Dict, List, Tuple

# Spanned functions by layer. FieldSpec.op_tables is a method; the rest are
# module-level functions. search._score is the per-candidate scoring step.
SPANNED: Dict[str, Tuple[str, ...]] = {
    "gf": ("FieldSpec.op_tables",),
    "matrix": ("rank", "rref", "kernel_basis", "from_columns", "columns_of", "parse_matrix"),
    "codes": ("projective_points", "simplex_code", "hamming_code", "reed_solomon", "dual",
              "linear_code", "information_set_profile", "independent_subset_profile"),
    "coverage": ("expectation_exact", "expectation_exact_dual", "expectation_exact_auto",
                 "expectation_monte_carlo", "expectation_simplex", "expectation_hamming",
                 "mds_bound", "harmonic", "decimal_str", "to_decimal"),
    "search": ("optimal_coverage", "verify_reduction", "_score"),
    "asymptotics": ("gap_grid", "grid_csv", "simplex_gap", "hamming_gap", "binary_hamming_gap",
                    "simplex_gap_series_limit", "hamming_gap_bound", "binary_hamming_ratio_bound",
                    "binary_hamming_gap_coefficient", "mds_rate_limit"),
    "cli": ("main",),
}
SCALAR_OPS = ("add", "sub", "mul", "inv", "neg", "pow")

# Function groups behind the per-layer metrics.
GROUPS: Dict[str, Tuple[str, ...]] = {
    "gf.tables": ("gf.FieldSpec.op_tables",),
    "matrix": tuple(f"matrix.{n}" for n in SPANNED["matrix"]),
    "codes.profile": ("codes.information_set_profile", "codes.independent_subset_profile"),
    "codes.build": ("codes.projective_points", "codes.simplex_code", "codes.hamming_code",
                    "codes.reed_solomon", "codes.dual", "codes.linear_code"),
    "coverage.exact": ("coverage.expectation_exact", "coverage.expectation_exact_dual",
                       "coverage.expectation_exact_auto"),
    "coverage.mc": ("coverage.expectation_monte_carlo",),
    "coverage.closed_form": ("coverage.expectation_simplex", "coverage.expectation_hamming",
                             "coverage.mds_bound", "coverage.harmonic", "coverage.decimal_str",
                             "coverage.to_decimal"),
    "search": tuple(f"search.{n}" for n in SPANNED["search"]),
    "asymptotics": tuple(f"asymptotics.{n}" for n in SPANNED["asymptotics"]),
    "cli": ("cli.main",),
}

# Per-layer metrics in report order; BENCHMARK.json lists the same names.
METRICS = (
    "gf.scalar_ops", "gf.tables_s", "matrix.calls", "matrix.busy_s",
    "codes.profile_calls", "codes.profile_s", "codes.build_s",
    "coverage.exact_calls", "coverage.exact_self_s", "coverage.mc_s",
    "coverage.mc_trials_per_s", "coverage.mc_child_cpu_s", "coverage.closed_form_s",
    "search.candidates_examined", "search.candidates_admissible", "search.admissible_ratio",
    "search.score_calls", "search.self_s", "search.child_cpu_s",
    "asymptotics.busy_s", "cli.self_s",
)
COUNT_METRICS = ("gf.scalar_ops", "matrix.calls", "codes.profile_calls", "coverage.exact_calls",
                 "search.candidates_examined", "search.candidates_admissible",
                 "search.score_calls")


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Tracer:
    """Spans and counters of one pass. Install once per process."""

    def __init__(self):
        self.names: List[str] = []
        self.name_ids: Dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("l")
        self.span_case = array("H")
        self.cases: List[str] = []
        self.case = 0
        self._stack: List[int] = []
        self._op_counters: Dict[str, itertools.count] = {}
        self.candidates_examined = 0
        self.candidates_admissible = 0
        self.mc_trials = 0
        self.child_cpu = {"search": 0.0, "coverage.mc": 0.0}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap coverdepth's layers; coverdepth must be imported already."""
        from coverdepth.gf import FieldSpec

        for op in SCALAR_OPS:
            counter = itertools.count()
            self._op_counters[op] = counter
            setattr(FieldSpec, op, _counted(getattr(FieldSpec, op), counter.__next__,
                                              unary=op in ("inv", "neg")))
        for layer, names in SPANNED.items():
            module = sys.modules[f"coverdepth.{layer}"]
            for name in names:
                if name.startswith("FieldSpec."):
                    attr = name.split(".", 1)[1]
                    orig = getattr(FieldSpec, attr)
                    setattr(FieldSpec, attr, self._spanned(f"{layer}.{name}", orig))
                    continue
                orig = getattr(module, name)
                wrapper = self._spanned(f"{layer}.{name}", orig)
                if name == "optimal_coverage":
                    wrapper = self._observed(wrapper, "search", self._note_search)
                elif name == "expectation_monte_carlo":
                    wrapper = self._observed(wrapper, "coverage.mc", self._note_mc)
                _rebind(orig, wrapper)

    def _spanned(self, label: str, fn: Callable) -> Callable:
        name_id = self.name_ids.setdefault(label, len(self.names))
        if name_id == len(self.names):
            self.names.append(label)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, cases, stack = self.span_parent, self.span_case, self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            cases.append(tracer.case)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def _observed(self, fn: Callable, cpu_key: str, note: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = _children_cpu()
            result = fn(*args, **kwargs)
            self.child_cpu[cpu_key] += _children_cpu() - before
            note(result)
            return result

        return wrapper

    def _note_search(self, report) -> None:
        self.candidates_examined += report.candidates_examined
        self.candidates_admissible += report.candidates_admissible

    def _note_mc(self, estimate) -> None:
        self.mc_trials += estimate.trials

    def start_case(self, case_id: str) -> None:
        self.case = len(self.cases)
        self.cases.append(case_id)

    # -- summary ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-function and per-layer aggregates plus the per-layer metrics.

        Self time is a span's duration minus that of its direct child spans.
        Busy time of a group counts only spans with no ancestor in the same
        group, so nested and recursive calls are not counted twice. Each
        function is a group of its own as well.
        """
        groups = dict(GROUPS)
        groups.update((name, (name,)) for name in self.names)
        member_of = [[g for g, members in enumerate(groups.values()) if name in members]
                     for name in self.names]
        bits_of = [sum(1 << g for g in gs) for gs in member_of]
        n = len(self.span_start)
        dur = [(self.span_end[i] - self.span_start[i]) * 1e-9 for i in range(n)]
        child = [0.0] * n
        anc = [0] * n  # group bits of each span's strict ancestors
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
                anc[i] = anc[p] | bits_of[self.span_name[p]]
        calls, outer = [0] * len(groups), [0] * len(groups)
        busy, self_s = [0.0] * len(groups), [0.0] * len(groups)
        for i in range(n):
            for g in member_of[self.span_name[i]]:
                calls[g] += 1
                self_s[g] += dur[i] - child[i]
                if not anc[i] >> g & 1:
                    outer[g] += 1
                    busy[g] += dur[i]
        stat = {name: {"calls": calls[g], "outer_calls": outer[g], "busy_s": busy[g],
                       "self_s": self_s[g]} for g, name in enumerate(groups)}

        ops = {op: next(c) for op, c in self._op_counters.items()}
        mc_s = stat["coverage.mc"]["busy_s"]
        examined = self.candidates_examined
        metrics = {
            "gf.scalar_ops": sum(ops.values()),
            "gf.tables_s": stat["gf.tables"]["busy_s"],
            "matrix.calls": stat["matrix"]["calls"],
            "matrix.busy_s": stat["matrix"]["busy_s"],
            "codes.profile_calls": stat["codes.profile"]["calls"],
            "codes.profile_s": stat["codes.profile"]["busy_s"],
            "codes.build_s": stat["codes.build"]["busy_s"],
            "coverage.exact_calls": stat["coverage.exact"]["outer_calls"],
            "coverage.exact_self_s": stat["coverage.exact"]["self_s"],
            "coverage.mc_s": mc_s,
            "coverage.mc_trials_per_s": self.mc_trials / mc_s if mc_s > 0 else 0.0,
            "coverage.mc_child_cpu_s": self.child_cpu["coverage.mc"],
            "coverage.closed_form_s": stat["coverage.closed_form"]["busy_s"],
            "search.candidates_examined": examined,
            "search.candidates_admissible": self.candidates_admissible,
            "search.admissible_ratio": self.candidates_admissible / examined if examined else 0.0,
            "search.score_calls": stat["search._score"]["calls"],
            "search.self_s": stat["search"]["self_s"],
            "search.child_cpu_s": self.child_cpu["search"],
            "asymptotics.busy_s": stat["asymptotics"]["busy_s"],
            "cli.self_s": stat["cli"]["self_s"],
        }
        return {
            "metrics": metrics,
            "scalar_ops": ops,
            "functions": {name: stat[name] for name in self.names if stat[name]["calls"]},
            "layers": {layer: {
                "calls": sum(stat[f"{layer}.{f}"]["calls"] for f in fns),
                "self_s": sum(stat[f"{layer}.{f}"]["self_s"] for f in fns),
            } for layer, fns in SPANNED.items()},
            "spans": n,
        }

    def write_spans(self, path) -> None:
        """Write every span as columns: name and case are indices into the tables."""
        doc = {
            "names": self.names,
            "cases": self.cases,
            "columns": ["name", "start_ns", "end_ns", "parent", "case"],
            "name": self.span_name.tolist(),
            "start_ns": self.span_start.tolist(),
            "end_ns": self.span_end.tolist(),
            "parent": self.span_parent.tolist(),
            "case": self.span_case.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _counted(fn: Callable, tick: Callable, unary: bool) -> Callable:
    # Fixed arities: packing *args would triple the cost of a counted call.
    if unary:
        def op(self, a):
            tick()
            return fn(self, a)
    else:
        def op(self, a, b):
            tick()
            return fn(self, a, b)
    return functools.wraps(fn)(op)


def _rebind(orig: Callable, wrapper: Callable) -> None:
    """Replace orig by wrapper in every coverdepth module that binds it."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "coverdepth" or mod_name.startswith("coverdepth.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, wrapper)
