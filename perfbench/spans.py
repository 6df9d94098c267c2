"""Span tracer that wraps bayesmc's public functions from outside the package.

Each public module-level function of the layers below is replaced by a
wrapper, and so is every `bayesmc.*` attribute or module-level dict value
that refers to it: cli, inference, entropy and processes import functions
by name, so rebinding only the defining module would miss those calls.
A wrapper records one span per call: name, parent span, invocation (one
top-level `cli.main` call), start, end, and for some functions the work the
call did (elements, symbols, windows, regions) and a tag describing it.
Spans stay in memory until `take_pass` reduces them to per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time

import numpy as np

LAYERS = ("special", "core", "processes", "inference", "entropy", "comparison", "cli")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _elems(args, kwargs, result):
    return np.size(_arg(args, kwargs, 0, "x")), None


#: function -> hook(args, kwargs, result) returning (work, tag).
_WORK = {
    "special.log_gamma": _elems,
    "special.digamma": _elems,
    "special.trigamma": _elems,
    "core.count_words": lambda a, kw, r: (
        len(_arg(a, kw, 0, "seq")) - _arg(a, kw, 1, "k"), r.table.size),
    "core.read_sequence": lambda a, kw, r: (len(r), None),
    "processes.sample_sequence": lambda a, kw, r: (_arg(a, kw, 1, "N"), None),
    "processes.word_distribution": lambda a, kw, r: (
        0, (_arg(a, kw, 0, "hmm").name, _arg(a, kw, 1, "length"))),
    "inference.summary_rows": lambda a, kw, r: (len(r), None),
    "entropy.kl_of": lambda a, kw, r: (int(r == math.inf), None),
}

_TIMES = ("calls", "self_s")
_KERNEL = ("calls", "elems", "self_s", "ns_per_elem")
#: Metrics reported per function.  Rates divide the function's inclusive
#: time by its work.
_FUNCTIONS = {
    "special.inv_reg_inc_beta": _TIMES,
    "special.reg_inc_beta": _TIMES,
    "special.log_gamma": _KERNEL,
    "special.digamma": _KERNEL,
    "special.trigamma": _KERNEL,
    "inference.summary_rows": ("self_s", "ms_per_region"),
    "inference.log_evidence": _TIMES,
    "inference.density_grid": ("self_s",),
    "processes.sample_sequence": ("calls", "symbols", "self_s", "us_per_symbol"),
    "processes.word_distribution": _TIMES,
    "processes.stationary": _TIMES,
    "processes.average_counts": _TIMES,
    "processes.markov_approximation": _TIMES,
    "core.read_sequence": ("calls", "self_s", "ns_per_symbol"),
    "core.count_words": ("calls", "windows", "self_s", "ns_per_window"),
    "entropy.expected_energy": ("self_s",),
    "entropy.energy_variance": ("self_s",),
    "entropy.q_from": ("self_s",),
    "entropy.hmu_of": ("self_s",),
    "entropy.kl_of": ("calls",),
}
_UNITS = {"calls": "count", "self_s": "s", "elems": "count", "symbols": "count",
          "windows": "count", "ns_per_elem": "ns", "ns_per_symbol": "ns",
          "ns_per_window": "ns", "us_per_symbol": "us", "ms_per_region": "ms"}
_SCALES = {"ns": 1e9, "us": 1e6, "ms": 1e3}

#: Every per-layer metric as (name, unit); all are better when lower.
PER_LAYER = [(f"{fn}.{field}", _UNITS[field])
             for fn, fields in _FUNCTIONS.items() for field in fields] + [
    ("special.inv_reg_inc_beta.cdf_evals_per_call", "ratio"),
    ("processes.sample_sequence.drawn_per_used", "ratio"),
    ("core.read_sequence.calls_per_invocation", "ratio"),
    ("processes.word_distribution.calls_per_distinct", "ratio"),
    ("core.table_entries_max", "count"),
    ("entropy.kl_of.inf", "count"),
] + [(f"{layer}.self_s", "s") for layer in LAYERS if layer != "cli"] + [
    ("cli.self_s", "s"),
    ("cli.out_bytes", "B"),
    ("cli.out_rows", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    """Records spans of wrapped bayesmc functions in this process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self._stack = [-1]
        self._invocation = -1

    def install(self, package: str = "bayesmc") -> int:
        """Wrap every public function of every layer; returns how many."""
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrapped[fn] = self._wrap(f"{layer}.{attr}", fn)
        for name, module in list(sys.modules.items()):
            if name != package and not name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in wrapped:
                            value[key] = wrapped[item]
        return len(wrapped)

    def _wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, hook, clock = self.spans, self._stack, _WORK.get(name), time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent < 0:
                self._invocation += 1
            span = [name_id, parent, self._invocation, clock(), 0.0, 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if hook is not None:
                span[5], span[6] = hook(args, kwargs, result)
            return result

        return traced

    def take_pass(self) -> dict[str, float]:
        """Reduce the spans recorded since the last call to per-layer
        metrics (everything in PER_LAYER except cli.out_* and
        trace.overhead_s), then drop them."""
        spans = self.spans
        n, k = len(spans), len(self.names)
        name = np.array([s[0] for s in spans], dtype=np.int64)
        parent = np.array([s[1] for s in spans], dtype=np.int64)
        dur = np.array([s[4] - s[3] for s in spans], dtype=float)
        work = np.array([s[5] for s in spans], dtype=float)
        covered = np.zeros(n)
        nested = parent >= 0
        np.add.at(covered, parent[nested], dur[nested])
        calls = np.bincount(name, minlength=k)
        own = np.bincount(name, dur - covered, minlength=k)
        inclusive = np.bincount(name, dur, minlength=k)
        done = np.bincount(name, work, minlength=k)
        index = {nm: i for i, nm in enumerate(self.names)}

        def spans_of(fn):
            return [s for s in spans if s[0] == index.get(fn)]

        out: dict[str, float] = {}
        for fn, fields in _FUNCTIONS.items():
            i = index.get(fn)
            for field in fields:
                unit = _UNITS[field]
                if i is None:  # the function no longer exists
                    value = 0.0
                elif field == "calls":
                    value = calls[i]
                elif field == "self_s":
                    value = own[i]
                elif unit in _SCALES:
                    value = inclusive[i] / done[i] * _SCALES[unit] if done[i] else 0.0
                else:
                    value = done[i]
                out[f"{fn}.{field}"] = float(value)

        inv_id = index.get("special.inv_reg_inc_beta")
        cdf_evals = sum(1 for s in spans_of("special.reg_inc_beta")
                        if s[1] >= 0 and spans[s[1]][0] == inv_id)
        out["special.inv_reg_inc_beta.cdf_evals_per_call"] = _ratio(
            cdf_evals, len(spans_of("special.inv_reg_inc_beta")))
        samples = spans_of("processes.sample_sequence")
        used: dict[int, float] = {}
        for s in samples:
            used[s[2]] = max(used.get(s[2], 0), s[5])
        out["processes.sample_sequence.drawn_per_used"] = _ratio(
            sum(s[5] for s in samples), sum(used.values()))
        reads = spans_of("core.read_sequence")
        out["core.read_sequence.calls_per_invocation"] = _ratio(
            len(reads), len({s[2] for s in reads}))
        dists = spans_of("processes.word_distribution")
        out["processes.word_distribution.calls_per_distinct"] = _ratio(
            len(dists), len({(s[2], s[6]) for s in dists}))
        out["core.table_entries_max"] = float(
            max((s[6] for s in spans_of("core.count_words")), default=0))
        out["entropy.kl_of.inf"] = float(sum(s[5] for s in spans_of("entropy.kl_of")))
        layer_of = np.array([LAYERS.index(nm.split(".")[0]) for nm in self.names])
        layer_self = np.bincount(layer_of, own, minlength=len(LAYERS))
        for layer, value in zip(LAYERS, layer_self):
            out[f"{layer}.self_s"] = float(value)
        out["trace.spans"] = float(n)
        del spans[:]
        return out


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0
