"""Spans around the calls one gbh_fdr layer makes into another.

The wrappers live here, not in the package: `Tracer.install` replaces the
names where the calling module looks them up (for example
`gbh_fdr.simulator.gbh1`) and `uninstall` puts the originals back.  Spans are
kept in memory as [name, layer, counted, start, end, parent, thread] and
written out once, at the end of the run.
"""

from __future__ import annotations

import importlib
import threading
import time
import types
from collections import defaultdict

LAYERS = ("cli", "simulator", "procedures", "normal", "bound", "verify")

# (calling module, name it looks up, layer of the callee).
PATCHES = (
    ("gbh_fdr.cli", "run_mc", "simulator"),
    ("gbh_fdr.cli", "GroupedPValues", "procedures"),
    ("gbh_fdr.cli", "gbh1", "procedures"),
    ("gbh_fdr.cli", "storey", "procedures"),
    ("gbh_fdr.cli", "bh_step_up", "procedures"),
    ("gbh_fdr.cli", "fdr_bound", "bound"),
    ("gbh_fdr.cli", "fdr_bound_aform", "bound"),
    ("gbh_fdr.simulator", "norm_quantile", "normal"),
    ("gbh_fdr.simulator", "norm_sf", "normal"),
    ("gbh_fdr.simulator", "GroupedPValues", "procedures"),
    ("gbh_fdr.simulator", "gbh1", "procedures"),
    ("gbh_fdr.simulator", "storey", "procedures"),
    ("gbh_fdr.simulator", "bh_step_up", "procedures"),
    ("gbh_fdr.simulator", "fdr_bound", "bound"),
    ("gbh_fdr.bound", "norm_cdf", "normal"),
    ("gbh_fdr.bound", "norm_quantile", "normal"),
    ("gbh_fdr.bound", "phi", "normal"),
    ("gbh_fdr.verify", "norm_cdf", "normal"),
    ("gbh_fdr.verify", "norm_quantile", "normal"),
    ("gbh_fdr.verify", "phi", "normal"),
    ("gbh_fdr.verify", "GroupedPValues", "procedures"),
    ("gbh_fdr.verify", "gbh1", "procedures"),
    ("gbh_fdr.verify", "pvalues_from_sample", "simulator"),
    ("gbh_fdr.verify", "ab_from_rho", "bound"),
    ("gbh_fdr.verify", "exact_p_conditional", "bound"),
    ("gbh_fdr.verify", "integrals_closed", "bound"),
    ("gbh_fdr.verify", "m_factor", "bound"),
)

# Traced, but not counted as calls into their layer: building a
# GroupedPValues precedes every procedure run, and one procedure run is the
# unit the call counts are checked against.
UNCOUNTED = ("GroupedPValues",)

# The CLI reaches the audit sections through its `verify_mod` module name.
VERIFY_SECTIONS = ("run_integrals_section", "run_m_bound_section",
                   "run_mvt_section", "run_lemmas_section")


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._saved = []

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, layer: str, fn, counted: bool = True):
        spans = self.spans

        def traced(*args, **kwargs):
            stack = self._stack()
            # A worker thread's outermost span belongs to whatever the main
            # thread is running when the worker calls in.
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else -1
            idx = len(spans)
            span = [name, layer, counted, time.perf_counter(), None, parent,
                    threading.get_ident()]
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()

        return traced

    def _set(self, module, attr, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        for mod_name, attr, layer in PATCHES:
            module = importlib.import_module(mod_name)
            counted = attr not in UNCOUNTED
            original = getattr(module, attr)
            wrapped = self.wrap(f"{layer}.{attr}", layer, original, counted)
            if hasattr(original, "from_labels"):
                wrapped.from_labels = self.wrap(f"{layer}.{attr}.from_labels", layer,
                                                original.from_labels, counted)
            self._set(module, attr, wrapped)
        cli = importlib.import_module("gbh_fdr.cli")
        sections = {name: self.wrap(f"verify.{name}", "verify", getattr(cli.verify_mod, name))
                    for name in VERIFY_SECTIONS}
        self._set(cli, "verify_mod", types.SimpleNamespace(**sections))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def layer_totals(self) -> dict:
        """Per layer: self time in seconds and counted calls.

        A span's self time is its duration minus the part of its interval
        that its child spans cover; children on worker threads can overlap,
        so the covered part is the union of their intervals.  Spans on
        worker threads include time spent waiting for the interpreter lock,
        so with threads the layers' self times can add up to more than the
        wall time.
        """
        children = defaultdict(list)
        for span in self.spans:
            if span[5] >= 0:
                children[span[5]].append((span[3], span[4]))
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        for idx, (name, layer, counted, start, end, parent, thread) in enumerate(self.spans):
            covered, reach = 0.0, start
            for lo, hi in sorted(children.get(idx, ())):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            self_s[layer] += (end - start) - covered
            calls[layer] += counted
        return {"self_s": self_s, "calls": calls}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,layer,counted,start_s,end_s,parent,thread\n")
            for name, layer, counted, start, end, parent, thread in self.spans:
                fh.write(f"{name},{layer},{int(counted)},{start!r},{end!r},{parent},{thread}\n")
