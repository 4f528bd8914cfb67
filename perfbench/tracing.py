"""Spans around the package's public functions, installed from outside.

:class:`Tracer` replaces each traced function or method with a wrapper that
records ``(span id, parent id, name, start, end, operation id)``.  Spans
stay in memory; :func:`layer_totals` turns them into call counts and self
times (a span's duration minus the durations of its direct children, which
run one after another in this single-threaded program).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

#: (span name, module, class or None, attribute) of every traced callable.
TARGETS = (
    ("laurent.mul", "dunkl_jacobi.laurent", "LaurentPoly", "__mul__"),
    ("dunkl.apply", "dunkl_jacobi.dunkl", "DunklOperator", "apply"),
    ("eigen.eigen_sequence", "dunkl_jacobi.eigen", None, "eigen_sequence"),
    ("eigen.residual", "dunkl_jacobi.eigen", None, "residual"),
    ("weights.pearson_residual", "dunkl_jacobi.weights", None, "pearson_residual"),
    ("quadrature.quadrature_rule", "dunkl_jacobi.quadrature", None, "quadrature_rule"),
    ("quadrature.inner_product", "dunkl_jacobi.quadrature", None, "inner_product"),
    ("quadrature.gram_matrix", "dunkl_jacobi.quadrature", None, "gram_matrix"),
    ("cli.main", "dunkl_jacobi.cli", None, "main"),
)

#: Span name of the benchmark's own per-operation root span.
OP_SPAN = "op"


class Tracer:
    """Records spans while installed; restores every patched attribute on exit."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._next_id = 1
        self._patched = []
        self._missing = set()
        self.rule_cache = None
        self.rule_counts = (0, 0)  # Gauss-rule cache (hits, misses) while installed

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, name):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, self.op))

        return traced

    def run_op(self, op_id, fn, *args):
        """Call ``fn(*args)`` under a root span for operation ``op_id``."""
        self.op = op_id
        try:
            return self._wrap(fn, OP_SPAN)(*args)
        finally:
            self.op = None

    # -- installation -------------------------------------------------------

    def __enter__(self):
        owners = []
        for _, module_name, cls_name, _ in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            owners.append(getattr(module, cls_name, None) if cls_name else module)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "dunkl_jacobi" or n.startswith("dunkl_jacobi."))]
        for (name, module_name, cls_name, attr), owner in zip(TARGETS, owners):
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                if name not in self._missing:
                    self._missing.add(name)
                    where = ".".join(filter(None, (module_name, cls_name, attr)))
                    print(f"perfbench: no {where}; {name} is not traced", file=sys.stderr)
                continue
            if name == "quadrature.quadrature_rule":
                self.rule_cache = original
            wrapped = self._wrap(original, name)
            # Patch every namespace that holds the same object (``from x import y``
            # copies, the package namespace, and aliases such as ``__rmul__``).
            for holder in ([owner] if cls_name else modules):
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)
                        self._patched.append((holder, key, original))
        self._counts_at_entry = self._cache_counts()
        return self

    def __exit__(self, *exc):
        now = self._cache_counts()
        self.rule_counts = tuple(total + b - a for total, a, b
                                 in zip(self.rule_counts, self._counts_at_entry, now))
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()
        return False

    def _cache_counts(self):
        info = getattr(self.rule_cache, "cache_info", None)
        if info is None:
            return (0, 0)
        ci = info()
        return ci.hits, ci.misses

    def dump(self, path):
        write_spans(path, self.spans, self.rule_counts)


def write_spans(path, spans, rule_counts):
    """One JSON object per line: the rule-cache ``(hits, misses)``, then every span."""
    with open(path, "w") as fh:
        fh.write(json.dumps({"rule_cache": list(rule_counts)}) + "\n")
        for sid, parent, name, start, end, op in spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                 "start": start, "end": end, "op": op}) + "\n")


def layer_totals(spans) -> dict:
    """``{name: [calls, self_seconds]}`` over one process's spans."""
    child_time = {}
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    totals = {}
    for sid, _, name, start, end, _ in spans:
        entry = totals.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - child_time.get(sid, 0.0)
    return totals
