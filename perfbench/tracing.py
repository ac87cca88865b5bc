"""Span tracing of ellipsurf's layers, installed from outside the program.

:class:`Tracer` replaces every public function of each layer module
(and the explicit methods of its public classes) with a wrapper that
records a span: function, layer, start, end, parent span and the op it
belongs to.  The wrapper is installed on every attribute that refers to
the original function, in every loaded ``ellipsurf`` module, because
``cli``, ``lauricella`` and the package ``__init__`` bind several names
by direct import and patching only the defining module would miss those
calls.  Spans stay in memory until :meth:`Tracer.dump`.

A layer's self time is the wall time of its spans minus the part of each
span's interval covered by its child spans.  Spans opened in worker
threads with an empty stack take the main thread's innermost open span
as parent, so Monte Carlo chunks run in the pool count as children of
the call that dispatched them, and the union of their intervals (not
the sum) is subtracted.

Counts are taken at the same boundaries from arguments and return
values (see ``_COUNTERS``).
"""

import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

#: Layer name -> module.  ``kernels`` is the private ``_kernels`` module.
LAYER_MODULES = {
    "cli": "ellipsurf.cli",
    "geometry": "ellipsurf.geometry",
    "quadrature": "ellipsurf.quadrature",
    "lauricella": "ellipsurf.lauricella",
    "mc": "ellipsurf.mc",
    "bounds": "ellipsurf.bounds",
    "kernels": "ellipsurf._kernels",
}


def _count_quad(counts, args, result):
    counts["quadrature.evals"] += result.evals
    counts["quadrature.unconverged"] += not result.converged


def _count_fd_series(counts, args, result):
    counts["lauricella.fd_calls"] += 1
    counts["lauricella.series_terms"] += result.evals


def _count_fd_integral(counts, args, result):
    counts["lauricella.fd_calls"] += 1
    counts["lauricella.integral_evals"] += result.evals


def _count_lauricella(counts, args, result):
    counts["lauricella.unconverged"] += not result.converged


def _count_volume(counts, args, result):
    counts["geometry.volume_underflow"] += result == 0.0


def _count_log1p(counts, args, result):
    counts["kernels.sum_log1p_calls"] += 1
    counts["kernels.log1p_bytes"] += 8 * args[0].size


#: (layer, function-name prefix) -> counter; prefixes cover the
#: ``*_numpy`` / ``*_numba`` variant names of the kernels.
_COUNTERS = {
    ("quadrature", "sqrt_qform_moment"): _count_quad,
    ("lauricella", "fd_series"): _count_fd_series,
    ("lauricella", "fd_integral"): _count_fd_integral,
    ("lauricella", "iso_ratio_lauricella"): _count_lauricella,
    ("geometry", "ellipsoid_volume"): _count_volume,
    ("kernels", "sum_log1p"): _count_log1p,
}


def _counter_for(layer, name):
    for (lay, prefix), fn in _COUNTERS.items():
        if lay == layer and name.startswith(prefix):
            return fn
    return None


def _targets(layer, module):
    """What to wrap in one layer, as (target, display name) pairs.

    A target is a module-level function, or (class, attribute, member)
    for a method of one of the module's public classes.
    """
    found = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            found.append((obj, obj.__name__))
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                fn = member.__func__ if isinstance(member, (classmethod, staticmethod)) else member
                # dataclass-generated __init__ has no source file of its own
                if inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__:
                    found.append(((obj, attr, member), f"{obj.__name__}.{attr}"))
    return found


class Tracer:
    """Records spans and counts for the layers in :data:`LAYER_MODULES`."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.op = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, layer, name):
        counter = _counter_for(layer, name)
        clock = time.perf_counter
        spans = self.spans
        counts = self.counts
        ids = self._ids

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main and stack is not main else None
            span_id = next(ids)
            stack.append(span_id)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((span_id, parent, layer, name, t0, t1, self.op))
            if counter is not None:
                counter(counts, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Wrap every layer function on every attribute that refers to it.

        Layers whose module is not loaded (``cli`` in-process) are skipped.
        """
        replace = {}
        for layer, modname in LAYER_MODULES.items():
            module = sys.modules.get(modname)
            if module is None:
                continue
            for target, name in _targets(layer, module):
                if isinstance(target, tuple):
                    cls, attr, member = target
                    if isinstance(member, classmethod):
                        wrapped = classmethod(self._wrap(member.__func__, layer, name))
                    elif isinstance(member, staticmethod):
                        wrapped = staticmethod(self._wrap(member.__func__, layer, name))
                    else:
                        wrapped = self._wrap(member, layer, name)
                    self._undo.append((cls, attr, member))
                    setattr(cls, attr, wrapped)
                else:
                    replace[id(target)] = (target, self._wrap(target, layer, name))
        for modname, module in list(sys.modules.items()):
            if not (modname == "ellipsurf" or modname.startswith("ellipsurf.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def dump(self):
        """Spans and counts as plain JSON-ready data."""
        return {
            "spans": [list(s) for s in self.spans],
            "counts": dict(self.counts),
        }


def self_times(spans):
    """Per-span self time: duration minus the union of child intervals.

    ``spans`` holds (id, parent, layer, name, t0, t1, op) rows.  Returns
    a list of (layer, name, op, duration, self time).
    """
    children = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append((span[4], span[5]))
    out = []
    for span_id, _parent, layer, name, t0, t1, op in spans:
        covered = 0.0
        end = t0
        for c0, c1 in sorted(children.get(span_id, ())):
            c0 = max(c0, end)
            c1 = min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out.append((layer, name, op, t1 - t0, (t1 - t0) - covered))
    return out
