"""Per-module spans and counters, recorded by wrappers patched in from outside.

`Tracer.install()` replaces every public function of the irslink modules
with a wrapper that records a span (name, start, end, parent) and the
layer's counters.  A function is replaced in every module namespace that
binds it, because the metric modules import names such as
`integrate_semi_infinite` directly.  The integrand passed to the
quadrature routines is wrapped as well: its calls are the quadrature's
work (abscissae, and panels of 15 abscissae), and its span belongs to the
module that defined it.

Layers are the modules, with numerics split into quadrature, pFq and the
other special functions.  A layer's self time is the time of its spans
minus the time of their child spans.  Spans are kept in memory in flat
arrays and written out by `save` when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

import irslink
from irslink import metrics_csi, montecarlo

MODULES = ("cli", "montecarlo", "metrics_nocsi", "metrics_csi", "channel", "fbl", "numerics")
# Counter accessors are read by the tracer itself, not traced.
UNTRACED = {"pole_fallback_count", "clamp_count", "reset_counters"}
CSI_EVENTS = ("pole_fallbacks", "pole_fallback_count"), ("clamps", "clamp_count")
LAYERS = ("cli", "montecarlo", "metrics_nocsi", "metrics_csi", "channel", "fbl",
          "numerics.quad", "numerics.pfq", "numerics.special")
# Layers whose functions take arrays of abscissae; their points are the
# elements of the largest positional argument.
POINT_LAYERS = ("channel", "fbl", "numerics.special")
PANEL_ABSCISSAE = 15


def layer_of(module: str, name: str) -> str:
    if module != "numerics":
        return module
    if name.startswith("integrate_"):
        return "numerics.quad"
    if name == "hyp_pfq":
        return "numerics.pfq"
    return "numerics.special"


def _size(value) -> int:
    """Element count of an ndarray argument; 1 for scalars and other objects."""
    size = getattr(value, "size", 1)
    return size if isinstance(size, int) else 1


def _csi_events() -> dict[str, int]:
    """metrics_csi's module-global event tallies (0 where an accessor is absent)."""
    return {name: getattr(metrics_csi, accessor, lambda: 0)() for name, accessor in CSI_EVENTS}


class Tracer:
    """Spans and counters of one traced pass; install() patches, uninstall() restores."""

    def __init__(self):
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.max_uniform_bytes = 0
        self._patched: list[tuple[object, str, object]] = []
        self._events0: dict[str, int] = {}

    # -- recording ------------------------------------------------------

    def _name(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(LAYERS.index(layer) if layer in LAYERS else -1)
        return nid

    def _call(self, nid: int, layer: str, fn, args, kwargs, count_raise: bool = True):
        idx = len(self.start)
        parent = self._stack[-1] if self._stack else -1
        self.name_id.append(nid)
        self.parent.append(parent)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        except Exception:
            # count an exception once, where it leaves the layer
            if count_raise and (parent < 0 or self.name_layer[self.name_id[parent]]
                                != self.name_layer[nid]):
                self.counts[f"{layer}.raised"] += 1
            raise
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def _wrap_public(self, fn, module: str, name: str):
        layer = layer_of(module, name)
        nid = self._name(f"{module}.{name}", layer)
        calls, points = f"{layer}.calls", f"{layer}.points"
        is_quad = layer == "numerics.quad"
        has_points = layer in POINT_LAYERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[calls] += 1
            if has_points and args:
                self.counts[points] += max(_size(a) for a in args)
            if is_quad and args:
                args = (self._wrap_integrand(args[0]),) + args[1:]
            return self._call(nid, layer, fn, args, kwargs)

        return wrapper

    def _wrap_integrand(self, f):
        module = getattr(f, "__module__", "") or ""
        layer = module.rpartition(".")[2]
        nid = self._name(f"{layer}.integrand", layer)

        def integrand(x):
            n = _size(x)
            self.counts["numerics.quad.abscissae"] += n
            if n == PANEL_ABSCISSAE:
                self.counts["numerics.quad.panels"] += 1
            return self._call(nid, layer, f, (x,), {}, count_raise=False)

        return integrand

    def _wrap_uniform_block(self, fn):
        @functools.wraps(fn)
        def wrapper(seed, start_trial, count, n_elements):
            self.counts["montecarlo.trials"] += count
            if start_trial == 0:
                self.counts["montecarlo.draws"] += 1
            self.max_uniform_bytes = max(self.max_uniform_bytes, count * 4 * n_elements * 8)
            return fn(seed, start_trial, count, n_elements)

        return wrapper

    # -- patching -------------------------------------------------------

    def _patch_everywhere(self, original, replacement) -> None:
        namespaces = [m for k, m in list(sys.modules.items())
                      if k == "irslink" or k.startswith("irslink.")]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._patched.append((ns, attr, original))
                    setattr(ns, attr, replacement)

    def install(self) -> "Tracer":
        for module in MODULES:
            mod = getattr(irslink, module)
            for name in mod.__all__:
                fn = getattr(mod, name, None)
                if (name in UNTRACED or not callable(fn) or isinstance(fn, type)
                        or getattr(fn, "__module__", None) != mod.__name__):
                    continue
                self._patch_everywhere(fn, self._wrap_public(fn, module, name))
        block = getattr(montecarlo, "_uniform_block", None)
        if block is not None:
            self._patch_everywhere(block, self._wrap_uniform_block(block))
        self._events0 = _csi_events()
        return self

    def uninstall(self) -> None:
        for name, count in _csi_events().items():
            self.counts[f"metrics_csi.{name}"] += count - self._events0[name]
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis -------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer (duration minus child spans)."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        layer = np.asarray(self.name_layer, dtype=np.int64)[
            np.frombuffer(self.name_id, dtype=np.int32)]
        own = dur - child
        per_layer = np.bincount(layer[layer >= 0], weights=own[layer >= 0],
                                minlength=len(LAYERS))
        out = {name: float(per_layer[i]) for i, name in enumerate(LAYERS)}
        out["unlayered"] = float(own[layer < 0].sum())
        return out

    def span_total(self, name: str) -> float:
        """Summed duration of the spans called `name`."""
        if name not in self._name_ids:
            return 0.0
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        mask = ids == self._name_ids[name]
        return float((np.frombuffer(self.end, dtype=float)[mask]
                      - np.frombuffer(self.start, dtype=float)[mask]).sum())

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 name_layer=np.array([LAYERS[i] if i >= 0 else "" for i in self.name_layer]),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float))
