"""Span tracer that wraps sylowpi's public functions from outside.

Each wrapped function is replaced at every name its callers bind (the
defining module and every sylowpi module that imported it), so calls made
inside the package are traced too.  Spans are kept in memory as
(layer id, start, end, parent span, op id) and written out when the child
process ends; per-layer metrics are self times (a span's duration minus the
spans it directly contains), so they add up to the traced time.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from collections import Counter

import numpy as np
from sylowpi.permbrute import BruteForceBoundError

OUTSIDE_OPS = -1  # op id of spans outside the timed ops (set-up of a job, the facts probe)

# layer -> functions it owns, as (module, attribute) or (module, class, method)
LAYERS = {
    "permbrute.realize": [("sylowpi.permbrute", "realize")],
    "permbrute.table": [("sylowpi.permbrute", "PermGroup", "require_table")],
    "permbrute.lattice": [("sylowpi.permbrute", "PermGroup", "subgroup_classes")],
    "permbrute.closure": [("sylowpi.permbrute", "PermGroup", "closure_indices")],
    "permbrute.maxpi": [("sylowpi.permbrute", "maximal_pi_subgroups")],
    "permbrute.structure": [
        ("sylowpi.permbrute", "split_hall"),
        ("sylowpi.permbrute", "check_final_corollary"),
        ("sylowpi.permbrute", "PermGroup", "sylow_in"),
        ("sylowpi.permbrute", "PermGroup", "is_solvable_set"),
    ],
    "catalog.prime_power": [("sylowpi.catalog", "prime_power")],
    "catalog.ensure_valid": [("sylowpi.catalog", "ensure_valid")],
    "catalog.facts": [("sylowpi.catalog", "facts")],
    "criterion.decide": [("sylowpi.criterion", "decide_dpi_simple")],
    "arith.prime_divisors": [("sylowpi.arith", "prime_divisors")],
    "arith.mult_order": [("sylowpi.arith", "mult_order")],
    "composition.decide": [
        ("sylowpi.composition", "decide_dpi_composite"),
        ("sylowpi.composition", "wielandt_split"),
    ],
    "cli": [("sylowpi.cli", "run")],
    "calib": [],  # the benchmark's calibration kernel (calib.py), not sylowpi
}

# functions whose first call per group computes and later calls return a
# cached result: only the computing call is a span
_CACHED_PER_GROUP = {"require_table", "subgroup_classes"}


class Tracer:
    def __init__(self):
        self.layers = list(LAYERS)
        self.spans: list = []
        self.stack: list[int] = []
        self.op_id = OUTSIDE_OPS
        self.enabled = True
        self.counts: Counter = Counter()
        # realize time per realized group, moved to wasted_s when the
        # group's table is then refused by the lattice bound
        self._realized = weakref.WeakKeyDictionary()
        self.wasted_s = 0.0

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for layer_id, layer in enumerate(self.layers):
            for target in LAYERS[layer]:
                module = sys.modules[target[0]]
                if len(target) == 3:
                    cls = getattr(module, target[1])
                    orig = getattr(cls, target[2])
                    setattr(cls, target[2], self._wrap(layer_id, layer, orig, target[2]))
                    continue
                orig = getattr(module, target[1])
                wrapped = self._wrap(layer_id, layer, orig, target[1])
                for name, mod in list(sys.modules.items()):
                    if name == "sylowpi" or name.startswith("sylowpi."):
                        for attr, value in list(vars(mod).items()):
                            if value is orig:
                                setattr(mod, attr, wrapped)

    def wrap_own(self, layer: str, fn):
        """Trace one of the benchmark's own functions as `layer`."""
        return self._wrap(self.layers.index(layer), layer, fn, fn.__name__)

    def _wrap(self, layer_id: int, layer: str, fn, fname: str):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter
        computed = weakref.WeakSet() if fname in _CACHED_PER_GROUP else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled or (computed is not None and args[0] in computed):
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            counts[layer + ".calls"] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                counts[layer + ".failed"] += 1
                if isinstance(exc, BruteForceBoundError) and fname == "require_table":
                    self.wasted_s += self._realized.pop(args[0], 0.0)
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (layer_id, t0, t1, parent, self.op_id)
            if computed is not None:
                computed.add(args[0])
                self._on_computed(fname, out)
            elif fname == "decide_dpi_simple":
                self._on_verdict(out)
            elif fname == "realize":
                self._realized[out] = self._realized.get(out, 0.0) + (t1 - t0)
            return out

        return wrapper

    def _on_computed(self, fname: str, out) -> None:
        if fname == "require_table":
            # n^2 * itemsize: the bytes of the table the call computed
            self.counts["permbrute.table.bytes_computed"] += int(out.nbytes)
        else:
            self.counts["permbrute.lattice.classes"] += len(out)
            self.counts["permbrute.lattice.subgroups"] += sum(c.class_size for c in out)

    def _on_verdict(self, v) -> None:
        w = v.witness
        if w is None:
            key = "none"
        elif w.subcase is None:
            key = w.condition
        else:
            key = f"{w.condition}.{w.subcase}"
        self.counts["criterion.witness." + key] += 1

    # -- results --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        rows = self.spans
        return {
            "layer": np.array([r[0] for r in rows], dtype=np.int16),
            "start": np.array([r[1] for r in rows], dtype=np.float64),
            "end": np.array([r[2] for r in rows], dtype=np.float64),
            "parent": np.array([r[3] for r in rows], dtype=np.int64),
            "op": np.array([r[4] for r in rows], dtype=np.int64),
        }

    def summary(self) -> dict:
        """Per-layer self time, time spent outside the ops, and counts."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        inner = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - inner
        per_layer = np.bincount(a["layer"], weights=own, minlength=len(self.layers))
        out = {f"{layer}.self_s": float(per_layer[i]) for i, layer in enumerate(self.layers)}
        outside = (a["op"] == OUTSIDE_OPS) & (a["layer"] != self.layers.index("calib"))
        out["outside_ops_s"] = float(own[outside].sum())
        out["permbrute.realize.wasted_s"] = self.wasted_s
        out["spans"] = len(dur)
        out["counts"] = dict(self.counts)
        return out

    def write(self, path) -> None:
        np.savez(path, layers=np.array(self.layers), **self.arrays())
