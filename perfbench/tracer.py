"""Per-layer spans recorded by wrappers around poleplace's public functions.

The wrappers live here, in the benchmark, not in the program: ``install``
replaces each traced function at every place it is looked up (each module
namespace that binds it, the ``ALGORITHMS`` dict, the ``Trace`` class), and
``restore`` puts the originals back.  Each function is wrapped once, however
many names it has, so no call is counted twice.  Spans stay in memory as
``[name, start, end, parent index]`` until the run ends.

``algebroid`` is reached only by the fixed ``check-commutators`` self-test,
which no workload runs, so it is not traced.
"""

from __future__ import annotations

import functools
import time

from workloads import gain_bits

LAYERS = {
    "linalg": ("eigenvalues", "poly_from_roots", "svd_decompose",
               "qr_decompose", "solve_linear", "schur_decompose"),
    "placement": ("build_anchor_chain", "gain_from_chain", "feedback_eval"),
    "bench": ("evaluate_placement", "render_table", "render_csv"),
    "exactring": ("place_exact", "mat_mul", "nullspace_row", "ratio"),
    "sim": ("simulate", "rk4_step", "trace_diff"),
}
MODULES = ("linalg", "placement", "bench", "exactring", "sim", "cli", "algebroid")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []
        self._sim_mode = []
        self.typed_errors = 0
        self.gain_bits = 0

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, on_enter=None, on_exit=None, on_result=None,
              on_error=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_enter:
                on_enter(args, kwargs)
            span = [name() if callable(name) else name, clock(), 0.0,
                    stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error:
                    on_error(exc)
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if on_exit:
                    on_exit()
            if on_result:
                on_result(result)
            return result

        return traced

    def _set(self, owner, key, value, as_item=False):
        if as_item:
            self._undo.append((owner, key, owner[key], True))
            owner[key] = value
        else:
            self._undo.append((owner, key, getattr(owner, key), False))
            setattr(owner, key, value)

    def install(self):
        """Wrap the traced functions of every layer.  Call ``restore``
        before installing again."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        import importlib

        import poleplace
        from poleplace.errors import PlacementError

        mods = {m: importlib.import_module(f"poleplace.{m}") for m in MODULES}
        namespaces = [poleplace, *mods.values()]
        sim = mods["sim"]
        hooks = {
            "sim.simulate": dict(
                on_enter=lambda a, kw: self._sim_mode.append(
                    (kw["cfg"] if "cfg" in kw else a[2]).feedback),
                on_exit=self._sim_mode.pop),
            "sim.rk4_step": dict(
                name=lambda: f"sim.rk4_step.{self._sim_mode[-1]}"),
            "exactring.place_exact": dict(on_result=self._record_gain_bits),
        }

        def count_typed(exc):
            if isinstance(exc, PlacementError):
                self.typed_errors += 1

        for layer, names in LAYERS.items():
            for attr in names:
                orig = getattr(mods[layer], attr)
                opts = dict(hooks.get(f"{layer}.{attr}", {}))
                wrapper = self._wrap(opts.pop("name", f"{layer}.{attr}"), orig, **opts)
                for ns in namespaces:
                    for key in [k for k, v in vars(ns).items() if v is orig]:
                        self._set(ns, key, wrapper)
        table = mods["placement"].ALGORITHMS
        for key, fn in list(table.items()):
            self._set(table, key, self._wrap(f"placement.{key}", fn,
                                             on_error=count_typed), as_item=True)
        self._set(sim.Trace, "to_csv", self._wrap("sim.Trace.to_csv", sim.Trace.to_csv))

    def restore(self):
        while self._undo:
            owner, key, orig, as_item = self._undo.pop()
            if as_item:
                owner[key] = orig
            else:
                setattr(owner, key, orig)

    def _record_gain_bits(self, gain):
        self.gain_bits = max(self.gain_bits, gain_bits(gain))

    # -- aggregation -------------------------------------------------------

    def totals(self):
        """{name: [calls, busy, child]} plus the summed duration of root spans."""
        acc = {}
        root = 0.0
        spans = self.spans
        for name, t0, t1, parent in spans:
            dur = t1 - t0
            rec = acc.setdefault(name, [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += dur
            if parent < 0:
                root += dur
            else:
                acc[spans[parent][0]][2] += dur
        return acc, root
