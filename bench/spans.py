"""Spans around the calls into each uniconc module, for the traced run.

Every public function of the traced modules is replaced by a wrapper at
every module attribute that binds it (``sweep`` and ``cli`` import names
directly, so rebinding the defining module alone would miss their calls).
A wrapper records one span per call: the function, the enclosing span,
start and end times, and a work count taken from the arguments or the
result.  Spans are kept in memory in flat arrays and written out at the
end; the per-layer metrics are derived from them pass by pass.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("exactdist", "certify", "bounds", "sweep", "asymptotics", "cli")
# In sweep only rendering and the sweep driver are traced; the per-cell
# functions are private and their own code counts as the sweep's.
SWEEP_TRACED = ("run_sweep", "decimal_string", "report_to_csv_bytes", "report_to_json_bytes")
RENDERING = ("sweep.decimal_string", "sweep.report_to_csv_bytes", "sweep.report_to_json_bytes")
CLI_TRACED = ("main",)

# name and unit of each per-layer metric; Tracer.pass_metrics derives them
LAYER_METRICS = (
    ("exactdist.self_s", "s"),
    ("exactdist.concentration.calls", "count"),
    ("exactdist.power.calls", "count"),
    ("exactdist.pmf_points", "count"),
    ("exactdist.demoivre_terms", "count"),
    ("exactdist.pair_concentration.s", "s"),
    ("certify.self_s", "s"),
    ("certify.certify_less.calls", "count"),
    ("certify.evaluate.calls", "count"),
    ("certify.evaluations_per_verdict", "ratio"),
    ("certify.escalations", "count"),
    ("certify.pi_enclosure.calls", "count"),
    ("bounds.self_s", "s"),
    ("bounds.bessel_G.s", "s"),
    ("sweep.self_s", "s"),
    ("sweep.render_s", "s"),
    ("sweep.decimal_string.calls", "count"),
    ("cli.self_s", "s"),
    ("asymptotics.self_s", "s"),
)


def _public_functions(module, only=None) -> dict[str, object]:
    names = only if only is not None else getattr(module, "__all__", ())
    out = {}
    for name in names:
        fn = getattr(module, name, None)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            out[name] = fn
    return out


def _demoivre_terms(args, kwargs, result) -> int:
    """Terms of de Moivre's sum for P(S_n = k): j = 0..min(k // ell, n)."""
    params = kwargs.get("params", args[0] if args else None)
    k = kwargs.get("k", args[1] if len(args) > 1 else None)
    if params is None or k is None or k < 0:
        return 0
    return min(k // params.ell, params.n) + 1


def _pmf_points(args, kwargs, result) -> int:
    """Numerators of a pmf the call returned, if it returned one."""
    nums = getattr(result, "numerators", None)
    return len(nums) if nums is not None else 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.pass_starts: list[int] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at every binding in loaded uniconc modules."""
        import uniconc

        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules.get(f"uniconc.{layer}")
            if module is None:
                continue
            only = SWEEP_TRACED if layer == "sweep" else CLI_TRACED if layer == "cli" else None
            for name, fn in _public_functions(module, only).items():
                qualname = f"{layer}.{name}"
                if qualname == "exactdist.de_moivre_pmf":
                    hook = _demoivre_terms
                elif layer == "exactdist":
                    hook = _pmf_points
                else:
                    hook = None
                wrappers[id(fn)] = (fn, self._wrap(qualname, fn, hook))
        modules = [uniconc] + [m for k, m in sys.modules.items() if k.startswith("uniconc.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._installed.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in self._installed:
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, qualname: str, fn, hook):
        fid = len(self.names)
        self.names.append(qualname)
        stack, clock = self._stack, time.perf_counter
        fids, parents, starts, ends, works = self.fid, self.parent, self.start, self.end, self.work

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            works.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                works[idx] = hook(args, kwargs, result)
            return result

        return wrapper

    def begin_pass(self) -> None:
        self.pass_starts.append(len(self.start))

    # -- metrics -------------------------------------------------------------

    def pass_metrics(self, lo: int, hi: int) -> dict[str, float]:
        """Per-layer metrics of the spans [lo, hi) of one pass."""
        names = self.names
        fid = np.array(self.fid[lo:hi], dtype=np.int64)
        parent = np.array(self.parent[lo:hi], dtype=np.int64) - lo
        parent[parent < 0] = -1
        dur = np.array(self.end[lo:hi]) - np.array(self.start[lo:hi])
        work = np.array(self.work[lo:hi], dtype=np.int64)
        layer_of = np.array([LAYERS.index(q.split(".")[0]) for q in names], dtype=np.int64)[fid]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(fid))
        own = dur - child

        def mask(*qualnames):
            return np.isin(fid, [names.index(q) for q in qualnames if q in names])

        def calls(qualname):
            return int(mask(qualname).sum())

        def outermost(member):
            """Spans in ``member`` with no ancestor in ``member``."""
            inside = np.zeros(len(fid), dtype=bool)
            up = parent.copy()
            while (live := up >= 0).any():
                inside[live] |= member[up[live]]
                up[live] = parent[up[live]]
            return member & ~inside

        demoivre = mask("exactdist.de_moivre_pmf")
        # a call that returned a pmf, unless a caller up the stack returned one too
        pmf_builds = outermost((layer_of == LAYERS.index("exactdist")) & ~demoivre & (work > 0))
        render = mask(*RENDERING)
        certify_less = mask("certify.certify_less")
        evaluate = mask("certify.evaluate")
        evals_in = np.bincount(parent[evaluate & has_parent], minlength=len(fid))[certify_less]
        m = {}
        for layer in LAYERS:
            in_layer = layer_of == LAYERS.index(layer)
            if layer == "sweep":
                in_layer &= ~render
            m[f"{layer}.self_s"] = float(own[in_layer].sum())
        m["exactdist.concentration.calls"] = calls("exactdist.concentration")
        m["exactdist.power.calls"] = calls("exactdist.power")
        m["exactdist.pmf_points"] = int(work[pmf_builds].sum())
        m["exactdist.demoivre_terms"] = int(work[demoivre].sum())
        m["exactdist.pair_concentration.s"] = float(dur[outermost(mask("exactdist.pair_concentration"))].sum())
        m["certify.certify_less.calls"] = int(certify_less.sum())
        m["certify.evaluate.calls"] = int(evaluate.sum())
        m["certify.evaluations_per_verdict"] = (
            m["certify.evaluate.calls"] / m["certify.certify_less.calls"]
            if m["certify.certify_less.calls"] else 0.0
        )
        m["certify.escalations"] = int(np.maximum(evals_in - 1, 0).sum())
        m["certify.pi_enclosure.calls"] = calls("certify.pi_enclosure")
        m["bounds.bessel_G.s"] = float(dur[outermost(mask("bounds.bessel_G"))].sum())
        m["sweep.render_s"] = float(dur[outermost(render)].sum())
        m["sweep.decimal_string.calls"] = calls("sweep.decimal_string")
        return m

    def per_pass(self) -> list[dict[str, float]]:
        ends = self.pass_starts[1:] + [len(self.start)]
        return [self.pass_metrics(lo, hi) for lo, hi in zip(self.pass_starts, ends)]

    def metrics(self) -> dict[str, float]:
        """Median over passes of each per-layer metric; counts repeat
        exactly from pass to pass, so their median is the count."""
        per_pass = self.per_pass()
        return {name: statistics.median(p[name] for p in per_pass) for name, _ in LAYER_METRICS}

    def write(self, path: Path) -> None:
        np.savez_compressed(
            path,
            functions=np.array(self.names),
            pass_starts=np.array(self.pass_starts, dtype=np.int64),
            function=np.array(self.fid, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
            work=np.array(self.work, dtype=np.int64),
        )
