"""Outside-in tracer: span and count wrappers installed around wolffpot's layers.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
replaces each traced function or method with a wrapper in *every* wolffpot
module namespace that binds it (``cube_mass_table`` is imported into
``kernels``, ``potentials`` and ``verify``, for example), and patches methods
at class level.  :meth:`Tracer.uninstall` puts the originals back, so a run
can alternate untraced and traced passes.  :class:`SetupClock` uses the same
mechanism to time the constructors inside a pass.

Spans are kept in flat arrays (name id, parent span id, start, end) and
reduced when a pass ends; a span's self time is its duration minus the part
covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
import warnings
from array import array
from contextlib import contextmanager

import numpy as np

WOLFF_CONTINUOUS = "potentials.wolff_continuous"
# Derived from arguments and the span tree rather than timed or counted.
COMPUTED = {f"{WOLFF_CONTINUOUS}.cross_bytes", f"{WOLFF_CONTINUOUS}.breakpoints"}

# (span name, owner, attribute): owner is "module" or "module.Class".
SPANS = [
    ("lattice.chain_keys", "lattice.LatticeWindow", "chain_keys"),
    ("measures.cube_mass_table", "measures", "cube_mass_table"),
    ("measures.radial_profile", "measures.AtomicMeasure", "radial_profile"),
    ("measures.lebesgue_grid", "measures", "lebesgue_grid"),
    ("measures.bernoulli_cascade", "measures", "bernoulli_cascade"),
    ("kernels.BarField.prefix", "kernels.BarField", "prefix"),
    ("kernels.dlbo_constant", "kernels", "dlbo_constant"),
    ("kernels.log_primitive", "kernels.RadialKernel", "log_primitive"),
    ("kernels.quad", "kernels", "quad"),
    ("kernels.bar_k", "kernels", "bar_k"),
    ("kernels.log_kernel", "kernels", "log_kernel"),
    ("potentials.DyadicScene.init", "potentials.DyadicScene", "__init__"),
    ("potentials.DyadicScene.inner", "potentials.DyadicScene", "inner"),
    ("potentials.DyadicScene.t", "potentials.DyadicScene", "t"),
    ("potentials.DyadicScene.wolff", "potentials.DyadicScene", "wolff"),
    ("potentials.DyadicScene.wolff_bar", "potentials.DyadicScene", "wolff_bar"),
    ("potentials.DyadicScene.maximal", "potentials.DyadicScene", "maximal"),
    ("potentials.energy_dyadic", "potentials", "energy_dyadic"),
    (WOLFF_CONTINUOUS, "potentials", "wolff_continuous"),
    ("potentials.m_k_maximal", "potentials", "m_k_maximal"),
    ("potentials.t_continuous_trunc", "potentials", "t_continuous_trunc"),
    ("verify.shifted_average_check", "verify", "shifted_average_check"),
    ("verify.trace_test_upper_triangle", "verify", "trace_test_upper_triangle"),
    ("verify.trace_constant_q1", "verify", "trace_constant_q1"),
    ("verify.fubini_pair", "verify", "fubini_pair"),
    ("verify.check_counterexample_fields", "verify", "check_counterexample_fields"),
    ("verify.check_kernel_dilation", "verify", "check_kernel_dilation"),
    ("verify.check_bar_lemmas", "verify", "check_bar_lemmas"),
    ("scenario.load_scenario", "scenario", "load_scenario"),
    ("cli.write", "cli", "write_report"),
    ("cli.write", "cli", "write_ratio_csv"),
    ("cli.write", "cli", "write_values_csv"),
]

# The program's constructors, whose time is ``setup_s``: (owner, attribute).
CONSTRUCTORS = [
    ("scenario", "load_scenario"),
    ("measures", "lebesgue_grid"),
    ("measures", "bernoulli_cascade"),
    ("kernels", "log_kernel"),
]

# Counted, not spanned: these run hundreds of thousands of times per pass.
COUNTS = [
    ("kernels.K", "kernels.DyadicKernelMap", "__call__"),
    ("measures.ball_mass", "measures.AtomicMeasure", "ball_mass"),
]


def _resolve(owner: str):
    """``"measures"`` -> module, ``"measures.AtomicMeasure"`` -> class."""
    mod_name, _, cls_name = owner.partition(".")
    module = sys.modules[f"wolffpot.{mod_name}"]
    return getattr(module, cls_name) if cls_name else module


def _namespaces():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "wolffpot" or name.startswith("wolffpot."))]


class _Patcher:
    """Replaces wolffpot names with wrappers and puts the originals back."""

    def __init__(self):
        self._patched: list[tuple] = []

    def uninstall(self) -> None:
        for target, attr, original, item in reversed(self._patched):
            if item:
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._patched = []

    def _patch(self, target, attr, value, item=False):
        original = target[attr] if item else getattr(target, attr)
        self._patched.append((target, attr, original, item))
        if item:
            target[attr] = value
        else:
            setattr(target, attr, value)

    def _install(self, owner: str, attr: str, make) -> None:
        home = _resolve(owner)
        if isinstance(home, type):
            self._patch(home, attr, make(home.__dict__[attr]))
            return
        original = getattr(home, attr)
        wrapped = make(original)
        for module in _namespaces():
            if module.__dict__.get(attr) is original:
                self._patch(module, attr, wrapped)


class SetupClock(_Patcher):
    """Seconds a pass spends in the program's constructors.

    Wraps ``CONSTRUCTORS`` in every namespace that binds them and times only
    the outermost call, so ``lebesgue_grid`` under ``load_scenario`` is not
    counted twice.  ``total`` accumulates until :meth:`reset`.
    """

    def __init__(self):
        super().__init__()
        self.total = 0.0
        self._busy = False

    def reset(self) -> None:
        self.total = 0.0

    def install(self) -> None:
        for owner, attr in CONSTRUCTORS:
            self._install(owner, attr, self._wrap)

    def _wrap(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._busy:
                return fn(*args, **kwargs)
            self._busy = True
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.total += time.perf_counter() - t0
                self._busy = False

        return wrapper


class Tracer(_Patcher):
    """Spans and counters for one process; ``reset`` clears them between passes."""

    def __init__(self):
        super().__init__()
        self._ids: dict[str, int] = {}
        self.names: list[str] = []
        self._cells: dict[str, list[int]] = {}
        self.reset()

    def reset(self):
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, float] = {}
        for cell in self._cells.values():
            cell[0] = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        sid = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(sid)

    def _open(self, nid: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(sid)
        self.span_start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.span_end[sid] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def note_max(self, name: str, value: float) -> None:
        if value > self.maxima.get(name, -math.inf):
            self.maxima[name] = value

    def span_wrapper(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(args, kwargs, result)`` runs once it ends."""
        nid = self._name_id(name)
        opn, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = opn(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(sid)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def count_wrapper(self, name: str, fn):
        cell = self._cells.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced layer; call :meth:`uninstall` before installing again."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for name, owner, attr in SPANS:
            self._install(owner, attr, lambda fn, n=name: self._make_span(n, fn))
        for name, owner, attr in COUNTS:
            self._install(owner, attr, lambda fn, n=name: self.count_wrapper(n, fn))
        runners = sys.modules["wolffpot.cli"].CHECK_RUNNERS
        for check, fn in list(runners.items()):
            self._patch(runners, check, self.span_wrapper(f"cli.check.{check}", fn), item=True)
        cli = sys.modules["wolffpot.cli"]
        field_values = cli._field_values

        def traced_field_values(scn, points, kind):
            with self.span(f"cli.field.{kind}"):
                return field_values(scn, points, kind)

        self._patch(cli, "_field_values", traced_field_values)

    def _make_span(self, name: str, fn):
        if name == "kernels.quad":
            return self._quad_wrapper(fn)
        if name == "measures.cube_mass_table":
            def after(args, kwargs, table):
                measure = args[0] if args else kwargs["measure"]
                self.add("measures.cube_mass_table.atoms", measure.n_atoms)
                self.add("measures.cube_mass_table.cubes", len(table))
            return self.span_wrapper(name, fn, after)
        if name == WOLFF_CONTINUOUS:
            return self._wolff_continuous_wrapper(fn)
        return self.span_wrapper(name, fn)

    def _quad_wrapper(self, quad):
        inner = self.span_wrapper("kernels.quad", quad)

        @functools.wraps(quad)
        def wrapper(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = inner(*args, **kwargs)
            if caught:
                self.add("kernels.quad.warnings", len(caught))
            self.note_max("kernels.quad.max_abserr", float(out[1]))
            return out

        return wrapper

    def _wolff_continuous_wrapper(self, fn):
        sig = inspect.signature(fn)

        def after(args, kwargs, _):
            # m x N doubles: the mu-to-sigma distance matrix wolff_continuous
            # allocates, with m counted by the same tracking rule it applies.
            b = sig.bind(*args, **kwargs)
            b.apply_defaults()
            kernel, sigma, mu, x, R = (b.arguments[k] for k in ("kernel", "sigma", "mu", "x", "R"))
            upper = R if kernel.cutoff is None else min(R, kernel.cutoff)
            track = mu.weights > 0.0
            if math.isfinite(upper) and mu.n_atoms:
                track &= np.linalg.norm(mu.positions - np.asarray(x, float), axis=1) <= upper
            self.note_max(f"{WOLFF_CONTINUOUS}.cross_bytes", int(track.sum()) * sigma.n_atoms * 8)

        return self.span_wrapper(WOLFF_CONTINUOUS, fn, after)

    # -- reduction ----------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds; plus counters."""
        n = len(self.span_name)
        names = np.frombuffer(self.span_name, dtype=np.int32, count=n)
        parents = np.frombuffer(self.span_parent, dtype=np.int32, count=n)
        dur = (np.frombuffer(self.span_end, count=n)
               - np.frombuffer(self.span_start, count=n))
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        selfs = np.bincount(names, weights=self_t, minlength=k)
        spans = {
            name: {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(selfs[i])}
            for i, name in enumerate(self.names)
        }
        # log_primitive calls made anywhere below a wolff_continuous span
        wc, lp = self._ids.get(WOLFF_CONTINUOUS), self._ids.get("kernels.log_primitive")
        under = 0
        if wc is not None and lp is not None and n:
            flag = names == wc
            while True:
                spread = flag | (has_parent & flag[np.where(has_parent, parents, 0)])
                if np.array_equal(spread, flag):
                    break
                flag = spread
            under = int(np.count_nonzero(flag & (names == lp)))
        counts = dict(self.counts)
        counts.update((name, cell[0]) for name, cell in self._cells.items())
        counts[f"{WOLFF_CONTINUOUS}.breakpoints"] = under
        return {"spans": spans, "counts": counts, "maxima": dict(self.maxima)}
