"""Step clock and layer spans, recorded from outside the program.

Both work by replacing a module attribute with a wrapper for the length of
a ``with`` block and putting the original back afterwards.  Each wrapper is
installed at the name its caller looks up at call time, so ``src/`` needs
no change:

* ``driver.SlabProblem`` and ``verify.SlabProblem`` are built once per time
  step, before the slab is assembled.  The :class:`StepClock` ticks there;
  step k lasts from tick k to tick k+1, and the last step ends when the
  run returns.  Each tick also times a fixed reference kernel, so that
  every interval can be reported at one host speed.
* :func:`layer_patches` lists the traced layer calls.  A span records its
  name, the step it ran in (-1 before the first tick: set-up), its start
  and end, and the span that called it, so a layer's self time is its
  duration minus that of its traced children.
"""

from __future__ import annotations

import contextlib
import os
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ccmsim import driver, meshgen, motion, stfem, velocity, verify


# Wall time on a shared host drifts with the neighbours' load (a fixed
# kernel's time varied 1.75x within minutes).  A fixed reference kernel of
# the program's own kind of work (a sparse LU and a batched small-matrix
# product, from scipy/numpy only) runs at every step boundary, outside the
# timed intervals; scaling each interval by CAL_REF_S over the kernel's
# time at its two ends reports it at one fixed host speed: the speed at
# which the kernel takes CAL_REF_S (about its time on an idle 2.0 GHz Xeon).
CAL_REF_S = 0.006


class Calibration:
    """The fixed reference kernel."""

    def __init__(self):
        n = 40
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.identity(n)
        self._a = (sp.kron(lap, eye) + sp.kron(eye, lap) + 0.1 * sp.identity(n * n)).tocsc()
        self._b = np.ones(n * n)
        self._x = np.random.default_rng(0).random((3000, 6, 6))
        self._splu = spla.splu     # the original, even while splu is traced

    def run(self) -> float:
        """Seconds the kernel took."""
        t0 = time.perf_counter()
        self._splu(self._a).solve(self._b)
        np.einsum("eij,ejk->eik", self._x, self._x)
        return time.perf_counter() - t0


class StepClock:
    """Step boundaries of the current repetition, each with a calibration.

    ``marks`` holds ``(start, end)`` per boundary: the kernel ran from
    start to end.  :meth:`mark` adds one by hand (start and end of a
    repetition); every slab construction adds one.
    """

    def __init__(self, on_tick):
        self.marks: list[tuple[float, float]] = []
        self._cal = Calibration()
        self._on_tick = on_tick     # called with the index of each new step

    def reset(self) -> None:
        self.marks = []

    def mark(self) -> None:
        start = time.perf_counter()
        self.marks.append((start, start + self._cal.run()))

    def wrap(self, cls):
        def tick(*args, **kwargs):
            self.mark()
            self._on_tick(len(self.marks) - 2)
            return cls(*args, **kwargs)
        return tick

    def patches(self):
        return [(driver, "SlabProblem", self.wrap(driver.SlabProblem)),
                (verify, "SlabProblem", self.wrap(verify.SlabProblem))]

    def intervals(self):
        """Raw seconds of set-up and of each step, and the kernel's times.

        Needs the marks of one whole repetition: one before set-up, one
        per step, one after the run returned.  Set-up runs from the first
        mark to the first step; step k from its mark to the next.
        """
        gaps = [b[0] - a[1] for a, b in zip(self.marks, self.marks[1:])]
        return gaps[0], gaps[1:], [end - start for start, end in self.marks]


def speed_factors(cal_s):
    """Per interval between marks: CAL_REF_S over the kernel's mean time at its ends."""
    return [CAL_REF_S / (0.5 * (a + b)) for a, b in zip(cal_s, cal_s[1:])]


class Tracer:
    """In-memory spans and per-step counts of one traced repetition."""

    def __init__(self):
        self.step = -1
        self.spans: list[dict] = []     # name, step, start, end, parent
        self.counts: list[tuple] = []   # (name, step, value)
        self._open: list[int] = []

    def reset(self) -> None:
        self.__init__()

    def set_step(self, step: int) -> None:
        self.step = step

    def count(self, name: str, value) -> None:
        self.counts.append((name, self.step, value))

    def wrap(self, name, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(result, args, kwargs)``
        runs once the span has closed and may record counts."""
        def traced(*args, **kwargs):
            span = {"name": name, "step": self.step, "start": time.perf_counter(),
                    "end": None,
                    "parent": self._open[-1] if self._open else None}
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if after is not None:
                after(result, args, kwargs)
            return result
        return traced

    def self_times(self) -> list[tuple[str, int, float]]:
        """(name, step, self seconds) per span."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return [(s["name"], s["step"], s["end"] - s["start"] - c)
                for s, c in zip(self.spans, child)]


def layer_patches(tr: Tracer):
    """(module, attribute, traced replacement) for every traced layer."""
    base = stfem.SlabOperator

    class TracedSlabOperator(base):
        __init__ = tr.wrap(
            "stfem.assemble", base.__init__,
            after=lambda _r, args, _k: tr.count("stfem.elements",
                                                 len(args[0].problem.conn)))
        solve = tr.wrap(
            "stfem.solve", base.solve,
            after=lambda sol, _a, _k: tr.count("stfem.residual", sol.residual_norm))

    def after_splu(lu, args, _kwargs):
        a = args[0]
        tr.count("stfem.dofs", a.shape[0])
        tr.count("stfem.nnz", a.nnz)
        tr.count("stfem.lu_nnz", lu.nnz)

    def after_advance(res, _args, _kwargs):
        tr.count("motion.slips", res.slips)
        tr.count("motion.wrapped_nodes", int(res.wrapped_nodes.size))

    def after_closure(result, args, _kwargs):
        # the driver hands the closure max(q_raw, 0): zero flux is a clamp
        tr.count("velocity.clamped", int(args[2] <= 0.0))
        if isinstance(result, tuple):
            tr.count("velocity.stalled", int(result[1]))

    def after_vtk(_r, args, _kwargs):
        tr.count("driver.write_vtk.bytes", os.path.getsize(args[0]))

    flux = tr.wrap("cbf.recover_flux", driver.recover_flux)
    return [
        (driver, "SlabOperator", TracedSlabOperator),
        (stfem, "SlabOperator", TracedSlabOperator),   # verify imports it per call
        (spla, "splu", tr.wrap("stfem.splu", spla.splu, after=after_splu)),
        (driver, "recover_flux", flux),
        (verify, "recover_flux", flux),
        (driver, "sample_sensors", tr.wrap("driver.sample_sensors", driver.sample_sensors)),
        (driver, "write_vtk", tr.wrap("driver.write_vtk", driver.write_vtk, after=after_vtk)),
        (driver, "load_mesh", tr.wrap("mesh.load_mesh", driver.load_mesh)),
        (motion, "init_motion", tr.wrap("motion.init_motion", motion.init_motion)),
        (motion, "advance", tr.wrap("motion.advance", motion.advance, after=after_advance)),
        (motion, "active_elements", tr.wrap("motion.active_elements", motion.active_elements)),
        (velocity, "u_transient_temperature",
         tr.wrap("velocity.closure", velocity.u_transient_temperature, after=after_closure)),
        (velocity, "u_transient_power",
         tr.wrap("velocity.closure", velocity.u_transient_power, after=after_closure)),
        (meshgen, "make_unit_square", tr.wrap("meshgen.make_unit_square", meshgen.make_unit_square)),
    ]


@contextlib.contextmanager
def patched(patches):
    """Install (module, attribute, value) triples; restore them on exit."""
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    try:
        for mod, name, value in patches:
            setattr(mod, name, value)
        yield
    finally:
        for mod, name, value in reversed(saved):
            setattr(mod, name, value)
