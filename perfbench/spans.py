"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces each listed geored function by a timing wrapper
at every module-level binding it has (``from geored.calc import gradient``
copies included) and each listed method on its class; ``remove`` puts the
originals back.  Spans stay in memory until the caller reduces them.  A
function missing from the program is recorded in ``Tracer.absent`` and
skipped.  Only the standard library is used here.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time
from collections import Counter, namedtuple
from contextlib import contextmanager

# metric prefix -> (module, qualified name)
TARGETS = {
    **{f"calc.{fn}": ("geored.calc", fn) for fn in (
        "gradient", "hessian", "lie_derivative", "jacobian", "vector_jacobian",
    )},
    **{f"dirac.{fn}": ("geored.dirac", fn) for fn in (
        "dirac_bracket", "canonical_pb", "sample_on_shell", "hamiltonian_flow_rhs",
        "constrained_flow", "position_noncommutativity", "wlc_residual",
        "constraint_matrix", "published_constraint_matrix",
    )},
    "flow.integrate": ("geored.flow", "integrate"),
    "flow.rk45_step": ("geored.flow", "Dopri45Stepper.step"),
    "flow.resample": ("geored.flow", "Trajectory.resample"),
    **{f"reduce.{fn}": ("geored.reduce", fn) for fn in (
        "verify_commuting_diagram", "check_invariant_surface", "check_projectable",
    )},
    **{f"qriccati.{fn}": ("geored.qriccati", fn) for fn in (
        "evolve_unitary", "verify_coset_reduction", "polar_project", "extract_Z",
    )},
    **{f"lagsym.{fn}": ("geored.lagsym", fn) for fn in (
        "presymplectic_bracket", "jacobi_residual", "energy", "lagrangian_two_form",
        "kernel_basis",
    )},
    **{f"catalog.{fn}": ("geored.catalog", fn) for fn in (
        "eigen_decompose_tracked", "radial_time_dependent_consistency", "cross_ratio",
    )},
    "frames.frobenius_residual": ("geored.frames", "frobenius_residual"),
    "frames.metric_from_frame_family": ("geored.frames", "metric_from_frame_family"),
    "cli.run": ("geored.cli", "run"),
}
RK45_STEP = "flow.rk45_step"

Span = namedtuple("Span", "id parent request name start end")


class Tracer:
    """Wraps the ``TARGETS`` while installed and records one ``Span`` per
    call.  ``request`` tags the spans of the verification in flight."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self.request = 0
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patches: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(sid, parent, self.request, name, start, end))

        return traced

    def _wrap_step(self, name, fn):
        """Dopri45Stepper.step: one accepted step per return; the stepper's
        public ``steps`` counts every attempt, rejected ones included."""
        inner, counters = self._wrap(name, fn), self.counters

        @functools.wraps(fn)
        def step(stepper, *args, **kwargs):
            before = getattr(stepper, "steps", 0)
            try:
                out = inner(stepper, *args, **kwargs)
            finally:
                counters["flow.rk45.attempts"] += getattr(stepper, "steps", 0) - before
            counters["flow.rk45.accepted"] += 1
            return out

        return step

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        for name, (module_name, qualname) in self.targets.items():
            try:
                module = importlib.import_module(module_name)
                owner, _, attr = qualname.rpartition(".")
                holder = getattr(module, owner) if owner else module
                original = holder.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(name)
                continue
            wrap = self._wrap_step if name == RK45_STEP else self._wrap
            wrapper = wrap(name, original)
            if owner:
                self._patch(holder, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "geored" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self):
        """Hand over the spans and counters recorded so far and start afresh."""
        spans, counters = list(self.spans), Counter(self.counters)
        self.spans.clear()
        self.counters.clear()
        return spans, counters


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by its child spans."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def aggregate(spans) -> dict:
    """Name -> {"calls", "self_s"} summed over ``spans``."""
    own = self_times(spans)
    out: dict = {}
    for s in spans:
        entry = out.setdefault(s.name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own[s.id]
    return out


@contextmanager
def counting_duals(counters: Counter, key: str = "dualnum.ops"):
    """Count constructions of the pure-Python dual scalar while active; each
    arithmetic operation on a dual builds exactly one."""
    from geored import _dual_py

    cls = _dual_py.Dual
    original = cls.__dict__["__init__"]

    def counted(self, *args, **kwargs):
        counters[key] += 1
        original(self, *args, **kwargs)

    cls.__init__ = counted
    try:
        yield
    finally:
        cls.__init__ = original
