"""Spans around calls into pfkit's modules, recorded from outside `src/`.

`instrument` replaces public functions and methods with wrappers at run
time, wherever a pfkit module holds a reference to them, and `restore`
puts the originals back.  Spans are aggregated per (name, parent name)
into a count, a total duration and the time covered by child spans; raw
spans are not kept, since the audits open hundreds of thousands of them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager

# (module, qualified attribute, span name).  A dotted attribute is a method.
TRACED = (
    ("pfkit.operators", "MarkovMatrix.apply", "operators.apply"),
    ("pfkit.operators", "MarkovMatrix.adjoint", "operators.adjoint"),
    ("pfkit.operators", "MarkovMatrix.is_bimarkov", "operators.is_bimarkov"),
    ("pfkit.operators", "transfer_operator", "operators.transfer_operator"),
    ("pfkit.operators", "koopman_operator", "operators.koopman_operator"),
    ("pfkit.operators", "power_sequence", "operators.power_sequence"),
    ("pfkit.operators", "density_power_sequence", "operators.density_power_sequence"),
    ("pfkit.operators", "conditional_expectation", "operators.conditional_expectation"),
    ("pfkit.operators", "fixed_space_dimension", "operators.fixed_space_dimension"),
    ("pfkit.operators", "apply_power", "operators.apply_power"),
    ("pfkit.space", "Density.__add__", "space.density"),
    ("pfkit.space", "Density.__sub__", "space.density"),
    ("pfkit.space", "Density.scale", "space.density"),
    ("pfkit.space", "Density.integral", "space.density"),
    ("pfkit.space", "Density.integral_over", "space.density"),
    ("pfkit.space", "Density.positive_part", "space.density"),
    ("pfkit.space", "Density.negative_part", "space.density"),
    ("pfkit.space", "Density.support_bits", "space.density"),
    ("pfkit.space", "Density.min_positive", "space.density"),
    ("pfkit.space", "indicator", "space.density"),
    ("pfkit.space", "constant_density", "space.density"),
    ("pfkit.mixing", "is_ergodic", "mixing.is_ergodic"),
    ("pfkit.mixing", "is_mixing", "mixing.is_mixing"),
    ("pfkit.mixing", "is_exact", "mixing.is_exact"),
    ("pfkit.mixing", "uniform_mixing_defect", "mixing.uniform_mixing_defect"),
    ("pfkit.mixing", "trace_mixing_defect", "mixing.trace_mixing_defect"),
    ("pfkit.mixing", "image_mixing_defect", "mixing.image_mixing_defect"),
    ("pfkit.mixing", "lower_bound_defect", "mixing.lower_bound_defect"),
    ("pfkit.mixing", "lower_bound_witness", "mixing.lower_bound_witness"),
    ("pfkit.mixing", "classify", "mixing.classify"),
    ("pfkit.dynamics", "set_orbit", "dynamics.set_orbit"),
    ("pfkit.dynamics", "minimal_invariant_superset", "dynamics.minimal_invariant_superset"),
    ("pfkit.dynamics", "invariant_algebra", "dynamics.invariant_algebra"),
    ("pfkit.dynamics", "tail_algebra", "dynamics.tail_algebra"),
    ("pfkit.dynamics", "MeasurePreservingMap.__post_init__", "dynamics.map_init"),
    ("pfkit.audit", "SystemGenerator.system", "audit.generate"),
    ("pfkit.systemio", "load_system", "systemio.load_system"),
    ("pfkit.systemio", "input_digest", "systemio.input_digest"),
    ("pfkit.dyadic", "DyadicSet.from_pairs", "dyadic.from_pairs"),
    ("pfkit.dyadic", "DyadicSet.image", "dyadic.image"),
    ("pfkit.dyadic", "DyadicStepFunction.transfer", "dyadic.transfer"),
    ("pfkit.dyadic", "exactness_profile", "dyadic.exactness_profile"),
    ("pfkit.dyadic", "image_defect", "dyadic.image_defect"),
    ("pfkit.dyadic", "transition_matrix", "dyadic.transition_matrix"),
    ("pfkit.ulam", "ulam_assemble", "ulam.assemble"),
    ("pfkit.ulam", "mixing_profile", "ulam.mixing_profile"),
)


class Tracer:
    """Single-threaded span stack with per-(name, parent) aggregates."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # [name, start, child seconds]
        self._depth: dict[str, int] = {}
        self.edges: dict[tuple[str, str | None], list] = {}  # [count, total, child]
        self.inclusive: dict[str, float] = {}  # outermost spans only
        self.calls: dict[str, int] = {}
        self.counters: dict[str, float] = {}

    def enter(self, name: str) -> None:
        self._depth[name] = self._depth.get(name, 0) + 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1][0] if self._stack else None
        edge = self.edges.get((name, parent))
        if edge is None:
            edge = self.edges[(name, parent)] = [0, 0.0, 0.0]
        edge[0] += 1
        edge[1] += duration
        edge[2] += child
        if self._stack:
            self._stack[-1][2] += duration
        self._depth[name] -= 1
        if not self._depth[name]:
            self.inclusive[name] = self.inclusive.get(name, 0.0) + duration
        self.calls[name] = self.calls.get(name, 0) + 1

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def self_seconds(self, name: str) -> float:
        """Duration of the named spans minus the time their children cover."""
        return sum(total - child for (n, _), (_, total, child) in self.edges.items() if n == name)

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def edge_table(self) -> list[dict]:
        return [
            {"name": n, "parent": p, "count": c, "total_s": t, "self_s": t - ch}
            for (n, p), (c, t, ch) in sorted(self.edges.items(), key=lambda kv: -kv[1][1])
        ]


def _wrap(fn, name: str, tracer: Tracer, on_return=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if on_return is not None:
            on_return(tracer, result, args, kwargs)
        return result

    return traced


def _ulam_assembled(tracer: Tracer, model, args, kwargs) -> None:
    tracer.count("ulam.matrix_bytes_computed", model.matrix.nbytes)


def _ulam_profiled(tracer: Tracer, result, args, kwargs) -> None:
    from pfkit.ulam import mixing_profile

    bound = inspect.signature(mixing_profile).bind(*args, **kwargs)
    bound.apply_defaults()
    bins = bound.arguments["model"].bins
    # one dense vector-matrix product (a multiply and an add per entry) per step
    tracer.count("ulam.profile_flops_computed", 2 * bins * bins * (bound.arguments["n_max"] + 1))


HOOKS = {"ulam.assemble": _ulam_assembled, "ulam.mixing_profile": _ulam_profiled}


def instrument(tracer: Tracer) -> list[tuple]:
    """Install wrappers; returns what `restore` needs to undo them."""
    undo: list[tuple] = []
    modules = [m for n, m in list(sys.modules.items()) if n == "pfkit" or n.startswith("pfkit.")]
    for module_name, attr, span_name in TRACED:
        module = sys.modules[module_name]
        hook = HOOKS.get(span_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                new = classmethod(_wrap(raw.__func__, span_name, tracer, hook))
            else:
                new = _wrap(raw, span_name, tracer, hook)
            undo.append((cls, meth, raw))
            setattr(cls, meth, new)
            continue
        original = getattr(module, attr)
        wrapped = _wrap(original, span_name, tracer, hook)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, wrapped)
    return undo


def restore(undo: list[tuple]) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)
