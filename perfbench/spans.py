"""Span tracer that wraps the public functions of the cuberadius modules.

The program is not edited.  ``install`` replaces every public function of the
layer modules, in every cuberadius module that binds it (for example
``cuberadius.inequalities.walsh_transform``), with a wrapper that opens a
span; ``uninstall`` puts the originals back, so untraced passes run the
program exactly as shipped.

Spans are aggregated in memory per metric group: calls, self time (span time
minus the time of its child spans) and work counters.  Counters of a group
are taken only at its outermost span, so a group calling itself (``dumps``
inside ``dumps_report``) is not counted twice.  Only the thread that
installed the tracer records spans; calls made from worker threads run
untraced and their time stays in the enclosing span of the installing thread,
which is waiting for them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import threading
import time
from collections import defaultdict

LAYERS = ("cube", "radius", "families", "threshold", "inequalities", "serialize", "cli")

#: Public functions called once per element inside a span of their own layer.
#: A span would cost more than their work; their time stays in that span.
NOT_WRAPPED = {"serialize.fmt17", "threshold.g_function", "threshold.branch_point"}

_CHECKS = (
    "wiener_pair_check",
    "split_pointwise_check",
    "caratheodory_check",
    "degree_l2_check",
    "norm_comparison_check",
    "hypercontractivity_check",
    "level_m_bound_check",
    "biased_radius_lower_check",
    "bh_ratio",
    "wiener_degree_ratio",
)

#: layer.function -> metric group; unlisted public functions go to <layer>.other
GROUPS = {
    "cube.walsh_transform": "cube.walsh",
    "cube.inverse_walsh": "cube.walsh",
    "radius.level_profile": "radius.level_profile",
    "radius.boolean_radius": "radius.solve",
    "radius.boolean_radius_symmetric": "radius.solve",
    "radius.brute_force_bn_radius": "radius.brute",
    "threshold.threshold_spectrum_exact": "threshold.spectrum",
    "threshold.i_integral": "threshold.quad",
    "threshold.mckay_residual": "threshold.mckay",
    "threshold.gamma_constant": "threshold.gamma",
    "inequalities.random_bounded_function": "inequalities.draw",
    "inequalities.run_suite": "inequalities.driver",
    "inequalities.family_functions": "inequalities.families",
    **{f"inequalities.{name}": "inequalities.check" for name in _CHECKS},
}


INEQUALITY_GROUPS = sorted({g for g in GROUPS.values() if g.startswith("inequalities.")} | {"inequalities.other"})


def group_of(layer: str, name: str) -> str:
    if layer == "cli":
        return "cli"
    if layer == "families":
        return "families.build"
    if layer == "serialize":
        return "serialize.read" if name.startswith("loads") else "serialize.write"
    return GROUPS.get(f"{layer}.{name}", f"{layer}.other")


# -- counters, taken at the outermost span of a group -------------------------


def _walsh(args, kwargs, result):
    n = result.n
    return {"butterfly_ops": n * 2 ** (n - 1), "bytes_computed": 16 * n * 2**n}


def _solve(args, kwargs, result):
    if args[0].__class__.__name__ == "LevelProfile":
        sup = args[0].sup_norm
    else:
        sup = args[1] if len(args) > 1 else kwargs["sup"]
    return {"iterations": result.iterations, "residual_max": result.residual / max(1.0, sup)}


def _spectrum(args, kwargs, result):
    bits = max(max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in result.level_coeffs)
    return {"max_bigint_bits": bits}


def _draw(args, kwargs, result):
    seed = args[1] if len(args) > 1 else kwargs["seed"]
    mode = args[2] if len(args) > 2 else kwargs["mode"]
    return {"substream": (args[0], repr(seed), mode)}


def _families(args, kwargs, result):
    return {"functions": len(result)}


def _nbytes(args, kwargs, result):
    return {"bytes": len(result) if isinstance(result, str) else 0}


def _nbytes_in(args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    return {"bytes": len(text)}


HOOKS = {
    "cube.walsh": _walsh,
    "radius.solve": _solve,
    "threshold.spectrum": _spectrum,
    "inequalities.draw": _draw,
    "inequalities.families": _families,
    "serialize.read": _nbytes_in,
    "serialize.write": _nbytes,
}

#: Counters combined by maximum instead of sum.
MAX_COUNTERS = {"residual_max", "max_bigint_bits"}


class Group:
    __slots__ = ("calls", "self_s", "counters", "substreams")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counters = defaultdict(int)
        self.substreams = set()


class _Frame:
    __slots__ = ("group", "child_s")

    def __init__(self, group):
        self.group = group
        self.child_s = 0.0


class Tracer:
    """Aggregating span recorder.  ``reset`` starts a new pass."""

    def __init__(self):
        self._owner = None
        self._stack = []
        self._depth = defaultdict(int)
        self._saved = []
        self.groups = defaultdict(Group)
        self.spans = 0
        self.walsh_in_inequalities = 0

    def reset(self):
        self.groups = defaultdict(Group)
        self.spans = 0
        self.walsh_in_inequalities = 0

    # -- span bookkeeping ----------------------------------------------------

    def _enter(self, group):
        frame = _Frame(group)
        self._stack.append(frame)
        self._depth[group] += 1
        return frame, time.perf_counter()

    def _exit(self, frame, start, group_obj, hook, args, kwargs, result):
        dur = time.perf_counter() - start
        self._stack.pop()
        self.spans += 1
        group_obj.self_s += dur - frame.child_s
        if self._stack:
            self._stack[-1].child_s += dur
        depth = self._depth
        depth[frame.group] -= 1
        if depth[frame.group]:
            return
        group_obj.calls += 1
        if frame.group == "cube.walsh" and any(depth[g] for g in INEQUALITY_GROUPS):
            self.walsh_in_inequalities += 1
        if hook is not None:
            for key, value in hook(args, kwargs, result).items():
                if key == "substream":
                    group_obj.substreams.add(value)
                elif key in MAX_COUNTERS:
                    group_obj.counters[key] = max(group_obj.counters[key], value)
                else:
                    group_obj.counters[key] += value

    def root(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Root(self, name)

    def _wrap(self, fn, group):
        hook = HOOKS.get(group)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._owner:
                return fn(*args, **kwargs)
            group_obj = tracer.groups[group]
            frame, start = tracer._enter(group)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(frame, start, group_obj, None, args, kwargs, None)
                raise
            tracer._exit(frame, start, group_obj, hook, args, kwargs, result)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = {layer: importlib.import_module(f"cuberadius.{layer}") for layer in LAYERS}
        consumers = list(mods.values()) + [importlib.import_module("cuberadius")]
        for layer, mod in mods.items():
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or f"{layer}.{name}" in NOT_WRAPPED:
                    continue
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(fn, group_of(layer, name))
                for consumer in consumers:
                    if vars(consumer).get(name) is fn:
                        self._saved.append((consumer, name, fn))
                        setattr(consumer, name, wrapped)
        self._owner = threading.get_ident()

    def uninstall(self):
        for consumer, name, fn in reversed(self._saved):
            setattr(consumer, name, fn)
        self._saved = []
        self._owner = None

    # -- results -------------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        return sum(g.self_s for name, g in self.groups.items() if name.split(".")[0] == layer)


class _Root:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name
        self.self_s = math.nan
        self.duration = math.nan

    def __enter__(self):
        self.frame, self.start = self.tracer._enter(f"bench.{self.name}")
        return self

    def __exit__(self, *exc):
        self.duration = time.perf_counter() - self.start
        self.tracer._stack.pop()
        self.tracer._depth[self.frame.group] -= 1
        self.self_s = self.duration - self.frame.child_s
        return False
