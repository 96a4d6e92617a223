"""Per-layer timing of hfq from outside the package.

``Tracer.install()`` wraps every public function and method of the hfq
modules and rebinds each wrapper wherever the original was bound: in its own
module and in every hfq module that imported it by name (``profile`` is bound
in hankel, charsum, checks, variance and cli).  fastpath is patched on the
module, because charsum imports it lazily and reads its attributes at call
time; ``FieldCtx``, ``Poly`` and the other classes are patched on the class.

Each call is aggregated at its boundary into counters: calls, self time,
inclusive time and, for a few functions, work done.  No per-call record is
kept, since leaf calls such as ``FieldCtx.mul`` and ``Poly.__init__`` run in
the millions.  Self time is inclusive time minus the inclusive time of the
traced calls made inside it, so a private helper or a generator body counts
toward the public function that ran it, and properties count toward their
caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("field", "polyring", "hankel", "fastpath", "charsum",
           "variance", "analytic", "checks", "cli")

# Methods that call no other traced function: they charge their time to the
# caller without opening a frame, which keeps the cost of the hottest
# wrappers down.
LEAVES = {"field.FieldCtx.mul", "field.FieldCtx.add", "field.FieldCtx.sub",
          "field.FieldCtx.neg", "polyring.Poly.__init__"}

# Operators and constructors are traced along with the public names.
DUNDERS = {"__init__", "__add__", "__sub__", "__neg__", "__mul__",
           "__divmod__", "__floordiv__", "__mod__", "__pow__"}


def _work(fn, extract):
    sig = inspect.signature(fn)
    return lambda args, kwargs: extract(sig.bind(*args, **kwargs).arguments)


# Work counted per call, for the throughput metrics (matrices, seq_per_s).
WORK = {
    "fastpath.batched_rank": lambda a: a["mats"].shape[0],
    "fastpath.variance_exponent_counts": lambda a: a["p"] ** (a["n"] + 1 - a["h"]),
    "hankel.census_enumerate": lambda a: a["ctx"].q ** (a["n"] + 1 - a["h"]),
}


class Tracer:
    def __init__(self):
        # name -> [calls, self_s, total_s, work]
        self.stats: dict = {}
        # child-time accumulators of the open calls; the root never closes
        self._stack = [[0.0]]

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter
        if name in LEAVES:
            def leaf(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack[-1][0] += dur
                    stats[0] += 1
                    stats[1] += dur
                    stats[2] += dur
            return functools.wraps(fn)(leaf)
        work = _work(fn, WORK[name]) if name in WORK else None

        def span(*args, **kwargs):
            if work is not None:
                stats[3] += work(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stack[-1][0] += dur
                stats[0] += 1
                stats[1] += dur - frame[0]
                stats[2] += dur
        return functools.wraps(fn)(span)

    def install(self) -> None:
        mods = {short: importlib.import_module(f"hfq.{short}") for short in MODULES}
        wrapped = {}  # id(original function) -> wrapper
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._patch_class(short, obj, mod.__file__)
                elif inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for mod in [importlib.import_module("hfq"), *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])

    def _patch_class(self, short: str, cls, path: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            fn = raw.__func__ if kind else raw
            # skip properties, data and code generated by dataclass
            if not inspect.isfunction(fn) or fn.__code__.co_filename != path:
                continue
            if inspect.isgeneratorfunction(fn):
                continue
            wrapper = self._wrap(f"{short}.{cls.__name__}.{attr}", fn)
            setattr(cls, attr, kind(wrapper) if kind else wrapper)
