"""Out-of-program tracing of etlax layers for the traced benchmark run.

The tracer wraps named etlax functions from outside the library: it rebinds
every module-global alias of each function (the modules import names
directly, so ``etlax.transfer.intertwiners`` and
``etlax.belavin.intertwiners`` are separate bindings of one object) and the
class attribute of each traced method.  ``uninstall`` puts every original
back.

Two kinds of wrapper:

* span  -- keeps (name, start, end, parent) in memory; a span's self time is
  its duration minus the time of its traced children.
* count -- bumps a counter only.  Used for functions called more than 1e5
  times per pass, where a span would cost more than the work it measures.

``ModularContext.cached`` gets its own counting wrapper that also records
cache hits and the contexts it saw, so the stored keys can be inspected when
the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

SPAN, COUNT, CACHE = "span", "count", "cache"

# (metric prefix, module, attribute -- "Class.method" for methods, kind)
TARGETS = (
    ("suites.run_suite", "etlax.suites", "run_suite", SPAN),
    ("transfer.verify_fused_rll", "etlax.transfer", "verify_fused_rll", SPAN),
    ("transfer.verify_genfunc", "etlax.transfer", "verify_genfunc", SPAN),
    ("transfer.verify_trace_closed", "etlax.transfer", "verify_trace_closed",
     SPAN),
    ("transfer.l_coeff_tensor", "etlax.transfer", "l_coeff_tensor", COUNT),
    ("opalg.apply_op", "etlax.opalg", "apply_op", SPAN),
    ("opalg.operator_residual", "etlax.opalg", "operator_residual", SPAN),
    ("opalg.pdo_commutator_residual", "etlax.opalg", "pdo_commutator_residual",
     SPAN),
    ("opalg.compose", "etlax.opalg", "compose", COUNT),
    ("opalg.normal_det", "etlax.opalg", "normal_det", COUNT),
    ("opalg.pdo_compose", "etlax.opalg", "pdo_compose", COUNT),
    ("opalg.DifferenceOperator.coeff", "etlax.opalg",
     "DifferenceOperator.coeff", COUNT),
    ("thetaspace.chi", "etlax.thetaspace", "chi", SPAN),
    ("theta.theta_ml", "etlax.theta", "theta_ml", SPAN),
    ("belavin.intertwiners", "etlax.belavin", "intertwiners", SPAN),
    ("belavin.build_r", "etlax.belavin", "build_r", SPAN),
    ("weights.sample_generic", "etlax.weights", "sample_generic", SPAN),
    ("weights.WeightPoint.make", "etlax.weights", "WeightPoint.make", COUNT),
    ("context.cached", "etlax.context", "ModularContext.cached", CACHE),
)

_MARK = "_etlax_bench_wrapper"


def _etlax_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "etlax" or name.startswith("etlax."))]


def _round_key(key):
    """A cache key with every float rounded to 1e-11."""
    if isinstance(key, complex):
        return (round(key.real, 11), round(key.imag, 11))
    if isinstance(key, float):
        return round(key, 11)
    if isinstance(key, tuple):
        return tuple(_round_key(k) for k in key)
    return key


def _suite_span_name(args):
    return f"suites.{args[0]}.n{args[1].n}"


class Tracer:
    """Installs the wrappers and keeps what they record for one pass."""

    def __init__(self):
        self.spans = []           # (name, start, end, parent index or -1)
        self.counts = Counter()
        self.cache_hits = 0
        self.contexts = {}        # id -> every ModularContext seen by cached()
        self._stack = []
        self._patches = []        # (owner, attribute, original binding)

    # ------------------------------------------------------------ install

    def install(self):
        if self._patches or installed():
            raise RuntimeError("tracing wrappers are already installed")
        try:
            for prefix, modname, attr, kind in TARGETS:
                self._patch(prefix, importlib.import_module(modname), attr,
                            kind)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, prefix, module, attr, kind):
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(module, cls_name)
            raw = owner.__dict__[meth]
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            wrapper = self._wrap(prefix, fn, kind)
            self._patches.append((owner, meth, raw))
            setattr(owner, meth, staticmethod(wrapper) if static else wrapper)
            return
        fn = getattr(module, attr)
        wrapper = self._wrap(prefix, fn, kind)
        for mod in _etlax_modules():
            for name, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, name, fn))
                    setattr(mod, name, wrapper)

    def _wrap(self, prefix, fn, kind):
        if kind == SPAN:
            name_of = _suite_span_name if prefix == "suites.run_suite" else None
            wrapper = self._span_wrapper(fn, prefix, name_of)
        elif kind == COUNT:
            wrapper = self._count_wrapper(fn, prefix)
        else:
            wrapper = self._cache_wrapper(fn, prefix)
        setattr(wrapper, _MARK, True)
        return wrapper

    def _span_wrapper(self, fn, name, name_of):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                label = name_of(args) if name_of else name
                spans[index] = (label, start, end, parent)
        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _cache_wrapper(self, fn, name):
        counts, contexts = self.counts, self.contexts

        @functools.wraps(fn)
        def wrapper(ctx, key, builder):
            counts[name] += 1
            if key in ctx._cache:
                self.cache_hits += 1
            contexts[id(ctx)] = ctx
            return fn(ctx, key, builder)
        return wrapper

    # ------------------------------------------------------------ results

    def summary(self) -> dict:
        """calls / self_s / total_s per span name, counts, cache figures."""
        calls, self_s, total_s = Counter(), Counter(), Counter()
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for index, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            total_s[name] += end - start
            self_s[name] += end - start - child_s[index]
        keys = distinct = 0
        for ctx in self.contexts.values():
            keys += len(ctx._cache)
            distinct += len({_round_key(k) for k in ctx._cache})
        lookups = self.counts["context.cached"]
        return {
            "calls": calls + self.counts,
            "self_s": self_s,
            "total_s": total_s,
            "cache_keys": keys,
            "cache_hit_ratio": self.cache_hits / lookups if lookups else 0.0,
            "cache_dup_ratio": 1.0 - distinct / keys if keys else 0.0,
        }


def installed() -> bool:
    """True if any tracing wrapper is bound anywhere the tracer patches."""
    for mod in _etlax_modules():
        for value in list(vars(mod).values()):
            if getattr(value, _MARK, False):
                return True
    for _, modname, attr, _ in TARGETS:
        if "." in attr and modname in sys.modules:
            cls_name, meth = attr.split(".")
            raw = getattr(sys.modules[modname], cls_name).__dict__[meth]
            if getattr(getattr(raw, "__func__", raw), _MARK, False):
                return True
    return False
