"""Per-layer tracing for the engellab benchmark, installed from outside the
package: nothing under ``src/`` knows it exists.

:class:`Tracer` wraps the public functions of each engellab module (the
layers) and aggregates their spans by name into call count, inclusive time
and self time, using a span stack.  A function is wrapped everywhere it is
bound: the defining module attribute, every ``from .x import y`` re-binding
in another module, and every class attribute that holds it, which covers
aliases made when a class is created such as ``Jet.__radd__ = __add__``.
Missing one binding would make a count under-read without any error, so
:meth:`Tracer.install` scans every engellab module and class for the
originals and then checks that each target resolves to its wrapper.

Individual spans are too many to keep (``Jet.__mul__`` runs more than 7e5
times in one ``realize``); only the aggregates are kept here.  Suite- and
sweep-level spans with parent ids are kept by the workload runner.

The wrappers pass arguments and results through unchanged, so a traced run
produces the same verdicts and defects as an untraced one; the benchmark
checks this on every traced run.
"""

from __future__ import annotations

import functools
import math
import sys
import time

# (module, attribute path, span name).  Several targets may share a span name.
TARGETS = (
    ("jets", "Jet.__mul__", "jets.mul"),
    ("jets", "Jet.__rmul__", "jets.mul"),
    ("jets", "Jet.__add__", "jets.add"),
    ("jets", "Jet.__radd__", "jets.add"),
    ("jets", "Jet.sin", "jets.analytic"),
    ("jets", "Jet.cos", "jets.analytic"),
    ("jets", "Jet.exp", "jets.analytic"),
    ("jets", "Jet.log", "jets.analytic"),
    ("jets", "Jet.sqrt", "jets.analytic"),
    ("jets", "Jet.reciprocal", "jets.analytic"),
    ("jets", "Jet.__pow__", "jets.analytic"),
    ("jets", "Jet.__truediv__", "jets.analytic"),
    ("jets", "Jet.__rtruediv__", "jets.analytic"),
    ("jets", "jet_compose", "jets.compose"),
    ("jets", "jet_invert", "jets.invert"),
    ("calculus", "_FieldBase.taylor", "calculus.taylor"),
    ("calculus", "_FieldBase.__call__", "calculus.field_call"),
    ("distributions", "flag_ranks", "distributions.flag_ranks"),
    ("distributions", "characteristic_line", "distributions.characteristic_line"),
    ("prolongation", "contactify", "prolongation.contactify"),
    ("prolongation", "slice_transport", "prolongation.slice_transport"),
    ("prolongation", "development", "prolongation.development"),
    ("flow", "integrate", "flow.integrate"),
    ("flow", "flow_to_section", "flow.flow_to_section"),
    ("normal_form", "normalize_pair", "normal_form.normalize_pair"),
    ("normal_form", "NormalFormResult.verify", "normal_form.verify"),
    ("normal_form", "LegendrianPairJet.__post_init__", "normal_form.pair_check"),
    ("deformation", "realize_isotopy", "deformation.realize_isotopy"),
    ("deformation", "bottom_to_top", "deformation.bottom_to_top"),
    ("deformation", "gray_solve", "deformation.gray_solve"),
    ("deformation", "GraySolution.transport", "deformation.transport"),
    ("zoll", "first_return", "zoll.first_return"),
    ("zoll", "closedness_report", "zoll.closedness_report"),
    ("zoll", "central_projection_check", "zoll.central_projection_check"),
    ("expressions", "Expression.__call__", "expressions.eval"),
)

# Suites and sweeps get one span each per round, recorded by the runner.
SUITE_SPANS = ("verify-engel", "prolong", "so3", "contactify", "normal-form",
               "realize", "gray", "zoll-closedness", "central-projection")
SWEEP_SPANS = ("trajectory-library",)

# (name, unit, better).  Counts are exact and must repeat between traced
# rounds; times are medians over the traced rounds.
LAYER_METRICS = (
    ("jets.mul.calls", "count", "lower"),
    ("jets.mul.s", "s", "lower"),
    ("jets.mul.dense_products", "count", "lower"),
    ("jets.add.calls", "count", "lower"),
    ("jets.add.s", "s", "lower"),
    ("jets.analytic.calls", "count", "lower"),
    ("jets.analytic.s", "s", "lower"),
    ("jets.compose.calls", "count", "lower"),
    ("jets.compose.s", "s", "lower"),
    ("jets.invert.calls", "count", "lower"),
    ("jets.invert.s", "s", "lower"),
    ("jets.self_s", "s", "lower"),
    ("calculus.taylor.calls", "count", "lower"),
    ("calculus.taylor.o0.calls", "count", "lower"),
    ("calculus.taylor.o1.calls", "count", "lower"),
    ("calculus.taylor.o2.calls", "count", "lower"),
    ("calculus.taylor.o3plus.calls", "count", "lower"),
    ("calculus.taylor.self_s", "s", "lower"),
    ("calculus.field_call.calls", "count", "lower"),
    ("calculus.field_call.s", "s", "lower"),
    ("calculus.taylor_per_flag_point", "ratio", "lower"),
    ("distributions.flag_ranks.calls", "count", "lower"),
    ("distributions.flag_ranks.s", "s", "lower"),
    ("distributions.flag_ranks.self_s", "s", "lower"),
    ("distributions.characteristic_line.calls", "count", "lower"),
    ("distributions.characteristic_line.s", "s", "lower"),
    ("prolongation.contactify.calls", "count", "lower"),
    ("prolongation.contactify.s", "s", "lower"),
    ("prolongation.slice_transport.calls", "count", "lower"),
    ("prolongation.slice_transport.s", "s", "lower"),
    ("prolongation.development.calls", "count", "lower"),
    ("prolongation.development.s", "s", "lower"),
    ("flow.integrate.calls", "count", "lower"),
    ("flow.integrate.s", "s", "lower"),
    ("flow.integrate.self_s", "s", "lower"),
    ("flow.rhs_evals", "count", "lower"),
    ("flow.steps", "count", "lower"),
    ("flow.rhs_evals_per_step", "ratio", "lower"),
    ("flow.flow_to_section.calls", "count", "lower"),
    ("flow.flow_to_section.s", "s", "lower"),
    ("flow.errors", "count", "lower"),
    ("normal_form.normalize_pair.calls", "count", "lower"),
    ("normal_form.normalize_pair.s", "s", "lower"),
    ("normal_form.normalize_pair.self_s", "s", "lower"),
    ("normal_form.verify.calls", "count", "lower"),
    ("normal_form.verify.s", "s", "lower"),
    ("normal_form.pair_attempts", "count", "lower"),
    ("normal_form.pair_rejections", "ratio", "lower"),
    ("deformation.realize_isotopy.calls", "count", "lower"),
    ("deformation.realize_isotopy.s", "s", "lower"),
    ("deformation.bottom_to_top.calls", "count", "lower"),
    ("deformation.bottom_to_top.s", "s", "lower"),
    ("deformation.gray_solve.calls", "count", "lower"),
    ("deformation.gray_solve.s", "s", "lower"),
    ("deformation.transport.calls", "count", "lower"),
    ("deformation.transport.s", "s", "lower"),
    ("zoll.first_return.calls", "count", "lower"),
    ("zoll.first_return.s", "s", "lower"),
    ("zoll.return_ratio", "ratio", "higher"),
    ("zoll.central_projection_check.calls", "count", "lower"),
    ("zoll.central_projection_check.s", "s", "lower"),
    ("expressions.eval.calls", "count", "lower"),
    ("expressions.eval.s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
) + tuple((f"cli.{name}.s", "s", "lower") for name in SUITE_SPANS) \
  + tuple((f"sweep.{name}.s", "s", "lower") for name in SWEEP_SPANS)

COUNT_METRICS = tuple(name for name, unit, _ in LAYER_METRICS if unit == "count")


class _Stat:
    __slots__ = ("calls", "incl", "self_t", "depth")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_t = 0.0
        self.depth = 0


def _resolve(module, path):
    obj = module
    for part in path.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


def _namespaces():
    """Every engellab module and every class defined in engellab, once."""
    seen = set()
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "engellab" or name.startswith("engellab.")):
            continue
        for ns in [mod] + [v for v in vars(mod).values()
                           if isinstance(v, type) and v.__module__.startswith("engellab")]:
            if id(ns) not in seen:
                seen.add(id(ns))
                yield ns


@functools.cache
def _dense_products(n, k):
    """Coefficient pairs a dense order-k product in n variables visits:
    monomials of degree <= k in 2n variables, C(2n + k, k)."""
    return math.comb(2 * n + k, k)


class Tracer:
    """Aggregating tracer over the engellab layers; see the module docstring.

    Use :meth:`install` / :meth:`uninstall` around the traced work and
    :meth:`reset` between rounds; :meth:`layer_metrics` reads one round.
    """

    def __init__(self):
        self.stats = {span: _Stat() for _, _, span in TARGETS}
        self._stack = []
        self._patches = []
        self._counted_errors = []
        self.taylor_by_order = [0, 0, 0, 0]
        self.reset()

    def reset(self):
        for st in self.stats.values():
            st.calls, st.incl, st.self_t, st.depth = 0, 0.0, 0.0, 0
        self._stack.clear()
        self._counted_errors.clear()
        self.dense_products = 0
        self.taylor_by_order[:] = (0, 0, 0, 0)
        self.taylor_in_flag = 0
        self.rhs_evals = 0
        self.steps = 0
        self.flow_errors = 0
        self.pair_rejections = 0
        self.zoll_sampled = 0
        self.zoll_returned = 0

    # -- wrappers ------------------------------------------------------------

    def _span(self, stat, orig, pre=None, post=None, on_error=None):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args, kwargs)
            stat.calls += 1
            stat.depth += 1
            stack.append(0.0)
            t0 = clock()
            try:
                out = orig(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                dt = clock() - t0
                stat.self_t += dt - stack.pop()
                stat.depth -= 1
                if stat.depth == 0:
                    stat.incl += dt
                if stack:
                    stack[-1] += dt
            if post is not None:
                post(out)
            return out

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", "wrapped")
        wrapper.__doc__ = getattr(orig, "__doc__", None)
        return wrapper

    def _hooks(self, span):
        """Counter hooks of the spans that count more than calls."""
        from engellab.errors import IntegrationError
        from engellab.jets import Jet

        def mul_pre(args, kwargs):
            a, b = args[0], args[1]
            if isinstance(b, Jet):
                self.dense_products += _dense_products(a.n, min(a.order, b.order))

        flag_stat = self.stats["distributions.flag_ranks"]
        by_order = self.taylor_by_order

        def taylor_pre(args, kwargs):
            order = args[2] if len(args) > 2 else kwargs["order"]
            by_order[min(int(order), 3)] += 1
            if flag_stat.depth:
                self.taylor_in_flag += 1

        def flow_error(exc):
            # an error from integrate passes through flow_to_section too
            if isinstance(exc, IntegrationError) and \
                    not any(e is exc for e in self._counted_errors):
                self._counted_errors.append(exc)
                self.flow_errors += 1

        def steps_post(out):
            self.steps += int(out[2])

        def pair_error(exc):
            self.pair_rejections += 1

        def zoll_post(rep):
            self.zoll_sampled += rep.n_samples
            self.zoll_returned += rep.n_returned

        if span == "jets.mul":
            return dict(pre=mul_pre)
        if span == "calculus.taylor":
            return dict(pre=taylor_pre)
        if span == "flow.integrate":
            return dict(post=steps_post, on_error=flow_error)
        if span == "flow.flow_to_section":
            return dict(on_error=flow_error)
        if span == "normal_form.pair_check":
            return dict(on_error=pair_error)
        if span == "zoll.closedness_report":
            return dict(post=zoll_post)
        return {}

    def _make(self, span, orig):
        inner = orig
        if span == "flow.integrate":
            # hand the integrator a counting copy of its right-hand side
            def inner(f, *args, **kwargs):
                def counted(t, y):
                    self.rhs_evals += 1
                    return f(t, y)

                return orig(counted, *args, **kwargs)

        return self._span(self.stats[span], inner, **self._hooks(span))

    # -- install / uninstall ---------------------------------------------------

    def install(self):
        """Wrap every target everywhere engellab binds it."""
        import importlib

        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for modname, path, span in TARGETS:
            orig = _resolve(importlib.import_module(f"engellab.{modname}"), path)
            if id(orig) not in wrappers:
                wrappers[id(orig)] = (orig, self._make(span, orig))
        for ns in _namespaces():
            for key, val in list(vars(ns).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((ns, key, val))
                    setattr(ns, key, hit[1])
        # every target must now resolve to a wrapper; a miss under-reads silently
        for modname, path, span in TARGETS:
            bound = _resolve(importlib.import_module(f"engellab.{modname}"), path)
            if getattr(bound, "__wrapped__", None) is None:
                raise RuntimeError(f"tracer failed to wrap engellab.{modname}.{path}")

    def uninstall(self):
        for ns, key, val in reversed(self._patches):
            setattr(ns, key, val)
        self._patches.clear()

    # -- readout ------------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer values of the current round (the ``cli.*`` and
        ``sweep.*`` spans are filled in by the runner)."""
        s = self.stats
        out = {}
        # <span>.calls, <span>.s (inclusive) and <span>.self_s read off the spans
        fields = {"calls": "calls", "s": "incl", "self_s": "self_t"}
        for name, _, _ in LAYER_METRICS:
            span, _, field = name.rpartition(".")
            if span in s and field in fields:
                out[name] = getattr(s[span], fields[field])
        out["jets.mul.dense_products"] = self.dense_products
        out["jets.self_s"] = sum(st.self_t for span, st in s.items() if span.startswith("jets."))
        for i, label in enumerate(("o0", "o1", "o2", "o3plus")):
            out[f"calculus.taylor.{label}.calls"] = self.taylor_by_order[i]
        flags = s["distributions.flag_ranks"].calls
        out["calculus.taylor_per_flag_point"] = self.taylor_in_flag / flags if flags else 0.0
        out["flow.rhs_evals"] = self.rhs_evals
        out["flow.steps"] = self.steps
        out["flow.rhs_evals_per_step"] = self.rhs_evals / self.steps if self.steps else 0.0
        out["flow.errors"] = self.flow_errors
        attempts = s["normal_form.pair_check"].calls
        out["normal_form.pair_attempts"] = attempts
        out["normal_form.pair_rejections"] = self.pair_rejections / attempts if attempts else 0.0
        out["zoll.return_ratio"] = (self.zoll_returned / self.zoll_sampled
                                    if self.zoll_sampled else 0.0)
        return out
