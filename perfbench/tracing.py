"""Spans around the program's public functions, recorded from outside it.

``install`` replaces each traced function in every loaded ``sqsums`` module
that holds it (and each traced method on its class) with a wrapper that
records a span: name, start, end and parent.  The wrapper also keeps the
per-name call count and self time, where self time is the span's duration
minus the time its child spans cover.  Spans stay in memory
and are written out when the operation ends.  Nothing here changes what a
wrapped function returns, so traced outputs are byte-identical to untraced
ones; the benchmark checks that.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict

# (span name, module, attributes).  "Class.method" attributes are patched on
# the class; a missing attribute is skipped and its metrics read zero.
TARGETS = (
    ("cli.run", "cli", ("run",)),
    ("evalnum.s_series", "evalnum", ("s_series",)),
    ("evalnum.s_closed", "evalnum", ("s_closed",)),
    ("evalnum.s_quad", "evalnum", ("s_quad",)),
    ("evalnum.QuadratureRule", "evalnum", ("QuadratureRule.chebyshev_01", "QuadratureRule.chebyshev_m11")),
    ("evalnum.bessel_i0e", "evalnum", ("bessel_i0e",)),
    ("bounds.bound_values", "bounds", ("bound_values",)),
    ("bounds.s_value", "bounds", ("s_value",)),
    ("exactalg.value", "exactalg", ("f_value", "g_value", "j_value", "u_value")),
    (
        "exactalg.build",
        "exactalg",
        ("f_poly_direct", "f_poly_parseval", "g_rational", "j_rational", "u_rational"),
    ),
    ("exactalg.RationalPoly.mul", "exactalg", ("RationalPoly.__mul__", "RationalPoly.__rmul__")),
    ("exactalg.RationalPoly.call", "exactalg", ("RationalPoly.__call__",)),
    ("exactalg.RationalFn.init", "exactalg", ("RationalFn.__init__",)),
    ("exactalg.RationalFn.call", "exactalg", ("RationalFn.__call__",)),
    ("exactalg.RationalFn.compose_mobius", "exactalg", ("RationalFn.compose_mobius",)),
    ("exactalg.RationalFn.max_coeff_bits", "exactalg", ("RationalFn.max_coeff_bits",)),
    ("exactalg.ode_residual_poly", "exactalg", ("ode_residual_poly",)),
    ("exactalg.heun_residual", "exactalg", ("heun_residual",)),
    ("exactalg.recurrence_check", "exactalg", ("recurrence_check",)),
    ("legendre.neuschel_check_exact", "legendre", ("neuschel_check_exact",)),
    ("legendre.derivative_relations_check", "legendre", ("derivative_relations_check",)),
    ("analysis.logconvexity_scan", "analysis", ("logconvexity_scan",)),
    ("analysis.conjecture_grid", "analysis", ("conjecture_grid",)),
)
SPAN_NAMES = tuple(t[0] for t in TARGETS)

BESSEL_DECADES = range(0, 10)  # z rounded to the nearest decade, 1e0..1e9
SERIES_DECADES = range(0, 9)  # x of c > 0 series calls, 1e0..1e8
ODE_BANDS = ("n01-10", "n11-20")  # index bands verify_exact reaches


def _decade(v: float, lo: int, hi: int) -> int:
    return min(hi, max(lo, round(math.log10(v)))) if v > 0 else lo


# Post hooks see result None when the call raised; timings still count.


def _post_series(counters, args, result, dur):
    if result is not None:
        counters["evalnum.s_series.terms"] += result.terms_or_nodes
    if args[0].c > 0:
        k = _decade(float(args[1]), SERIES_DECADES[0], SERIES_DECADES[-1])
        counters[f"s_series.x1e{k}.n"] += 1
        counters[f"s_series.x1e{k}.s"] += dur


def _post_closed(counters, args, result, dur):
    if result is None:
        return
    if result.method.value == "quadrature":
        counters["evalnum.s_closed.delegated"] += 1
    else:
        counters["evalnum.s_closed.terms"] += result.terms_or_nodes


def _post_quad(counters, args, result, dur):
    if result is not None:
        counters["evalnum.s_quad.nodes"] += result.terms_or_nodes


def _post_rule(counters, args, result, dur):
    counters["evalnum.QuadratureRule.nodes_built"] += args[1]


def _post_bessel(counters, args, result, dur):
    k = _decade(abs(float(args[0])), BESSEL_DECADES[0], BESSEL_DECADES[-1])
    counters[f"bessel_i0e.z1e{k}.n"] += 1
    counters[f"bessel_i0e.z1e{k}.s"] += dur


def _post_ode(counters, args, result, dur):
    n = int(args[1].label.rsplit("_", 1)[1])
    lo = max(1, 10 * ((n - 1) // 10) + 1)
    band = f"n{lo:02d}-{lo + 9}"
    counters[f"ode.{band}.n"] += 1
    counters[f"ode.{band}.s"] += dur


POST = {
    "evalnum.s_series": _post_series,
    "evalnum.s_closed": _post_closed,
    "evalnum.s_quad": _post_quad,
    "evalnum.QuadratureRule": _post_rule,
    "evalnum.bessel_i0e": _post_bessel,
    "exactalg.ode_residual_poly": _post_ode,
}


class Tracer:
    """In-memory spans and per-name aggregates for one operation."""

    def __init__(self) -> None:
        self.names = list(SPAN_NAMES)
        self.spans: list = []  # (name index, parent span id, start, end)
        self.stack: list = []  # [span id, seconds covered by child spans]
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counters: defaultdict = defaultdict(float)

    def wrap(self, name: str, fn):
        idx = self.names.index(name)
        post = POST.get(name)
        spans, stack, counters = self.spans, self.stack, self.counters
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            spans.append(None)
            stack.append(frame)
            result = None  # stays None when fn raises
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                spans[sid] = (idx, parent, t0, t1)
                calls[idx] += 1
                self_s[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if post is not None:
                    post(counters, args, result, dur)

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "sqsums" or k.startswith("sqsums.")]
        for name, modname, attrs in TARGETS:
            mod = sys.modules[f"sqsums.{modname}"]
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__.get(meth)
                    if raw is None:
                        continue
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self.wrap(name, raw.__func__)))
                    else:
                        setattr(cls, meth, self.wrap(name, raw))
                    continue
                orig = getattr(mod, attr, None)
                if orig is None:
                    continue
                wrapped = self.wrap(name, orig)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, key, wrapped)

    def summary(self) -> dict:
        return {
            "calls": dict(zip(self.names, self.calls)),
            "self_s": dict(zip(self.names, self.self_s)),
            "counters": dict(self.counters),
        }

    def write_spans(self, fh, op_id: int) -> None:
        """One JSON array per span: op, id, parent, name, start and end in ns."""
        base = self.spans[0][2] if self.spans else 0.0
        for sid, (idx, parent, t0, t1) in enumerate(self.spans):
            fh.write(
                json.dumps([op_id, sid, parent, self.names[idx], round((t0 - base) * 1e9), round((t1 - base) * 1e9)])
                + "\n"
            )


def traced_hook(result_path: str, spans_path: str, op_id: int):
    """Child hook: trace one ``cli.run`` and write its summary and spans.

    They are written also when the run raises, so failing operations are
    traced too.
    """

    def hook(cli, argv):
        tracer = Tracer()
        tracer.install()
        t0 = time.perf_counter()
        try:
            return cli.run(argv)
        finally:
            cli_s = time.perf_counter() - t0
            with open(result_path, "w") as fh:
                json.dump({"cli_s": cli_s, **tracer.summary()}, fh)
            with open(spans_path, "w") as fh:
                tracer.write_spans(fh, op_id)

    return hook


def timed_hook(result_path: str):
    """Child hook: time one untraced ``cli.run``, for the overhead figure."""

    def hook(cli, argv):
        t0 = time.perf_counter()
        try:
            return cli.run(argv)
        finally:
            cli_s = time.perf_counter() - t0
            with open(result_path, "w") as fh:
                json.dump({"cli_s": cli_s}, fh)

    return hook


COUNTERS = (
    ("evalnum.s_series.terms", "terms/op"),
    ("evalnum.s_closed.terms", "terms/op"),
    ("evalnum.s_closed.delegated", "calls/op"),
    ("evalnum.s_quad.nodes", "nodes/op"),
    ("evalnum.QuadratureRule.nodes_built", "nodes/op"),
)


def _calls_metric(name: str) -> str:
    return f"{name}.builds" if name == "evalnum.QuadratureRule" else f"{name}.calls"


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out = []
    for name in SPAN_NAMES:
        out += [(_calls_metric(name), "calls/op"), (f"{name}.self_s", "s/op")]
    out += COUNTERS
    out += [(f"evalnum.bessel_i0e.us_per_call.z1e{k}", "us") for k in BESSEL_DECADES]
    out += [(f"evalnum.s_series.us_per_call.x1e{k}", "us") for k in SERIES_DECADES]
    out += [(f"exactalg.ode_residual_poly.ms_per_call.{b}", "ms") for b in ODE_BANDS]
    out.append(("trace.overhead_frac", "ratio"))
    return out


def per_layer_metrics(summaries: list[dict], untraced_cli_s: float) -> dict:
    """Per-operation means over the traced operations, plus scaling figures."""
    n_ops = max(1, len(summaries))
    calls = defaultdict(float)
    self_s = defaultdict(float)
    counters = defaultdict(float)
    traced_cli_s = 0.0
    for s in summaries:
        for k, v in s["calls"].items():
            calls[k] += v
        for k, v in s["self_s"].items():
            self_s[k] += v
        for k, v in s["counters"].items():
            counters[k] += v
        traced_cli_s += s["cli_s"]

    def per_call(prefix: str, scale: float) -> float:
        n = counters[f"{prefix}.n"]
        return scale * counters[f"{prefix}.s"] / n if n else 0.0

    values = {}
    for name in SPAN_NAMES:
        values[_calls_metric(name)] = calls[name] / n_ops
        values[f"{name}.self_s"] = self_s[name] / n_ops
    for key, _ in COUNTERS:
        values[key] = counters[key] / n_ops
    for k in BESSEL_DECADES:
        values[f"evalnum.bessel_i0e.us_per_call.z1e{k}"] = per_call(f"bessel_i0e.z1e{k}", 1e6)
    for k in SERIES_DECADES:
        values[f"evalnum.s_series.us_per_call.x1e{k}"] = per_call(f"s_series.x1e{k}", 1e6)
    for band in ODE_BANDS:
        values[f"exactalg.ode_residual_poly.ms_per_call.{band}"] = per_call(f"ode.{band}", 1e3)
    values["trace.overhead_frac"] = traced_cli_s / untraced_cli_s - 1.0 if untraced_cli_s else 0.0
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}
