"""Span tracer for the benchmark's traced run.

Wraps public peachsim functions at every name a caller can look them up by
(``peachsim.cli`` imports several names directly, so the copy in each module
namespace is replaced), and wraps the ``numpy.linalg`` / ``scipy.linalg``
factorization entry points so each call is attributed to the innermost open
layer span.  Spans stay in memory and are written once, when the run ends.
Nothing inside ``src/`` changes: the wrappers are installed from here.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

from workloads import cost_model_flops

# Layer and group of each traced public function.  ``correlated_model`` lives
# in cli.py but builds the model, so it belongs to the model layer.
LAYER_FUNCTIONS = {
    "model": {
        "build": ("correlated_model",),
        "sample": ("psd_factor", "standard_complex_normal"),
    },
    "estimators": {
        "prepare": ("make_peach", "make_wpeach"),
        "apply": ("mmse_estimate", "mvu_estimate", "diag_estimate", "peach_estimate", "wpeach_estimate"),
        "mse": ("mmse_mse", "mvu_variance", "diag_mse", "peach_mse", "wpeach_mse_general"),
        "other_mse": ("wpeach_mse_optimal", "linear_filter_mse"),
        "filter": ("poly_filter_matrix", "mmse_filter_matrix"),
        "helper": ("z_matrix", "default_alpha_w", "alpha_optimal"),
    },
    "analysis": {
        "floor": ("floor_noise_limited", "floor_contaminated"),
        "cost": ("flops", "crossover_m"),
    },
    "adaptive": {
        "init": ("adaptive_init",),
        "update": ("adaptive_update",),
        "shrinkage": ("shrinkage_covariance",),
    },
    "cli": {
        "run": ("run_experiment",),
        "monte_carlo": ("run_monte_carlo",),
        "write": ("write_rows",),
    },
}

LINALG_ENTRY_POINTS = (
    ("numpy.linalg", "eigh"),
    ("numpy.linalg", "eigvalsh"),
    ("numpy.linalg", "solve"),
    ("numpy.linalg", "inv"),
    ("numpy.linalg", "cholesky"),
    ("scipy.linalg", "solve"),
)

# Span fields, in the order each span list holds them.
SPAN_FIELDS = ("id", "parent", "layer", "name", "start", "end", "tag")


def _estimate_tag(args, kwargs, result):
    # observations per call and the sizes the cost model needs
    model = args[0]
    y = args[-1] if "y" not in kwargs else kwargs["y"]
    est = args[1] if len(args) == 3 else None
    n_obs = 1 if getattr(y, "ndim", 1) == 1 else int(y.shape[1])
    return {
        "n_obs": n_obs,
        "m": model.dims.m,
        "n": model.dims.n,
        "degree": None if est is None else int(est.degree),
    }


_TAGS = {
    "mmse_estimate": _estimate_tag,
    "mvu_estimate": _estimate_tag,
    "diag_estimate": _estimate_tag,
    "peach_estimate": _estimate_tag,
    "wpeach_estimate": _estimate_tag,
    "run_monte_carlo": lambda args, kwargs, result: {"trials": int(args[2] if len(args) > 2 else kwargs["trials"])},
    "adaptive_update": lambda args, kwargs, result: {"fallback": bool(args[0].fallback)},
}


class Tracer:
    """In-memory span recorder; disabled until :meth:`install` and :attr:`enabled`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.enabled = False
        self.linalg_calls = defaultdict(int)  # (layer, function, op) -> calls
        self.linalg_s = defaultdict(float)  # (layer, function, op) -> seconds
        self.missing: list[str] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str):
        tag = _TAGS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [len(self.spans), self.stack[-1] if self.stack else -1, layer, name, time.perf_counter(), 0.0, None]
            self.spans.append(span)
            self.stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                self.stack.pop()
            if tag is not None:
                span[6] = tag(args, kwargs, result)
            return result

        return wrapper

    def _wrap_linalg(self, fn, op: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if self.stack:
                span = self.spans[self.stack[-1]]
                key = (span[2], span[3], op)
            else:
                key = ("bench", "-", op)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.linalg_calls[key] += 1
                self.linalg_s[key] += time.perf_counter() - start

        return wrapper

    def install(self, package) -> None:
        """Replace each traced function in every peachsim namespace that holds it."""
        import importlib

        namespaces = [package] + [
            importlib.import_module(f"{package.__name__}.{mod}")
            for mod in ("model", "estimators", "analysis", "adaptive", "cli")
        ]
        for layer, groups in LAYER_FUNCTIONS.items():
            for names in groups.values():
                for name in names:
                    originals = {getattr(ns, name) for ns in namespaces if callable(getattr(ns, name, None))}
                    if not originals:
                        self.missing.append(name)
                    for original in originals:
                        wrapped = self._wrap(original, layer, name)
                        for ns in namespaces:
                            if getattr(ns, name, None) is original:
                                setattr(ns, name, wrapped)
        for module_name, op in LINALG_ENTRY_POINTS:
            module = importlib.import_module(module_name)
            label = op if module_name == "numpy.linalg" else f"scipy.{op}"
            setattr(module, op, self._wrap_linalg(getattr(module, op), label))

    # -- output -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its direct children."""
        out = [span[5] - span[4] for span in self.spans]
        for span in self.spans:
            if span[1] >= 0:
                out[span[1]] -= span[5] - span[4]
        return out

    def write(self, path) -> None:
        payload = {
            "run_id": self.run_id,
            "fields": SPAN_FIELDS,
            "spans": self.spans,
            "linalg_calls": [[*key, count] for key, count in sorted(self.linalg_calls.items())],
            "missing_functions": self.missing,
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)
            handle.write("\n")


def group_of(name: str) -> tuple[str, str]:
    for layer, groups in LAYER_FUNCTIONS.items():
        for group, names in groups.items():
            if name in names:
                return layer, group
    raise KeyError(name)


def _quantile(values: list, share: float):
    if not values:
        return None
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


EIG_OPS = ("eigh", "eigvalsh")
SOLVE_OPS = ("solve", "scipy.solve", "inv")


def summarize(tracer: Tracer, passes: int) -> dict:
    """Per-layer metrics per pass, plus per-function and linear-algebra tables.

    Each metric is ``{"value": ..., "unit": ...}``.  Computed GFLOP/s divide
    the cost model's count for one estimate by the measured apply time.
    """
    selfs = tracer.self_times()
    by_name = defaultdict(list)  # name -> [(span, self_s)]
    layer_self = defaultdict(float)
    layer_calls = defaultdict(int)
    for span, self_s in zip(tracer.spans, selfs):
        by_name[span[3]].append((span, self_s))
        layer_self[span[2]] += self_s
        layer_calls[span[2]] += 1

    def total(*names):
        return sum(span[5] - span[4] for name in names for span, _ in by_name[name]) / passes

    def linalg(layer, ops):
        return sum(c for (lay, _, op), c in tracer.linalg_calls.items() if lay == layer and op in ops) / passes

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for layer in LAYER_FUNCTIONS:
        put(f"{layer}.self_s", layer_self[layer] / passes, "s")
        put(f"{layer}.calls", layer_calls[layer] / passes, "count")
        put(f"{layer}.eig_calls", linalg(layer, EIG_OPS), "count")
        put(f"{layer}.solve_calls", linalg(layer, SOLVE_OPS), "count")
    put("model.build_s", total("correlated_model"), "s")
    put("model.sample_s", total("psd_factor", "standard_complex_normal"), "s")
    put("estimators.prepare_s.peach", total("make_peach"), "s")
    put("estimators.prepare_s.wpeach", total("make_wpeach"), "s")
    put("estimators.mse_s", total(*LAYER_FUNCTIONS["estimators"]["mse"]), "s")
    put("estimators.z_calls", len(by_name["z_matrix"]) / passes, "count")
    put("analysis.floor_s", total(*LAYER_FUNCTIONS["analysis"]["floor"]), "s")
    put("adaptive.init_s", total("adaptive_init"), "s")
    put("adaptive.shrinkage_s", total("shrinkage_covariance"), "s")
    put("cli.write_s", total("write_rows"), "s")

    # Estimator application: single observations at the largest m they ran at,
    # batched calls summed.  Counts are per pass, samples pooled over passes.
    samples = {}
    for kind in ("mmse", "peach", "wpeach"):
        calls = by_name[f"{kind}_estimate"]
        single = [(span[5] - span[4], span[6]) for span, _ in calls if span[6]["n_obs"] == 1]
        per_obs = [((span[5] - span[4]) / span[6]["n_obs"], span[6]) for span, _ in calls]
        if single:
            top = max(tag["m"] for _, tag in single)
            ms = [1e3 * dt for dt, tag in single if tag["m"] == top]
            put(f"estimators.apply_ms.{kind}.p50", _quantile(ms, 0.5), "ms")
            put(f"estimators.apply_ms.{kind}.p90", _quantile(ms, 0.9), "ms")
            samples[f"estimators.apply_ms.{kind}"] = {"n": len(ms), "m": top}
        if per_obs:
            top = max(tag["m"] for _, tag in per_obs)
            at_top = [(dt, tag) for dt, tag in per_obs if tag["m"] == top]
            seconds = _quantile([dt for dt, _ in at_top], 0.5)
            tag = at_top[0][1]
            size = (kind, tag["m"], tag["n"], tag["degree"])
            flops = cost_model_flops(*size, realizations=2) - cost_model_flops(*size, realizations=1)
            put(f"estimators.apply_gflops.{kind}", flops / seconds / 1e9, "GFLOP/s")
    batch_s = sum(
        span[5] - span[4]
        for name in LAYER_FUNCTIONS["estimators"]["apply"]
        for span, _ in by_name[name]
        if span[6]["n_obs"] > 1
    )
    put("estimators.apply_batch_s", batch_s / passes, "s")

    updates = by_name["adaptive_update"]
    update_ms = [1e3 * (span[5] - span[4]) for span, _ in updates]
    if updates:
        put("adaptive.update_ms.p50", _quantile(update_ms, 0.5), "ms")
        put("adaptive.update_ms.p90", _quantile(update_ms, 0.9), "ms")
        samples["adaptive.update_ms"] = {"n": len(update_ms)}
    fallbacks = sum(span[6]["fallback"] for span, _ in updates)
    put("adaptive.fallback_ratio", fallbacks / len(updates) if updates else 0.0, "ratio")

    monte_carlo = by_name["run_monte_carlo"]
    if monte_carlo:
        mc_s = sum(span[5] - span[4] for span, _ in monte_carlo)
        put("cli.monte_carlo_self_s", sum(self_s for _, self_s in monte_carlo) / passes, "s")
        put("cli.mc_trials_per_s", sum(span[6]["trials"] for span, _ in monte_carlo) / mc_s, "1/s")

    functions = []
    for name, entries in sorted(by_name.items()):
        if not entries:
            continue
        layer, group = group_of(name)
        functions.append(
            {
                "layer": layer,
                "group": group,
                "name": name,
                "calls": len(entries) / passes,
                "inclusive_s": sum(span[5] - span[4] for span, _ in entries) / passes,
                "self_s": sum(self_s for _, self_s in entries) / passes,
            }
        )
    linalg_table = [
        {"layer": layer, "function": fn, "op": op, "calls": count / passes, "seconds": tracer.linalg_s[(layer, fn, op)] / passes}
        for (layer, fn, op), count in sorted(tracer.linalg_calls.items())
    ]
    return {
        "metrics": metrics,
        "samples": samples,
        "functions": functions,
        "linalg": linalg_table,
        "spans": len(tracer.spans),
        "missing_functions": tracer.missing,
    }
