"""Per-layer spans for the traced run, recorded from outside the program.

`installed(tracer)` replaces each traced public function of unisym with a
wrapper in every unisym module namespace that holds it, so that callers
inside the package (which bind names with `from .x import f`) reach the
wrapper too. Methods are replaced on their class. Everything is put back
on exit. Each wrapper records a call count, its inclusive duration, and
its self time: the span minus the traced child spans inside it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict

# module -> functions (Class.method for methods); metric names are
# <module>.<function>.<stat>
TARGETS = {
    "linalg": ("takagi", "eig_real_symmetric", "expm_skew_hermitian"),
    "manifold": ("us_tangent_project", "us_geodesic_frame", "us_point_at",
                 "UsPoint.max_residual", "us_retract", "u_tangent_project",
                 "u_geodesic", "us_random", "u_random"),
    "bdris": ("gen_channels", "rate", "euclid_grad", "RateObjective.phase_maximizer",
              "low_cost_bdris", "mo_u_proj_baseline"),
    "optimizer": ("optimize_us", "phase_sweep", "optimize_u_armijo"),
    "harness": ("run_experiment",),
}
LAYERS = tuple(f"{mod}.{qual.split('.')[-1]}" for mod, quals in TARGETS.items()
               for qual in quals)
_OPTIMIZERS = ("optimizer.optimize_us", "optimizer.optimize_u_armijo")


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.durations: defaultdict = defaultdict(lambda: array("d"))
        self.iterations: Counter = Counter()   # optimizer -> iterations returned
        self.armijo_rate_calls = 0             # bdris.rate inside optimize_u_armijo
        self._stack: list[list] = []           # [name, child seconds]
        self._armijo_depth = 0

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            tracer._stack.append(frame)
            if name == "optimizer.optimize_u_armijo":
                tracer._armijo_depth += 1
            elif name == "bdris.rate" and tracer._armijo_depth:
                tracer.armijo_rate_calls += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = time.perf_counter() - t0
                tracer._stack.pop()
                if name == "optimizer.optimize_u_armijo":
                    tracer._armijo_depth -= 1
                if tracer._stack:
                    tracer._stack[-1][1] += d
                tracer.calls[name] += 1
                tracer.self_s[name] += d - frame[1]
                tracer.durations[name].append(d)
            if name in _OPTIMIZERS:
                tracer.iterations[name] += result[1].iterations
            return result

        return traced

    def layer_metrics(self) -> dict:
        """calls, self ms and median inclusive us per call of each layer,
        plus the waste ratios named in the README."""
        out = {}
        for name in LAYERS:
            d = self.durations.get(name)
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.ms"] = (self.self_s[name] * 1e3, "ms")
            out[f"{name}.us_p50"] = (statistics.median(d) * 1e6 if d else 0.0, "us")
        us_iters = self.iterations["optimizer.optimize_us"]
        u_iters = self.iterations["optimizer.optimize_u_armijo"]
        out["optimizer.optimize_us.iters_mean"] = (
            _ratio(us_iters, self.calls["optimizer.optimize_us"]), "iterations")
        out["optimizer.optimize_u_armijo.iters_mean"] = (
            _ratio(u_iters, self.calls["optimizer.optimize_u_armijo"]), "iterations")
        out["optimizer.phase_sweep.per_iter"] = (
            _ratio(self.calls["optimizer.phase_sweep"], us_iters), "sweeps/iter")
        out["optimizer.armijo.evals_per_iter"] = (
            _ratio(self.armijo_rate_calls, u_iters), "evals/iter")
        out["harness.self_ms"] = (self.self_s["harness.run_experiment"] * 1e3, "ms")
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every traced unisym function through tracer while active."""
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "unisym" or n.startswith("unisym.")]
    patches = []   # (owner, attribute, original)
    for mod, quals in TARGETS.items():
        home = importlib.import_module(f"unisym.{mod}")
        for qual in quals:
            name = f"{mod}.{qual.split('.')[-1]}"
            if "." in qual:
                cls_name, attr = qual.split(".")
                owner = getattr(home, cls_name)
                orig = owner.__dict__[attr]
                patches.append((owner, attr, orig, tracer.wrap(name, orig)))
                continue
            orig = getattr(home, qual)
            wrapped = tracer.wrap(name, orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        patches.append((m, attr, orig, wrapped))
    for owner, attr, _, wrapped in patches:
        setattr(owner, attr, wrapped)
    try:
        yield tracer
    finally:
        for owner, attr, orig, _ in reversed(patches):
            setattr(owner, attr, orig)
