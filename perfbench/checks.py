"""Output checks of the benchmark, computed apart from the program.

Nothing here imports unisym: each check recomputes what it needs from
plain numpy arrays (the surface, the channel matrices, the rate the
program reported) and returns a list of human-readable problems, empty
when the output holds.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# Residual above which a surface is not unitary / not symmetric. The
# program keeps its iterates within 1e-8 of the manifold.
SURFACE_TOL = 1e-8
# Agreement of a reported rate with the spectral recomputation, bits.
RATE_ABS_TOL = 1e-8
RATE_REL_TOL = 1e-11


def surface_problems(Theta: np.ndarray) -> list[str]:
    """Unitarity ||Theta Theta^H - I||_F and symmetry ||Theta - Theta^T||_F."""
    Theta = np.asarray(Theta)
    n = Theta.shape[0]
    unit = float(np.linalg.norm(Theta @ Theta.conj().T - np.eye(n)))
    sym = float(np.linalg.norm(Theta - Theta.T))
    out = []
    if not unit <= SURFACE_TOL:
        out.append(f"surface not unitary: ||TT^H - I|| = {unit:.3e}")
    if not sym <= SURFACE_TOL:
        out.append(f"surface not symmetric: ||T - T^T|| = {sym:.3e}")
    return out


def spectral_rate_bits(Hd, F, G, Theta, rho: float) -> float:
    """sum_i log2(1 + rho lambda_i) over the eigenvalues of H H^H,
    with H = Hd + F Theta G^H."""
    H = Hd + F @ Theta @ G.conj().T
    lam = np.linalg.eigvalsh(H @ H.conj().T)
    return float(np.sum(np.log2(1.0 + rho * np.clip(lam, 0.0, None))))


def rate_problems(reported: float, expected: float, what: str = "rate") -> list[str]:
    if math.isclose(reported, expected, rel_tol=RATE_REL_TOL, abs_tol=RATE_ABS_TOL):
        return []
    return [f"{what} {reported!r} bits differs from the spectral rate {expected!r}"]


def trace_problems(values, what: str) -> list[str]:
    """A trace must never decrease, so its end is at least its start."""
    v = np.asarray(values, dtype=float)
    out = []
    if v.size == 0 or not np.all(np.isfinite(v)):
        out.append(f"{what}: empty or non-finite trace")
    elif np.any(np.diff(v) < 0):
        k = int(np.argmax(np.diff(v) < 0)) + 1
        out.append(f"{what}: trace decreases at k={k} ({v[k - 1]!r} -> {v[k]!r})")
    return out


def harness_files_problems(out_dir: Path, methods, sweep, trials: int) -> tuple[list[str], list[dict]]:
    """results.csv has one row per (method, M, trial) cell, and the means
    in summary.json equal means taken here over those rows.

    Returns the problems and the parsed rows (rate_bits, wall_ms as float).
    """
    out = []
    with open(out_dir / "results.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for r in rows:
        r["M"], r["trial"], r["iterations"] = int(r["M"]), int(r["trial"]), int(r["iterations"])
        r["rate_bits"], r["wall_ms"] = float(r["rate_bits"]), float(r["wall_ms"])
    want = sorted((m, M, t) for m in methods for M in sweep for t in range(trials))
    got = sorted((r["method"], r["M"], r["trial"]) for r in rows)
    if got != want:
        out.append(f"results.csv has cells {got}, expected {want}")
    with open(out_dir / "summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    for method in methods:
        for M in sweep:
            cell = [r for r in rows if r["method"] == method and r["M"] == M
                    and r["converged"] != "inapplicable"]
            reported = summary.get(method, {}).get(str(M))
            if not cell:
                if reported is not None:
                    out.append(f"summary.json {method}/{M} should be null")
                continue
            rates = [r["rate_bits"] for r in cell]
            mean = math.fsum(rates) / len(rates)
            own = {
                "mean_rate_bits": mean,
                "std_rate_bits": math.sqrt(math.fsum((x - mean) ** 2 for x in rates) / len(rates)),
                "mean_iters": math.fsum(r["iterations"] for r in cell) / len(cell),
            }
            for key, val in own.items():
                if reported is None or not math.isclose(reported.get(key, math.nan), val,
                                                        rel_tol=1e-12, abs_tol=1e-12):
                    out.append(f"summary.json {method}/{M}/{key} = "
                               f"{None if reported is None else reported.get(key)!r}, "
                               f"rows give {val!r}")
    return out, rows


def trace_file_values(path: Path) -> list[float]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [float(r["F_bits"]) for r in csv.DictReader(fh)]
