"""Closed-form chain quantities, concentration bounds, failure-time bounds, fits."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .graph import ChannelGraph
from .paths import BetweennessMap

logger = logging.getLogger(__name__)

_ALPHA = 2.0  # the bounds assume per-side balances k_e above alpha·sqrt(ln n)


def expected_hitting_time(k: int, j: int) -> int:
    """Expected rounds for an unbiased chain started at j to reach ±k: k² − j²."""
    if abs(j) > k:
        raise ValueError(f"start {j} outside [-{k}, {k}]")
    return k * k - j * j


def hitting_tail_bound(k: int, t: int) -> float:
    """Upper bound on Prob{tau <= t} from 0: min(1, 4·e^(−k²/(6t)))."""
    if k < 1 or t < 1:
        raise ValueError("k and t must be >= 1")
    return min(1.0, 4.0 * math.exp(-(k * k) / (6.0 * t)))


def reflection_sandwich(k: int, t: int, chain_samples: int,
                        seed: int = 0) -> tuple[float, float, float]:
    """Estimate the reflection sandwich by simulating unbiased walks.

    Returns ``(lo, hi, observed)`` where lo estimates Prob{|X_t| >= k}, hi is
    2·lo, and observed estimates Prob{max over i<=t of |X_i| >= k}.  All three
    come from the same simulated walks, so lo <= observed holds pathwise and
    observed <= hi holds up to sampling error.
    """
    if t < 1 or chain_samples < 1:
        raise ValueError("t and chain_samples must be >= 1")
    gen = np.random.Generator(np.random.PCG64(seed))
    steps = gen.integers(0, 2, size=(chain_samples, t), dtype=np.int8).astype(np.int32) * 2 - 1
    walks = np.cumsum(steps, axis=1)
    endpoint = np.abs(walks[:, -1]) >= k
    running_max = np.max(np.abs(walks), axis=1) >= k
    lo = float(np.mean(endpoint))
    observed = float(np.mean(running_max))
    return lo, 2.0 * lo, observed


def chernoff_lower(mu: float, delta: float) -> float:
    """Chernoff lower-tail bound e^(−δ²·μ/2) for a Bernoulli sum with mean μ."""
    _check_chernoff(mu, delta)
    return math.exp(-delta * delta * mu / 2.0)


def chernoff_upper(mu: float, delta: float) -> float:
    """Chernoff upper-tail bound e^(−δ²·μ/3)."""
    _check_chernoff(mu, delta)
    return math.exp(-delta * delta * mu / 3.0)


def _check_chernoff(mu: float, delta: float) -> None:
    if mu <= 0:
        raise ValueError("mu must be positive")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must be in (0, 1)")


@dataclass
class BoundReport:
    """Critical ratio and failure-time bound guides for one capacitated graph.

    ``lower_bound_value``/``upper_bound_value`` carry unit leading constants
    (xi·n²/ln n and xi·n²·ln n) and are order-of-magnitude guides, not
    guarantees; ``proof_lower``/``proof_upper`` carry the proof constants
    (n(n−1)·xi/(54·ln n) and 4·n(n−1)·xi·ln n).
    """

    xi: float
    lower_bound_value: float
    upper_bound_value: float
    per_edge_ratios: dict[int, float]
    argmin_edge: int
    proof_lower: float
    proof_upper: float
    warnings: list[str] = field(default_factory=list)


def xi_and_bounds(g: ChannelGraph, bmap: BetweennessMap) -> BoundReport:
    """Per-edge ratios k_e²/g(e), their minimum xi, and failure-time bound guides.

    Per-side balance is k_e = capacity(e) // 2 (the initially binding side for
    odd capacities).  Edges with g(e) = 0 lie on no shortest path; they get
    ratio inf, are excluded from xi, and are reported in ``warnings``.  Edges
    with k_e <= _ALPHA·sqrt(ln n) sit below the capacity floor the bounds
    assume and are flagged as warnings only.
    """
    n = g.node_count
    caps = g.capacity.tolist()  # Python ints: k_e**2 can pass int64
    if any(cap < 2 for cap in caps):
        raise ValueError("every edge needs capacity >= 2 (per-side balance >= 1)")
    log_n = math.log(n)
    floor = _ALPHA * math.sqrt(log_n) if n >= 2 else 0.0
    ratios: dict[int, float] = {}
    warnings: list[str] = []
    xi = math.inf
    argmin = -1
    low_capacity = 0
    for eid in range(g.edge_count):
        k_e = caps[eid] // 2
        g_e = bmap.values[eid]
        if g_e <= 0.0:
            ratios[eid] = math.inf
            warnings.append(f"edge {eid} has zero betweenness; excluded from xi")
            continue
        ratio = (k_e * k_e) / g_e
        ratios[eid] = ratio
        if ratio < xi:
            xi = ratio
            argmin = eid
        if k_e <= floor:
            low_capacity += 1
    if low_capacity:
        warnings.append(
            f"{low_capacity} edge(s) have k_e <= {_ALPHA}*sqrt(ln n) ~ {floor:.3f}; "
            "bounds assume larger capacities"
        )
    if argmin < 0:
        raise ValueError("no edge with positive betweenness; xi undefined")
    for msg in warnings:
        logger.warning("%s", msg)
    n2 = float(n) * n
    nn1 = float(n) * (n - 1)
    return BoundReport(
        xi=xi,
        lower_bound_value=xi * n2 / log_n,
        upper_bound_value=xi * n2 * log_n,
        per_edge_ratios=ratios,
        argmin_edge=argmin,
        proof_lower=nn1 * xi / (54.0 * log_n),
        proof_upper=4.0 * nn1 * xi * log_n,
        warnings=warnings,
    )


def clique_failure_window(n: int, k: int) -> tuple[float, float]:
    """Proof-constant failure-time window on the uniform clique.

    Returns (m·k²/(27·ln n), 4·m·k²) with m = n(n−1)/2.  Warns when k is at or
    below sqrt(4·_ALPHA·ln n), the statement-form capacity floor.
    """
    if n < 2 or k < 1:
        raise ValueError("need n >= 2 and k >= 1")
    m = n * (n - 1) // 2
    if k <= math.sqrt(4.0 * _ALPHA * math.log(n)):
        logger.warning("k=%d at or below sqrt(4*alpha*ln n); window is a guide only", k)
    return m * k * k / (27.0 * math.log(n)), 4.0 * m * k * k


def ring_edge_probability(n: int) -> float:
    """Per-edge inclusion probability on the n-ring: (⌈n/2⌉−1)·⌈n/2⌉/(n(n−1)).

    Exact for odd n; for even n it omits the antipodal-pair term 1/(2(n−1))
    and is the large-n approximation (→ 1/4).
    """
    if n < 3:
        raise ValueError("ring needs n >= 3")
    half = (n + 1) // 2
    return (half - 1) * half / (n * (n - 1))


def ring_edge_probability_exact(n: int) -> float:
    """Per-edge inclusion probability on the n-ring, antipodal pairs included.

    A uniform ordered pair of distinct nodes and a uniform shortest path
    between them cross a given edge with probability (n+1)/(4n) for odd n
    and n/(4(n−1)) for even n, where an antipodal pair's two arcs each take
    half.  For odd n it equals ``ring_edge_probability``.
    """
    if n < 3:
        raise ValueError("ring needs n >= 3")
    return (n + 1) / (4 * n) if n % 2 else n / (4 * (n - 1))


def fit_scale(points: list[tuple[int, float]], model: str, k: int) -> float:
    """Least-squares scale p for mean_tau ≈ p·f(n).

    f(n) = k²·n² for the ``upper`` model, k²·n²/ln n for ``lower``; the
    closed-form minimizer of the squared residual is Σ f·y / Σ f².
    """
    if model not in ("upper", "lower"):
        raise ValueError(f"model must be 'upper' or 'lower', got {model!r}")
    if not points:
        raise ValueError("need at least one data point")
    if any(n < 3 for n, _ in points):
        raise ValueError("all n must be >= 3")
    fs = [_fit_basis(n, model, k) for n, _ in points]
    denom = sum(f * f for f in fs)
    if denom == 0.0:
        raise ValueError("all basis values are zero")
    return sum(f * y for f, (_, y) in zip(fs, points)) / denom


def fit_residual(points: list[tuple[int, float]], model: str, k: int, p: float) -> float:
    """Sum of squared residuals of mean_tau − p·f(n)."""
    return sum((y - p * _fit_basis(n, model, k)) ** 2 for n, y in points)


def _fit_basis(n: int, model: str, k: int) -> float:
    f = float(k) * k * n * n
    if model == "lower":
        f /= math.log(n)
    return f


def bound_report_rows(g: ChannelGraph, bmap: BetweennessMap, report: BoundReport):
    """Rows for the bound-report CSV export: edge_id, k, g, ratio."""
    for eid, cap in enumerate(g.capacity.tolist()):
        yield eid, cap // 2, bmap.values[eid], report.per_edge_ratios[eid]


BOUND_REPORT_COLUMNS = ["edge_id", "k", "g", "ratio"]
