"""Risk metrics over execution-time samples, plan selection, and the
advisory Welch comparison.

The Welch p-value's Student t tail is computed here from ``math`` alone,
so the runtime needs no scipy; the tests check it against
``scipy.special.stdtr``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

DEFAULT_BIN_WIDTH = 5.0
DEFAULT_ALPHA = 0.9
DEFAULT_TIME_BOUND = 600.0
DEFAULT_ALPHA_MEAN = 0.05
MIN_SAMPLES = 2  # per plan: a sample variance needs two


@dataclass(frozen=True)
class MetricConfig:
    bin_width: float = DEFAULT_BIN_WIDTH
    alpha: float = DEFAULT_ALPHA
    time_bound: float = DEFAULT_TIME_BOUND

    def __post_init__(self):
        if not (math.isfinite(self.bin_width) and self.bin_width > 0):
            raise ValueError(f"bin_width must be finite and positive, got {self.bin_width!r}")
        if not math.isfinite(self.time_bound):
            raise ValueError(f"time_bound must be finite, got {self.time_bound!r}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must be in (0,1)")


@dataclass(frozen=True)
class RiskMetrics:
    count: int
    mean: float
    variance: float
    entropy_bits: float
    var_alpha: float
    es_alpha: float
    bounded_prob: float
    bin_width: float
    alpha: float
    time_bound: float


def compute_metrics(samples: list[float], config: MetricConfig = MetricConfig()) -> RiskMetrics:
    """Empirical mean/variance/entropy plus tail metrics.

    Entropy uses fixed-width bins anchored at 0.  The value at risk is the
    upper order statistic at rank ceil(alpha * n); the expected shortfall
    averages the samples strictly above it (or equals it when none are).
    A sample that is not finite, or whose bin is not, is refused.
    """
    n = len(samples)
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {n}")
    for x in samples:  # a non-finite x has no finite bin either
        if not math.isfinite(x / config.bin_width):
            raise ValueError(f"execution time {x!r} has no finite bin of width "
                             f"{config.bin_width!r}")
    mean = sum(samples) / n
    variance = sum((x - mean) ** 2 for x in samples) / (n - 1)

    bins: dict[int, int] = {}
    for x in samples:
        b = math.floor(x / config.bin_width)
        bins[b] = bins.get(b, 0) + 1
    entropy = 0.0 - sum((c / n) * math.log2(c / n) for c in bins.values())  # never -0.0

    ordered = sorted(samples)
    rank = math.ceil(config.alpha * n)  # 1-based
    var_alpha = ordered[min(rank, n) - 1]
    tail = [x for x in ordered if x > var_alpha]
    es_alpha = sum(tail) / len(tail) if tail else var_alpha
    bounded_prob = sum(1 for x in samples if x > config.time_bound) / n

    return RiskMetrics(n, mean, variance, entropy, var_alpha, es_alpha,
                       bounded_prob, config.bin_width, config.alpha,
                       config.time_bound)


@dataclass
class Elimination:
    plan_id: str
    reason: str


@dataclass
class SelectionResult:
    selected: str
    eliminated: list[Elimination]


def check_alpha_mean(alpha_mean: float):
    """Raise ValueError unless ``alpha_mean`` is a finite mean tolerance >= 0."""
    if not 0 <= alpha_mean < math.inf:  # NaN fails too
        raise ValueError(f"alpha_mean must be finite and >= 0, got {alpha_mean!r}")


def select(table: list[tuple[str, RiskMetrics]],
           alpha_mean: float = DEFAULT_ALPHA_MEAN) -> SelectionResult:
    """Mean-filter then minimize variance; ties by entropy, mean, plan id.

    Plans whose mean exceeds (1 + alpha_mean) times the best mean are
    eliminated up front; the justification records why each loser fell.
    """
    if not table:
        raise ValueError("selection table is empty")
    check_alpha_mean(alpha_mean)
    best_mean = min(m.mean for _, m in table)
    cutoff = (1.0 + alpha_mean) * best_mean
    kept = [(pid, m) for pid, m in table if m.mean <= cutoff]
    eliminated = [
        Elimination(pid, f"mean {m.mean:.3f} exceeds cutoff {cutoff:.3f} "
                         f"(best mean {best_mean:.3f}, alpha_mean {alpha_mean})")
        for pid, m in table if m.mean > cutoff
    ]
    winner = min(kept, key=lambda pm: (pm[1].variance, pm[1].entropy_bits,
                                       pm[1].mean, pm[0]))
    for pid, m in kept:
        if pid == winner[0]:
            continue
        if m.variance != winner[1].variance:
            why = f"variance {m.variance:.4f} above selected {winner[1].variance:.4f}"
        elif m.entropy_bits != winner[1].entropy_bits:
            why = f"entropy {m.entropy_bits:.4f} above selected {winner[1].entropy_bits:.4f}"
        elif m.mean != winner[1].mean:
            why = f"mean {m.mean:.4f} above selected {winner[1].mean:.4f}"
        else:
            why = "identical metrics, larger plan id"
        eliminated.append(Elimination(pid, why))
    return SelectionResult(winner[0], eliminated)


def compare_means(a: RiskMetrics, b: RiskMetrics) -> tuple[float, float]:
    """Welch's unequal-variance t test; advisory, never overrides select."""
    na, nb = a.count, b.count
    ua, ub = a.variance / na, b.variance / nb
    se2 = ua + ub
    if se2 == 0.0:
        return (0.0, 1.0) if a.mean == b.mean else (math.copysign(math.inf, a.mean - b.mean), 0.0)
    t = (a.mean - b.mean) / math.sqrt(se2)
    if se2 ** 2 == 0.0 or ua ** 2 / (na - 1) + ub ** 2 / (nb - 1) == 0.0:
        ua, ub, se2 = ua / se2, ub / se2, 1.0  # underflowed: df from the shares of se2
    df = se2 ** 2 / (ua ** 2 / (na - 1) + ub ** 2 / (nb - 1))
    return t, min(t_two_sided_p(t, df), 1.0)


def t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom.

    That is the regularized incomplete beta I_x(a, 1/2), a = df/2, at
    x = df/(df + t^2), from its continued fraction (Numerical Recipes, 3rd
    ed., 6.4), or 1 - I_{1-x}(1/2, a) where that converges faster.  x and
    1 - x are both formed directly, so neither tail loses digits.
    """
    t2 = t * t
    x, y = df / (df + t2), t2 / (df + t2)
    if x == 0.0 or y == 0.0:
        return 1.0 if y == 0.0 else 0.0
    a = 0.5 * df
    if a < 25.0:
        log_ratio = math.lgamma(a + 0.5) - math.lgamma(a)
    else:  # Stirling series: lgamma's own rounding at a = 5000 costs 1e-10 of p
        z = 1.0 / (a * a)
        log_ratio = 0.5 * math.log(a) - (
            1 / 8 - z * (1 / 192 - z * (1 / 640 - z * 17 / 14336))) / a
    front = math.exp(log_ratio - 0.5 * math.log(math.pi) - a * math.log1p(t2 / df)
                     - 0.5 * math.log1p(df / t2))  # x^a (1 - x)^(1/2) / B(a, 1/2)
    if x < (a + 1.0) / (a + 2.5):
        return front * _beta_fraction(a, 0.5, x) / a
    return 1.0 - 2.0 * front * _beta_fraction(0.5, a, y)


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), by the modified Lentz method;
    it needs O(sqrt(a)) terms."""
    def off_zero(v):
        return v if abs(v) > 1e-300 else 1e-300

    c, d = 1.0, 1.0 / off_zero(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 10_000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / off_zero(1.0 + num * d)
            c = off_zero(1.0 + num / c)
            h *= c * d
        if abs(c * d - 1.0) < 3e-16:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge at a={a}, x={x}")


def build_report(
    samples_by_plan: dict[str, list[float]],
    config: MetricConfig = MetricConfig(),
    alpha_mean: float = DEFAULT_ALPHA_MEAN,
) -> dict:
    """Assessment report: per-plan metrics, selection justification, and
    Welch comparisons of the selected plan against every rival."""
    metrics = {pid: compute_metrics(s, config) for pid, s in samples_by_plan.items()}
    selection = select(sorted(metrics.items()), alpha_mean=alpha_mean)
    winner = selection.selected
    welch = {}
    for pid in sorted(samples_by_plan):
        if pid == winner:
            continue
        t, p = compare_means(metrics[winner], metrics[pid])
        welch[pid] = {"t": t, "p": p}
    return {
        "format_version": 2,
        "metrics": {pid: asdict(m) for pid, m in sorted(metrics.items())},
        "samples": {pid: list(s) for pid, s in sorted(samples_by_plan.items())},
        "selection": asdict(selection),
        "welch_vs_selected": welch,
    }
