"""Closed-form asymptotic tail bounds and companion quantities.

These are the large-n forms: additive o(1) terms and (1 - o(1)) factors
in exponents are dropped, and every returned AsymptoticBound records
that in regime_notes.  The rigorous finite-n counterparts live in the
oracle module; at moderate n the dropped terms favor the bound, which
the validation suites check empirically.

Rates used repeatedly: a two-type ensemble with parameters (mu, K) has
mean selection count <K> = mu + (1-mu)K, and <K> - 1 = (1-mu)(K-1) > 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, exp, inf

from .errors import ParameterError
from .graph_model import validate_type_distribution


@dataclass(frozen=True)
class AsymptoticBound:
    """A closed-form bound value with its dropped-term bookkeeping.

    value is not clamped (tail bounds may exceed 1 and callers need to
    see that); components holds the individual geometric tails when the
    bound is a sum of several.
    """

    value: float
    regime_notes: tuple[str, ...]
    inputs: dict = field(default_factory=dict)
    components: dict = field(default_factory=dict)


# Short names of bound kinds, for the CLI's --kind and the sweep overlays
_KIND_ALIASES = {"t1": "tail", "t2": "deleted-tail", "alt": "deleted-tail-alt", "rclass": "r-class"}

_ASYMPTOTIC_NOTES = (
    "additive o(1) term dropped",
    "(1 - o(1)) factor in the exponent dropped",
)


def mean_selections(mu, k) -> float:
    """Average number of selections per node: mu + (1 - mu) * K."""
    mu, k = float(mu), int(k)
    if not 0.0 < mu < 1.0:
        raise ParameterError("mu must lie strictly inside (0, 1)")
    if k < 2:
        raise ParameterError("need K >= 2")
    return mu + (1.0 - mu) * k


def _geometric_tail(x, rate) -> float:
    # sum over j >= x of e^{-j * rate}
    return exp(-x * rate) / (1.0 - exp(-rate))


def tail_bound(mu, k, m) -> AsymptoticBound:
    """Asymptotic bound on P[more than M nodes lie outside the largest
    component]: e^{-M(<K>-1)} / (1 - e^{-(<K>-1)})."""
    m = int(m)
    if m < 1:
        raise ParameterError("need M >= 1")
    rate = mean_selections(mu, k) - 1.0
    return AsymptoticBound(
        value=_geometric_tail(m, rate),
        regime_notes=_ASYMPTOTIC_NOTES,
        inputs={"mu": float(mu), "K": int(k), "M": m},
        components={"mean_rate_tail": _geometric_tail(m, rate)},
    )


def deleted_tail_bound(mu, k, d, x, eps=1.0) -> AsymptoticBound:
    """Asymptotic bound on P[more than x of the survivors lie outside the
    largest component] after d uniform deletions.

    Sum of two geometric tails with rates (<K>-1) * eps/(1+eps) and
    (1-mu) * eps/(1+eps); requires x > (1+eps) * d / (<K>-1).
    """
    d, x = int(d), int(x)
    eps = float(eps)
    if not 0.0 < eps < inf:
        raise ParameterError("need 0 < eps < inf")
    if d < 0:
        raise ParameterError("deletion count must be nonnegative")
    if x < 1:
        raise ParameterError("need x >= 1")
    rate = mean_selections(mu, k) - 1.0
    threshold = (1.0 + eps) * d / rate
    # integer x meets a float threshold; pad the strict inequality so
    # rounding noise in the rate cannot admit a boundary value
    if x <= threshold * (1.0 + 1e-9):
        raise ParameterError(
            "deleted-graph tail bound requires x > (1+eps)*d/(<K>-1) "
            f"= {threshold:g}; got x = {x}"
        )
    scale = eps / (1.0 + eps)
    t_mean = _geometric_tail(x, rate * scale)
    t_heavy = _geometric_tail(x, (1.0 - float(mu)) * scale)
    return AsymptoticBound(
        value=t_mean + t_heavy,
        regime_notes=_ASYMPTOTIC_NOTES,
        inputs={"mu": float(mu), "K": int(k), "d": d, "x": x, "eps": eps},
        components={"mean_rate_tail": t_mean, "heavy_mass_tail": t_heavy},
    )


def deleted_tail_bound_alt(mu, d, x, eps=1.0) -> AsymptoticBound:
    """Single-tail variant of deleted_tail_bound under a stronger
    hypothesis: requires x > (1+eps) * d / (1-mu), and then only the
    (1-mu)-rate tail remains."""
    d, x = int(d), int(x)
    mu = float(mu)
    eps = float(eps)
    if not 0.0 < mu < 1.0:
        raise ParameterError("mu must lie strictly inside (0, 1)")
    if not 0.0 < eps < inf:
        raise ParameterError("need 0 < eps < inf")
    if d < 0:
        raise ParameterError("deletion count must be nonnegative")
    if x < 1:
        raise ParameterError("need x >= 1")
    threshold = (1.0 + eps) * d / (1.0 - mu)
    if x <= threshold * (1.0 + 1e-9):
        raise ParameterError(
            "single-tail deleted bound requires the stronger condition "
            f"x > (1+eps)*d/(1-mu) = {threshold:g}; got x = {x}"
        )
    scale = eps / (1.0 + eps)
    t_heavy = _geometric_tail(x, (1.0 - mu) * scale)
    return AsymptoticBound(
        value=t_heavy,
        regime_notes=_ASYMPTOTIC_NOTES,
        inputs={"mu": mu, "d": d, "x": x, "eps": eps},
        components={"heavy_mass_tail": t_heavy},
    )


def r_class_tail_bound(type_probs, type_selections, m) -> AsymptoticBound:
    """r-class analogue of tail_bound: rate (K_r - 1) * mu_r from the
    heaviest class alone.  With r = 2 this equals tail_bound because
    (K-1)(1-mu) = <K> - 1."""
    probs, sels = validate_type_distribution(type_probs, type_selections)
    m = int(m)
    if m < 1:
        raise ParameterError("need M >= 1")
    if sels[-1] < 2:
        raise ParameterError("heaviest class must select at least 2 nodes")
    rate = (sels[-1] - 1) * probs[-1]
    return AsymptoticBound(
        value=_geometric_tail(m, rate),
        regime_notes=_ASYMPTOTIC_NOTES,
        inputs={"type_probs": probs, "type_selections": sels, "M": m},
        components={"heaviest_class_tail": _geometric_tail(m, rate)},
    )


def heuristic_giant_lower_bound(n, mu, k, d) -> int:
    """Heuristic size floor for the largest component after d deletions:
    ceil(n - d - d/(<K>-1)), clamped at 0.

    Not a proved bound; each deleted node is imagined to strand at most
    1/(<K>-1) survivors.  The small slack inside ceil absorbs float
    noise so exact-integer inputs round predictably.
    """
    n, d = int(n), int(d)
    if not 0 <= d < n:
        raise ParameterError("need 0 <= d < n")
    rate = mean_selections(mu, k) - 1.0
    return max(0, ceil(n - d - d / rate - 1e-9))


def er_giant_fraction(c) -> float:
    """The unique beta in (0, 1] with beta + e^{-beta*c} = 1, for finite c > 1.

    This is the classical giant-component fraction of a random graph
    with mean degree c; beta = 0 always solves the equation, so the
    bisection bracket starts just above it.
    """
    c = float(c)
    if not 1.0 < c < inf:
        raise ParameterError("need 1 < c < inf; no positive solution exists for c <= 1")

    def f(b):
        return b + exp(-b * c) - 1.0

    lo, hi = 1e-12, 1.0
    # f'(0) = 1 - c < 0, so f(lo) < 0; f(1) = e^{-c} > 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    return 0.5 * (lo + hi)


def mean_degree(n, mu, k) -> float:
    """Expected degree of a node: 2<K> - <K>^2/(n-1).

    From P[two fixed nodes are adjacent] = 2<K>/(n-1) - (<K>/(n-1))^2
    (either selects the other, minus the double count).
    """
    n = int(n)
    kavg = mean_selections(mu, k)
    if int(k) >= n:
        raise ParameterError("need K < n")
    return 2.0 * kavg - kavg * kavg / (n - 1)
