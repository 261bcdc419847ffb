"""Closed-form values and inequalities for the second largest Pareto eigenvalue.

Each closed form is evaluated in floating point from its surd expression and
then self-checked against the quadratic it solves (residual <= 1e-9 scaled).
Bounds are never errors: when a graph is outside a bound's hypothesis the
result carries ``applicable=False`` with a reason string, so ``bound_report``
is total on connected graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import (
    Graph,
    _family_order,
    distance_matrix,
    diameter,
    make_family,
    wiener,
)
from .pareto import (DEFAULT_MAX_ORDER, ParetoSpectrum, _check_order, _check_rho2_order,
                     pareto_eigenpair, pareto_spectrum, rho2_fast)
from .spectral import _eigenvalues

__all__ = [
    "BoundResult",
    "BOUND_IDS",
    "CLOSED_FORM_IDS",
    "TIGHT_TOL",
    "closed_form",
    "closed_form_surd",
    "closed_form_brute_force",
    "star_spectrum",
    "evaluate_bound",
    "bound_report",
]

TIGHT_TOL = 1e-8
_SELF_CHECK_TOL = 1e-9


@dataclass(frozen=True, kw_only=True)
class BoundResult:
    """Outcome of evaluating one inequality on one graph.

    ``slack`` is actual - bound for lower bounds and bound - actual for upper
    bounds, so nonnegative slack means the inequality holds.  ``k`` is set
    only for the per-k family ``rho_k_lower``.  The fields are scalars, in
    report column order: the CLI writes a row's fields in the order declared.
    """

    bound_id: str
    k: int | None = None
    direction: str  # "lower" | "upper"
    bound_value: float
    actual_value: float
    slack: float
    tight: bool
    applicable: bool
    reason: str = ""


def _row(bound_id: str, direction: str, bound_value: float = math.nan,
         actual_value: float = math.nan, k: int | None = None, reason: str = "") -> BoundResult:
    """One report row; a ``reason`` makes it inapplicable, its numbers ``math.nan``
    itself (the one object, so two reports of one graph compare equal)."""
    slack = math.nan if reason else (
        actual_value - bound_value if direction == "lower" else bound_value - actual_value)
    return BoundResult(bound_id=bound_id, k=k, direction=direction, bound_value=bound_value,
                       actual_value=actual_value, slack=slack, tight=abs(slack) <= TIGHT_TOL,
                       applicable=not reason, reason=reason)


# ---------------------------------------------------------------------------
# Closed forms
#
# Each scalar form is a surd (a + sqrt(b)) / c.  Its builder checks the
# validity range and returns the integers (a, b, c); the value is self-checked
# against the quadratic that surd solves, x^2 - (2a/c)x - (b - a^2)/c^2 = 0.
# The complete graph's spectrum is the one list-valued form: its builder
# returns the integer eigenvalues.


def _star_radius(n: int) -> tuple[int, int, int]:
    if n < 2:
        raise ValueError("star radius needs n >= 2")
    return n - 2, (n - 2) ** 2 + n - 1, 1


def _kn_minus_matching(name: str, j: int, deleted: int):
    """The builder of ``name``: rho(K_m - jK2), j disjoint missing edges, at
    m = n - ``deleted``, from the equitable quotient [[2j, m - 2j], [2j, m - 2j - 1]]
    (README, "Closed forms").  ``deleted`` = 1 gives rho2(K_n - jK2), the deletion
    of a vertex on no missing edge, so n >= 2j + 1 (K_4 - 2K2 is C4, off the surd)."""
    low = max(3, 2 * j + deleted)

    def build(n: int) -> tuple[int, int, int]:
        if n < low:
            raise ValueError(f"{name} needs n >= {low}")
        return n - deleted - 1, (n - deleted - 1) ** 2 + 8 * j, 2

    return build


def _rho2_kab(a: int, b: int) -> tuple[int, int, int]:
    # For a >= 2 the surd is the Perron root of the distance matrix of K_{a-1,b}.
    if not (1 <= a <= b):
        raise ValueError("rho2_kab needs 1 <= a <= b")
    return a + b - 3, a * a + b * b + b - a * b - 2 * a + 1, 1


def _rho2_k_pendant(n: int) -> tuple[int, int, int]:
    if n < 3:
        raise ValueError("rho2_k_pendant needs n >= 3")
    return n - 3, n * n + 10 * n - 23, 2


def _complete_spectrum(n: int) -> list[int]:
    if n < 1:
        raise ValueError("complete_spectrum needs n >= 1")
    return list(range(n))


def _largest(g: Graph) -> float:
    return pareto_spectrum(g).values[-1]


def _second(g: Graph) -> float:
    return rho2_fast(g)[0]


# identifier -> (parameter count, surd builder, family name and parameters, enumerated quantity)
_CLOSED_FORMS = {
    "complete_spectrum": (1, _complete_spectrum, lambda n: ("complete", [n]),
                          lambda g: list(pareto_spectrum(g).values)),
    "star_radius": (1, _star_radius, lambda n: ("star", [n]), _largest),
    "kn_minus_e_radius": (1, _kn_minus_matching("kn_minus_e_radius", 1, 0),
                          lambda n: ("complete_minus_edge", [n]), _largest),
    "rho2_kn_minus_e": (1, _kn_minus_matching("rho2_kn_minus_e", 1, 1),
                        lambda n: ("complete_minus_edge", [n]), _second),
    "rho2_kab": (2, _rho2_kab, lambda a, b: ("complete_bipartite", [a, b]), _second),
    "rho2_k_pendant": (1, _rho2_k_pendant,
                       lambda n: ("clique_plus_pendant_p", [n - 1, 1]), _second),
    "rho2_two_nonincident": (1, _kn_minus_matching("rho2_two_nonincident", 2, 1),
                             lambda n: ("complete_minus_two_nonincident_edges", [n]),
                             _second),
}

CLOSED_FORM_IDS = tuple(_CLOSED_FORMS)


def _form(identifier: str, params: tuple[int, ...]):
    if identifier not in _CLOSED_FORMS:
        raise ValueError(f"unknown closed form {identifier!r}")
    form = _CLOSED_FORMS[identifier]
    if len(params) != form[0]:
        raise ValueError(
            f"closed form {identifier!r} takes {form[0]} parameter(s), got {len(params)}"
        )
    return form


def _surd(identifier: str, params: tuple[int, ...]):
    """The builder's output: (a, b, c) of (a + sqrt(b)) / c, or a list of integers."""
    return _form(identifier, params)[1](*params)


def closed_form(identifier: str, *params: int):
    """Evaluate a named closed form; returns a float (or list for spectra)."""
    surd = _surd(identifier, params)
    if isinstance(surd, list):
        return [float(v) for v in surd]
    a, b, c = surd
    value = (a + math.sqrt(b)) / c
    residual = value * value - 2 * a / c * value - (b - a * a) / (c * c)
    if abs(residual) > _SELF_CHECK_TOL * max(1.0, value * value):
        raise AssertionError(f"closed form residual {residual:.3e} too large")
    return value


def closed_form_surd(identifier: str, *params: int) -> str:
    """Exact surd expression as a display string."""
    surd = _surd(identifier, params)
    if isinstance(surd, list):
        return "{" + ", ".join(str(v) for v in surd) + "}"
    a, b, c = surd
    return f"{a}+sqrt({b})" if c == 1 else f"({a}+sqrt({b}))/{c}"


def _form_instance(identifier: str, params: tuple[int, ...]):
    """The family name and parameters of a form's instance, and the quantity
    enumerated on it.  Above the ``pareto_spectrum`` cap, a form that enumerates
    the spectrum raises CapExceededError, and so does a ``rho2_*`` form above the
    ``rho2`` command's cap; nothing is built or evaluated."""
    _, _, family, quantity = _form(identifier, params)
    name, family_params = family(*params)
    check = _check_rho2_order if quantity is _second else _check_order
    check(_family_order(name, family_params))
    return name, family_params, quantity


def closed_form_brute_force(identifier: str, *params: int):
    """Independent enumeration-based value for the same family instance.  Above
    its cap (``_form_instance``) a form raises CapExceededError before the
    instance is built."""
    name, family_params, quantity = _form_instance(identifier, params)
    return quantity(make_family(name, family_params))


def star_spectrum(n: int) -> list[float]:
    """All 2(n-1) Pareto eigenvalues of the star S_n, ascending.

    The distinct principal submatrices of the star's distance matrix at each
    order k in 2..n-1 are the star distance matrix of order k and 2(J_k - I_k);
    their Perron roots interleave, giving 0, then star radii and the even
    integers 2(k-1) alternating, topped by the order-n star radius.
    """
    if n < 2:
        raise ValueError("star_spectrum needs n >= 2")
    values = [0.0]
    for k in range(2, n):
        values.append(closed_form("star_radius", k))
        values.append(2.0 * (k - 1))
    values.append(closed_form("star_radius", n))
    return values


# ---------------------------------------------------------------------------
# Bounds


class _BoundContext:
    """Caches the per-graph quantities shared by several bounds."""

    def __init__(self, g: Graph):
        self.g = g
        self.n = g.n

    @cached_property
    def d(self) -> np.ndarray:
        return distance_matrix(self.g)

    @cached_property
    def diam(self) -> int:
        return diameter(self.d)

    @cached_property
    def spectrum(self) -> ParetoSpectrum:
        return pareto_spectrum(self.g)

    @cached_property
    def rho2_pair(self) -> tuple[float, int]:
        return rho2_fast(self.g)

    @cached_property
    def lambda2(self) -> float:
        return float(_eigenvalues(self.d)[-2])

    @cached_property
    def transmissions(self) -> list[int]:
        return self.d.sum(axis=1).tolist()

    @cached_property
    def rho2_vector(self) -> np.ndarray:
        support = tuple(v for v in range(self.n) if v != self.rho2_pair[1])
        return pareto_eigenpair(self.g, support).vector


def _second_component_bound(ctx: _BoundContext) -> float:
    """Upper bound on rho2 from the top two eigenvector components.

    Let x be the rho2 Pareto eigenvector, u its zero vertex, i its largest
    component and j a second-largest component.  The two eigenvalue equations
    at i and j give, for every valid j,

        rho2 <= (beta + sqrt(beta^2 + 4*gamma)) / 2,
        beta = T_j - d(i,j) - d(j,u),  gamma = d(i,j) * (T_i - d(i,u)).

    Ties for i break to the smallest label; tied j (within 1e-9 relative) are
    all evaluated and the minimum reported.  With i adjacent to u and j, a
    uniform tail (T_i = n-1) this reduces to
    (T_j - 2 + sqrt((T_j - 2)^2 + 4(n - 2))) / 2.
    """
    x = ctx.rho2_vector.tolist()
    u = ctx.rho2_pair[1]
    i = x.index(max(x))  # the first largest component
    di, t = ctx.d[i].tolist(), ctx.transmissions
    du = ctx.d[u].tolist()
    second = max(x[:i] + x[i + 1:])
    tied = [j for j, val in enumerate(x) if j != i and val >= second - 1e-9 * max(1.0, second)]
    bounds = []
    for j in tied:
        beta = t[j] - di[j] - du[j]
        gamma = di[j] * (t[i] - di[u])
        bounds.append((beta + math.sqrt(beta * beta + 4 * gamma)) / 2)
    return min(bounds)


# Hypotheses: each returns why its bound does not apply, or "" when it does.


def _always(ctx: _BoundContext) -> str:
    return ""


def _dominating(ctx: _BoundContext) -> str:
    return "" if max(ctx.g.degrees()) == ctx.n - 1 else "no vertex of degree n-1"


def _missing_edges(ctx: _BoundContext) -> int:
    return ctx.n * (ctx.n - 1) // 2 - ctx.g.size


def _noncomplete(ctx: _BoundContext) -> str:
    return "" if _missing_edges(ctx) else "graph is complete"


def _two_edges_missing(ctx: _BoundContext) -> str:
    if _missing_edges(ctx) <= 1:
        return "graph is K_n or K_n minus an edge"
    return "closed form valid only for n >= 5" if ctx.n < 5 else ""


def _tmin_bound(ctx: _BoundContext) -> float:
    a = min(ctx.transmissions) - 2 * ctx.diam
    return (a + math.sqrt(a * a + 4 * (ctx.n - ctx.diam - 1))) / 2


def _bipartite(ctx: _BoundContext) -> str:
    # A connected graph is bipartite exactly when every d(u, v) has the parity
    # of d(0, u) + d(0, v): the parity of d(0, .) is then a proper 2-colouring,
    # and a graph with an odd cycle has an edge uv with d(0, u) = d(0, v).
    d = ctx.d
    return "graph is not bipartite" if ((d + d[0][:, None] + d[0]) % 2).any() else ""


def _bipartite_bound(ctx: _BoundContext) -> float:
    n, a = ctx.n, ctx.n // 2
    return n - 3 + math.sqrt(n * n + n + 1 + 3 * a * (a - n - 1))


# bound id -> (direction, hypothesis, bound value), in report order; every row
# bounds rho2.  Rows call package functions through their module-global names,
# never a stored function object, so rebinding a name reaches every row.
_RHO2_BOUNDS = {
    "rho2_bipartite_lower": (
        "lower", _bipartite, _bipartite_bound),
    "rho2_diam2_upper": (
        "upper", lambda ctx: "" if ctx.diam == 2 else f"diameter is {ctx.diam}, not 2",
        lambda ctx: float(2 * (ctx.n - 2))),
    "rho2_dominating_lower": ("lower", _dominating, lambda ctx: float(ctx.n - 2)),
    "rho2_dominating_upper": ("upper", _dominating, lambda ctx: float(2 * (ctx.n - 2))),
    "rho2_noncomplete_lower": (
        "lower", _noncomplete, lambda ctx: closed_form("rho2_kn_minus_e", ctx.n)),
    "rho2_second_component_upper": (
        "upper", lambda ctx: "needs n >= 3 (two positive components)" if ctx.n < 3 else "",
        _second_component_bound),
    "rho2_simple_lower": ("lower", _noncomplete, lambda ctx: ctx.n - 2 + 2.0 / (ctx.n - 1)),
    "rho2_tmin_lower": ("lower", _always, _tmin_bound),
    "rho2_two_edges_lower": (
        "lower", _two_edges_missing, lambda ctx: closed_form("rho2_two_nonincident", ctx.n)),
    "rho2_vs_lambda2": ("lower", _always, lambda ctx: ctx.lambda2),
    "rho2_wiener_lower": (
        "lower", _always,
        lambda ctx: 2.0 * (wiener(ctx.d) - min(ctx.transmissions)) / (ctx.n - 1)),
}

BOUND_IDS = ("count_lower", *_RHO2_BOUNDS, "rho_k_lower")


def _evaluate(ctx: _BoundContext, bound_id: str, k: int | None = None) -> BoundResult:
    n = ctx.n

    if bound_id in _RHO2_BOUNDS:
        direction, hypothesis, bound = _RHO2_BOUNDS[bound_id]
        reason = "order < 2" if n < 2 else hypothesis(ctx)
        if reason:
            return _row(bound_id, direction, reason=reason)
        return _row(bound_id, direction, bound(ctx), ctx.rho2_pair[0])

    if bound_id == "count_lower":
        k = None  # only the per-k family carries k
    elif bound_id != "rho_k_lower":
        raise ValueError(f"unknown bound id {bound_id!r}")
    elif k is None:
        raise ValueError("rho_k_lower requires k")
    elif not (isinstance(k, (int, np.integer)) and not isinstance(k, bool) and k >= 1):
        raise ValueError(f"rho_k_lower needs an integer k >= 1, got {k!r}")
    return _spectrum_row(ctx, bound_id, k)


def _spectrum_row(ctx: _BoundContext, bound_id: str, k: int | None) -> BoundResult:
    """The row of count_lower (k None) or of rho_k_lower at an integer k >= 1."""
    n = ctx.n
    if n > DEFAULT_MAX_ORDER:
        reason = f"needs the full spectrum, enumerated only for n <= {DEFAULT_MAX_ORDER}"
        return _row(bound_id, "lower", k=k, reason=reason)
    if k is None:
        return _row(bound_id, "lower", float(n + ctx.diam - 1), float(ctx.spectrum.count))
    if k > ctx.spectrum.count:
        return _row(bound_id, "lower", k=k, reason=f"k={k} exceeds spectrum size")
    return _row(bound_id, "lower", float(n - k), ctx.spectrum.rho_k(k), k=k)


def evaluate_bound(bound_id: str, g: Graph, k: int | None = None) -> BoundResult:
    """Evaluate one bound on one connected graph (never errors on hypothesis)."""
    return _evaluate(_BoundContext(g), bound_id, k=k)


def bound_report(g: Graph) -> list[BoundResult]:
    """Every bound evaluated on ``g``; rho_k_lower expands over k = 1..n.

    Results are ordered by (bound_id, k) so reports are deterministic:
    ``BOUND_IDS`` is sorted and rho_k_lower comes last.  count_lower, first,
    enumerates the spectrum at n <= ``DEFAULT_MAX_ORDER``, which keeps rho2 on
    ``g``, so the rho2 rows read it without screening.
    """
    ctx = _BoundContext(g)
    results = [_evaluate(ctx, bound_id) for bound_id in BOUND_IDS[:-1]]
    results += [_spectrum_row(ctx, "rho_k_lower", k) for k in range(1, g.n + 1)]
    return results
