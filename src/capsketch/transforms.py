"""Transforms connecting frequency statistics to distinct-count measurements.

A concave sublinear statistic f(W) = sum_x f(w_x) is handled through two
decompositions:

* a nonnegative coefficient function a(t) with
  f(w) = integral a(t) (1 - exp(-w t)) dt, so f(W) is a weighted combination
  of transform values of the frequency distribution, and
* a capping decomposition f(x) = A_inf * x + integral a(t) min(t, x) dt for
  statistics that need a signed approximation.

Coefficient functions are represented symbolically (Dirac deltas plus named
continuous families) with closed-form tail integrals ``int_tau^inf a`` and
head integrals ``int_0^tau t a(t) dt``, which is what the element mappers need
per draw; nothing in the hot path does quadrature. Only the quadrature
fallbacks of ``lapm`` need scipy, which they import when called.

Continuous families compute on float64 arrays; the public functions and
methods also take a scalar and return a float for it. Each statistic is
defined once, by its descriptor form and pointwise f in ``_STATISTICS``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import factorial, gamma
from typing import Callable

import numpy as np

from .core import IllPosedTransformError, UnsupportedStatisticError

__all__ = [
    "StatisticSpec",
    "parse_statistic",
    "laplace_c",
    "CoefficientFunction",
    "SignedCoefficientFunction",
    "CappingTransform",
    "inverse_transform",
    "capping_transform",
    "cap1_approximation",
    "lift_cap1_to_f",
    "measured_function",
    "rho_estimate",
    "relative_error_to",
    "THREE_POINT_TIGHT",
    "THREE_POINT_STABLE",
    "DEFAULT_RHO_GRID",
    "CAP1_ERROR_GRID",
]

DEFAULT_RHO_GRID = np.logspace(-4, 4, 200)
CAP1_ERROR_GRID = np.logspace(-3, 3, 200)


# ---------------------------------------------------------------------------
# statistic descriptors

# name -> (descriptor form with one {field} per parameter, or None where no
# descriptor names the statistic; pointwise f(params, w) on float64 arrays)
_STATISTICS = {
    "cap": ("capT={T}", lambda q, w: np.minimum(q["T"], w)),
    "softcap": ("softcapT={T}", lambda q, w: q["T"] * -np.expm1(-w / q["T"])),
    "moment": ("moment={p}", lambda q, w: w ** q["p"]),
    "sqrt": ("sqrt", lambda q, w: np.sqrt(w)),
    "log1p": ("log1p", lambda q, w: np.log1p(w)),
    "clipped_moment": (None, lambda q, w: np.minimum(w, w ** q["p"])),
    "distinct": ("distinct", lambda q, w: (w > 0).astype(np.float64)),
    "sum": ("sum", lambda q, w: w.copy()),
    "cap1approx": ("cap1approx=A:{A},b1:{b1},b2:{b2}", lambda q, w: np.minimum(1.0, w)),
}

# each form as a pattern whose named groups take one comma-free parameter each
_PATTERNS = {
    name: re.compile(re.sub(r"\\\{(\w+)\\\}", r"(?P<\1>[^,]+)", re.escape(form)))
    for name, (form, _) in _STATISTICS.items()
    if form is not None
}


@dataclass(frozen=True)
class StatisticSpec:
    """A named statistic with parameters, e.g. cap(T) or moment(p)."""

    name: str
    params: dict[str, float] = field(default_factory=dict)

    def evaluate(self, w):
        """Pointwise f(w); accepts floats or numpy arrays. f(0) = 0 throughout."""
        if self.name not in _STATISTICS:
            raise UnsupportedStatisticError(f"cannot evaluate statistic {self.name!r}")
        out = _STATISTICS[self.name][1](self.params, np.asarray(w, dtype=np.float64))
        return out if out.ndim else float(out)

    def descriptor(self) -> str:
        """Canonical descriptor string (inverse of :func:`parse_statistic`)."""
        form = _STATISTICS.get(self.name, (None,))[0] or self.name
        return form.format(**{key: _number(v) for key, v in self.params.items()})


def _number(v: float) -> str:
    """``%g`` of ``v`` when that reads back exactly, else its exact repr."""
    short = f"{v:g}"
    return short if float(short) == v else repr(float(v))


def parse_statistic(text: str) -> StatisticSpec:
    """Parse a statistic descriptor.

    Supported: ``capT=5``, ``softcapT=5``, ``moment=0.5``, ``sqrt``, ``log1p``,
    ``distinct``, ``sum``, ``cap1approx=A:1.5,b1:0.6,b2:7.97``. Every
    parameter is positive and finite.
    """
    text = text.strip()
    for name, pattern in _PATTERNS.items():
        if m := pattern.fullmatch(text):
            break
    else:
        raise UnsupportedStatisticError(f"unrecognized statistic descriptor {text!r}")
    params = {key: _positive(v, f"{name} {key}") for key, v in m.groupdict().items()}
    if name == "moment" and not params["p"] < 1.0:
        raise UnsupportedStatisticError(f"moment exponent must be in (0,1), got {params['p']}")
    if name == "cap1approx" and not params["b1"] < 1.0 < params["b2"]:
        raise UnsupportedStatisticError(f"cap1approx needs b1 < 1 < b2, got b1={params['b1']} b2={params['b2']}")
    return StatisticSpec(name, params)


def _positive(s: str, what: str) -> float:
    try:
        v = float(s)
    except ValueError:
        raise UnsupportedStatisticError(f"bad {what} parameter {s!r}") from None
    if not 0.0 < v < float("inf"):
        raise UnsupportedStatisticError(f"{what} parameter must be positive and finite, got {v}")
    return v


# ---------------------------------------------------------------------------
# basic statistics of a frequency distribution


def laplace_c(dist, t):
    """Distinct count minus the Laplace transform of the weight histogram.

    Returns sum_w W(w) (1 - exp(-w t)); nondecreasing in t, approaching
    t * SUM(W) for small t and the distinct count for large t.
    """
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr < 0.0):
        raise ValueError("transform argument t must be >= 0")
    ws, cs = dist.arrays()
    if ws.size == 0:
        return np.zeros_like(t_arr) if t_arr.ndim else 0.0
    out = -(cs[None, :] * np.expm1(-np.outer(np.atleast_1d(t_arr), ws))).sum(axis=1)
    return out.reshape(t_arr.shape) if t_arr.ndim else float(out[0])


# ---------------------------------------------------------------------------
# continuous coefficient families

_QUAD_OPTS = dict(limit=400, epsabs=1e-12, epsrel=1e-10)

_EULER_GAMMA = 0.5772156649015329
# E1(x) = -gamma - ln x + x * sum_n (-x)^n / ((n+1) (n+1)!); the sum's first
# 25 coefficients, highest power first, for Horner's rule
_E1_SERIES = [(-1) ** n / ((n + 1) * factorial(n + 1)) for n in range(24, -1, -1)]


def _exp1(x: np.ndarray) -> np.ndarray:
    """Exponential integral E1(x) for x > 0: the power series up to 1.5, a
    continued fraction of fixed depth evaluated backward above (Abramowitz
    and Stegun 5.1.11 and 5.1.22). Within 3e-15 relative of
    ``scipy.special.exp1`` on [1e-300, 700]."""
    flat = x.reshape(-1)
    out = np.empty_like(flat)
    small = flat <= 1.5
    if small.any():
        s = flat[small]
        acc = np.zeros_like(s)
        for c in _E1_SERIES:
            acc *= s
            acc += c
        out[small] = s * acc - np.log(s) - _EULER_GAMMA
    if not small.all():
        h = flat[~small]
        t = np.zeros_like(h)
        for k in range(64, 0, -1):  # t <- k / (1 + k / (h + t))
            t += h
            np.divide(k, t, out=t)
            t += 1.0
            np.divide(k, t, out=t)
        out[~small] = np.exp(-h) / (h + t)
    return out.reshape(x.shape)


def _quad_each(integrand: Callable, w: np.ndarray) -> np.ndarray:
    """int_0^inf integrand(t, x) dt for each x of ``w``, and 0 where x = 0; needs scipy."""
    from scipy import integrate

    out = np.zeros_like(w)
    for i, x in np.ndenumerate(w):
        if x != 0.0:
            out[i] = integrate.quad(integrand, 0.0, np.inf, args=(x,), **_QUAD_OPTS)[0]
    return out


def _check_exponent(p: float) -> None:
    if not 0.0 < p < 1.0:
        raise ValueError(f"moment exponent must be in (0,1), got {p}")


class ContinuousFamily:
    """A nonnegative density a(t) with closed-form tail and head integrals, on float64 arrays."""

    def density(self, t):
        raise NotImplementedError

    def tail(self, tau):
        """int_tau^inf a(t) dt (may be +inf at tau=0 for divergent families)."""
        raise NotImplementedError

    def head(self, tau):
        """int_0^tau t a(t) dt."""
        raise NotImplementedError

    def lapm(self, w):
        """int_0^inf a(t) (1 - exp(-w t)) dt; quadrature fallback, which needs scipy."""
        return _quad_each(lambda t, x: self.density(t) * -np.expm1(-x * t), w)


@dataclass(frozen=True)
class MomentDensity(ContinuousFamily):
    """Inverse transform of w^p: a(t) = p / Gamma(1-p) * t^(-1-p)."""

    p: float

    def __post_init__(self):
        _check_exponent(self.p)

    def density(self, t):
        return self.p / gamma(1.0 - self.p) * t ** (-1.0 - self.p)

    def tail(self, tau):
        with np.errstate(divide="ignore"):
            return 1.0 / (tau**self.p * gamma(1.0 - self.p))

    def head(self, tau):
        return self.p * tau ** (1.0 - self.p) / ((1.0 - self.p) * gamma(1.0 - self.p))

    def lapm(self, w):
        return w**self.p


@dataclass(frozen=True)
class ReciprocalExpDensity(ContinuousFamily):
    """Inverse transform of log(1+w): a(t) = exp(-t)/t.

    The tail integral is the exponential integral E1(tau).
    """

    def density(self, t):
        return np.exp(-t) / t

    def tail(self, tau):
        return np.where(tau == 0.0, np.inf, _exp1(np.maximum(tau, 1e-300)))

    def head(self, tau):
        return -np.expm1(-tau)

    def lapm(self, w):
        return np.log1p(w)


@dataclass(frozen=True)
class ExpDensity(ContinuousFamily):
    """Capping coefficient of soft capping at scale T: a(t) = exp(-t/T)/T."""

    T: float

    def __post_init__(self):
        if not self.T > 0.0:
            raise ValueError(f"scale T must be > 0, got {self.T}")

    def density(self, t):
        return np.exp(-t / self.T) / self.T

    def tail(self, tau):
        return np.exp(-tau / self.T)

    def head(self, tau):
        x = tau / self.T
        with np.errstate(invalid="ignore"):
            return self.T * -np.expm1(-x) - np.where(np.isinf(tau), 0.0, tau * np.exp(-x))

    def lapm(self, w):
        return w * self.T / (1.0 + w * self.T)


@dataclass(frozen=True)
class InverseSquareDensity(ContinuousFamily):
    """Capping coefficient of log(1+w): a(t) = 1 / (1+t)^2."""

    def density(self, t):
        return 1.0 / (1.0 + t) ** 2

    def tail(self, tau):
        return 1.0 / (1.0 + tau)

    def head(self, tau):
        return np.log1p(tau) - np.where(np.isinf(tau), 1.0, tau / (1.0 + tau))


@dataclass(frozen=True)
class PowerTailAboveOne(ContinuousFamily):
    """Continuous part of the capping coefficient of min(w, w^p):
    a(t) = p(1-p) t^(p-2) for t > 1, zero below."""

    p: float

    def __post_init__(self):
        _check_exponent(self.p)

    def density(self, t):
        return np.where(t > 1.0, self.p * (1.0 - self.p) * t ** (self.p - 2.0), 0.0)

    def tail(self, tau):
        return self.p * np.maximum(tau, 1.0) ** (self.p - 1.0)

    def head(self, tau):
        return np.where(tau <= 1.0, 0.0, (1.0 - self.p) * (np.maximum(tau, 1.0) ** self.p - 1.0))


@dataclass(frozen=True)
class LiftedDensity(ContinuousFamily):
    """A continuous capping coefficient composed with one approximation point.

    For a base capping density a(T) and a point mass m at location s of an
    approximate cap_1 coefficient, the composed density in x is
    m s^2 a(s/x) / x^3. Substituting T = s/x gives the dual identities

        tail(tau) = m * int_0^{s/tau} T a(T) dT = m * base.head(s/tau)
        head(tau) = m * s * int_{s/tau}^inf a(T) dT = m * s * base.tail(s/tau)

    so both sides stay closed-form whenever the base family is.
    """

    base: ContinuousFamily
    s: float
    m: float

    def __post_init__(self):
        if not (self.s > 0.0 and self.m > 0.0):
            raise ValueError("lifted point mass needs s > 0 and m > 0")

    def density(self, x):
        return self.m * self.s**2 * self.base.density(self.s / x) / x**3

    def _dual(self, tau):
        """s / tau, with s / 0 = inf."""
        with np.errstate(divide="ignore"):
            return np.where(tau == 0.0, np.inf, self.s / np.maximum(tau, 1e-300))

    def tail(self, tau):
        return self.m * self.base.head(self._dual(tau))

    def head(self, tau):
        return self.m * self.s * self.base.tail(self._dual(tau))

    def lapm(self, w):
        """Quadrature in T = s / x, which needs scipy."""
        return self.m * _quad_each(lambda T, x: self.base.density(T) * T * -np.expm1(-x * self.s / T), w)


# ---------------------------------------------------------------------------
# coefficient functions


@dataclass(frozen=True)
class CoefficientFunction:
    """Nonnegative a(t): Dirac deltas plus continuous families."""

    deltas: tuple[tuple[float, float], ...] = ()
    parts: tuple[ContinuousFamily, ...] = ()

    def __post_init__(self):
        clean = []
        for loc, mass in self.deltas:
            loc, mass = float(loc), float(mass)
            if not (loc > 0.0 and np.isfinite(loc)):
                raise ValueError(f"delta location must be positive and finite, got {loc}")
            if mass < 0.0:
                raise ValueError(f"delta mass must be >= 0, got {mass}")
            if mass > 0.0:
                clean.append((loc, mass))
        clean.sort()
        object.__setattr__(self, "deltas", tuple(clean))
        object.__setattr__(self, "parts", tuple(self.parts))

    @property
    def is_discrete(self) -> bool:
        return not self.parts

    @property
    def is_empty(self) -> bool:
        return not self.deltas and not self.parts

    def tail(self, tau):
        """int_tau^inf a(t) dt, with delta mass at tau included."""
        tau_arr = np.asarray(tau, dtype=np.float64)
        out = np.zeros_like(tau_arr, dtype=np.float64)
        for loc, mass in self.deltas:
            out = out + mass * (loc >= tau_arr)
        for part in self.parts:
            out = out + part.tail(tau_arr)
        return out if out.ndim else float(out)

    def head(self, tau):
        """int_0^tau t a(t) dt, with delta mass at tau included."""
        tau_arr = np.asarray(tau, dtype=np.float64)
        out = np.zeros_like(tau_arr, dtype=np.float64)
        for loc, mass in self.deltas:
            out = out + loc * mass * (loc <= tau_arr)
        for part in self.parts:
            out = out + part.head(tau_arr)
        return out if out.ndim else float(out)

    def lapm(self, w):
        """int a(t) (1 - exp(-w t)) dt."""
        w_arr = np.asarray(w, dtype=np.float64)
        out = np.zeros_like(w_arr, dtype=np.float64)
        for loc, mass in self.deltas:
            out = out - mass * np.expm1(-w_arr * loc)
        for part in self.parts:
            out = out + part.lapm(w_arr)
        return out if out.ndim else float(out)


def inverse_transform(spec: StatisticSpec | str) -> CoefficientFunction:
    """Coefficient function a(t) with f(w) = int a(t)(1 - exp(-wt)) dt.

    Exact closed forms exist for soft capping, moments with p in (0,1),
    sqrt and log1p; other statistics have no nonnegative inverse.
    """
    if isinstance(spec, str):
        spec = parse_statistic(spec)
    n = spec.name
    if n == "softcap":
        T = spec.params["T"]
        if not 1.0 / T < np.inf:
            raise UnsupportedStatisticError(f"soft capping scale {T!r} has no finite reciprocal")
        return CoefficientFunction(deltas=((1.0 / T, T),))
    if n == "moment":
        return CoefficientFunction(parts=(MomentDensity(spec.params["p"]),))
    if n == "sqrt":
        return CoefficientFunction(parts=(MomentDensity(0.5),))
    if n == "log1p":
        return CoefficientFunction(parts=(ReciprocalExpDensity(),))
    raise UnsupportedStatisticError(f"statistic {n!r} has no nonnegative inverse transform")


# ---------------------------------------------------------------------------
# hard capping span


@dataclass(frozen=True)
class CappingTransform:
    """Decomposition f(x) = a_inf * x + int a(t) min(t, x) dt."""

    a_inf: float
    coef: CoefficientFunction

    def __post_init__(self):
        if self.a_inf < 0.0:
            raise ValueError(f"linear coefficient must be >= 0, got {self.a_inf}")

    def reconstruct(self, w):
        """Evaluate the decomposition; equals f(w) for a valid transform."""
        w_arr = np.asarray(w, dtype=np.float64)
        out = self.a_inf * w_arr + self.coef.head(w_arr) + w_arr * self.coef.tail(w_arr)
        # head and tail both include an atom sitting exactly at w; min(t, w)
        # counts it once
        for loc, mass in self.coef.deltas:
            out = out - loc * mass * (w_arr == loc)
        return out if out.ndim else float(out)

    @property
    def slope_at_zero(self) -> float:
        """a_inf + total coefficient mass; equals the right derivative of f at 0."""
        return self.a_inf + float(self.coef.tail(0.0))


def capping_transform(spec: StatisticSpec | str) -> CappingTransform:
    """Capping decomposition of a supported concave sublinear statistic."""
    if isinstance(spec, str):
        spec = parse_statistic(spec)
    n = spec.name
    if n == "cap":
        return CappingTransform(0.0, CoefficientFunction(deltas=((spec.params["T"], 1.0),)))
    if n == "sum":
        return CappingTransform(1.0, CoefficientFunction())
    if n == "clipped_moment":
        p = spec.params["p"]
        return CappingTransform(
            0.0,
            CoefficientFunction(deltas=((1.0, 1.0 - p),), parts=(PowerTailAboveOne(p),)),
        )
    if n == "softcap":
        return CappingTransform(0.0, CoefficientFunction(parts=(ExpDensity(spec.params["T"]),)))
    if n == "log1p":
        return CappingTransform(0.0, CoefficientFunction(parts=(InverseSquareDensity(),)))
    raise UnsupportedStatisticError(f"no capping transform for statistic {n!r}")


# ---------------------------------------------------------------------------
# signed approximate inverse transforms


@dataclass(frozen=True)
class SignedCoefficientFunction:
    """a = plus - minus, with point masses at disjoint locations, and its
    stability factor ``rho_bound``: how much component errors can amplify,
    certified on ``DEFAULT_RHO_GRID`` when the function is made, so an
    ill-posed pair raises ``IllPosedTransformError`` here."""

    plus: CoefficientFunction
    minus: CoefficientFunction
    rho_bound: float = field(init=False)

    def __post_init__(self):
        shared = {loc for loc, _ in self.plus.deltas} & {loc for loc, _ in self.minus.deltas}
        if shared:
            raise ValueError(f"plus and minus parts share delta locations {sorted(shared)}")
        object.__setattr__(self, "rho_bound", rho_estimate(self, DEFAULT_RHO_GRID))

    @property
    def is_discrete(self) -> bool:
        return self.plus.is_discrete and self.minus.is_discrete

    def lapm(self, w):
        """LapM of the plus side minus LapM of the minus side."""
        return self.plus.lapm(w) - self.minus.lapm(w)


def rho_estimate(a: SignedCoefficientFunction, w_grid) -> float:
    """Grid-certified stability factor max_w LapM[a+-](w) / LapM[a](w).

    The grid must be nonempty and span at least six decades.
    """
    grid = np.asarray(w_grid, dtype=np.float64)
    if grid.size == 0:
        raise ValueError("probe grid must be nonempty")
    if np.any(grid <= 0.0):
        raise ValueError("probe grid values must be positive")
    if grid.max() / grid.min() < 1e6:
        raise ValueError("probe grid must span at least six decades")
    with np.errstate(all="ignore"):  # a non-finite result is rejected below
        plus = np.asarray(a.plus.lapm(grid), dtype=np.float64)
        minus = np.asarray(a.minus.lapm(grid), dtype=np.float64)
        total = plus - minus
        ratio = np.maximum(plus, minus) / total
    if np.any(total <= 0.0):
        raise IllPosedTransformError("signed transform is non-positive on the probe grid")
    if not np.isfinite(ratio).all():  # so is every plus, minus and total once total > 0
        raise IllPosedTransformError("signed transform is not finite on the probe grid")
    return float(max(1.0, ratio.max()))


def relative_error_to(a: SignedCoefficientFunction, f: Callable, w_grid) -> float:
    """max over the grid of |LapM[a](w) - f(w)| / f(w)."""
    grid = np.asarray(w_grid, dtype=np.float64)
    target = np.asarray(f(grid), dtype=np.float64)
    approx = np.asarray(a.lapm(grid), dtype=np.float64)
    return float(np.max(np.abs(approx - target) / target))


# Hard-coded three-point parameter sets: "tight" trades stability for the
# smallest worst-case error, "stable" keeps the amplification factor low.
THREE_POINT_TIGHT = {"A": 10.0, "b1": 0.9, "b2": 3.75}
THREE_POINT_STABLE = {"A": 1.5, "b1": 0.6, "b2": 7.97}


def cap1_approximation(A: float, b1: float, b2: float) -> SignedCoefficientFunction:
    """Three-point signed approximate inverse transform of min(1, w): masses
    (A+1, -a1, -a2) at (1, b1, b2), chosen so the approximation is exact to
    first order at both ends: a1 = A(b2-1)/(b2-b1), a2 = A(1-b1)/(b2-b1).
    """
    if not (0.0 < b1 < 1.0 < b2):
        raise ValueError(f"cap1_approximation needs 0 < b1 < 1 < b2, got b1={b1} b2={b2}")
    if not A > 0.0:
        raise ValueError(f"cap1_approximation needs A > 0, got {A}")
    a1 = A * (b2 - 1.0) / (b2 - b1)
    a2 = A * (1.0 - b1) / (b2 - b1)
    plus = CoefficientFunction(deltas=((1.0, A + 1.0),))
    minus = CoefficientFunction(deltas=((b1, a1), (b2, a2)))
    return SignedCoefficientFunction(plus, minus)


def _lift_side(side: CoefficientFunction, ct: CappingTransform) -> CoefficientFunction:
    deltas: dict[float, float] = {}
    parts: list[ContinuousFamily] = []
    for s, m in side.deltas:
        for loc, mass in ct.coef.deltas:
            # point mass M at capping scale T composes to mass M*T*m at s/T
            pos = s / loc
            deltas[pos] = deltas.get(pos, 0.0) + mass * loc * m
            if not (np.isfinite(pos) and np.isfinite(deltas[pos])):
                raise UnsupportedStatisticError(f"capping scale {loc!r} lifts to a point mass out of float range")
        for base in ct.coef.parts:
            parts.append(LiftedDensity(base, s, m))
    return CoefficientFunction(tuple(deltas.items()), tuple(parts))


def lift_cap1_to_f(ct: CappingTransform, alpha: SignedCoefficientFunction) -> SignedCoefficientFunction:
    """Extend a signed cap_1 approximation through a capping decomposition.

    Each point mass of ``alpha`` is rescaled against every component of the
    capping coefficient; the result approximates f with relative error no
    worse than the cap_1 approximation's, and no larger stability factor.
    """
    if not alpha.is_discrete:
        raise UnsupportedStatisticError("lifting supports discrete cap_1 approximations only")
    if ct.a_inf != 0.0:
        raise UnsupportedStatisticError(
            "statistics with a linear component should estimate that part by the exact sum"
        )
    return SignedCoefficientFunction(_lift_side(alpha.plus, ct), _lift_side(alpha.minus, ct))


def measured_function(spec: StatisticSpec | str) -> CoefficientFunction | SignedCoefficientFunction:
    """The coefficient function a sketch measures for ``spec``: its nonnegative
    inverse transform, ``cap1approx``'s three-point function as given, or for
    ``capT`` the stable three-point function lifted through the capping transform."""
    spec = parse_statistic(spec) if isinstance(spec, str) else spec
    if spec.name == "cap1approx":
        return cap1_approximation(**spec.params)
    if spec.name == "cap":
        return lift_cap1_to_f(capping_transform(spec), cap1_approximation(**THREE_POINT_STABLE))
    return inverse_transform(spec)
