"""Canonical fusion bialgebras and their Fourier analysis.

A fusion ring/algebra spans two C*-algebras on one basis {x_1, ..., x_m}:

* side A: commutative, pointwise product x_j <> x_k = delta_jk d_j^{-1} x_j,
  trace d with d(x_j) = d_j (the FP dimensions);
* side B: the fusion product x_j x_k = sum_s N[j,k,s] x_s, trace tau
  reading off the unit coefficient.

The Fourier transform F is the identity on coefficients with a side
retag; it is unitary for the 2-norms (Plancherel).  This module holds
element arithmetic on both sides, p-norms, supports, entropies, the
uncertainty-principle and Young-inequality checkers, the rank-2/3
parametrized families, and the rank-3 dual Schur test that yields the
counterexample to the Schur product property on the dual.

Elements are coefficient vectors over the shared basis tagged with the
side that interprets them.

Norms, supports and entropies on side B are spectral: they need the
singular values of left multiplication by x and the tau-weights of its
spectral projections.  On a commutative ring the characters diagonalize
side B, so x = sum_j c_j x_j acts as chi_t(x) = sum_j c_j lambda_jt on
the dual minimal projection P_t, whose trace is
tau(P_t) = 1 / sum_j |lambda_jt|^2: the moduli are |chi_t(x)|, read off
the character table, which every ring keeps once computed.  On the 52
corpus rings they agree with an SVD of the matrix X of x to
2.7e-14 (1 + ||X||_2).  A noncommutative ring, or a commutative one whose
table raises, takes that SVD itself: the singular values of X, weighted by
the tau of its right singular vectors.  A singular value that is 0 comes
out at rounding level there, where the square root of an eigenvalue of
X*X would be off by about 1e-8 ||X||_2, the size of ``SUPPORT_RTOL``.
The inequality suite's targeted dual-Young probes depend on the ring
alone, so every ring keeps their slacks once its first suite took them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import criteria, spectral
from .errors import (
    BadExponent,
    DegenerateSpectrum,
    InfeasibleParams,
    NormalizationFailure,
    NotCommutative,
    SideMismatch,
)
from .rings import FusionData, fp_dimensions, new_fusion_data, proper_subrings

__all__ = [
    "Element",
    "CanonicalBialgebra",
    "Rank3Type1Params",
    "Rank3DualData",
    "canonical_from_fusion_data",
    "rank2_family",
    "rank3_type1",
    "rank3_type2",
    "rank3_from_mnq",
    "rank3_dual_data",
    "rank3_dual_schur",
    "k_constant",
    "inequality_suite",
    "biprojections",
    "InequalitySuiteReport",
    "CheckResult",
]

SUPPORT_RTOL = 1e-8
#: a theorem-backed check fails when its slack is below -SLACK_TOL times its scale
SLACK_TOL = 1e-8


@dataclass(frozen=True)
class Element:
    """A coefficient vector over the basis, tagged with its algebra side."""

    coeffs: np.ndarray
    side: str  # "A" or "B"

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=complex))
        if self.side not in ("A", "B"):
            raise SideMismatch(f"unknown side {self.side!r}")

    def retag(self, side: str) -> "Element":
        return Element(self.coeffs, side)

    def __add__(self, other):
        self._same_side(other)
        return Element(self.coeffs + other.coeffs, self.side)

    def __sub__(self, other):
        self._same_side(other)
        return Element(self.coeffs - other.coeffs, self.side)

    def __rmul__(self, scalar):
        return Element(scalar * self.coeffs, self.side)

    def _same_side(self, other):
        if self.side != other.side:
            raise SideMismatch(f"cannot combine side {self.side} with side {other.side}")


# ---------------------------------------------------------------------------
# norms, supports and entropies from moduli.  Both sides reduce to moduli t
# with trace weights (see CanonicalBialgebra._moduli); every function takes
# any leading shape and reduces the last axis.


def _norms(t: np.ndarray, weights: np.ndarray, ps) -> np.ndarray:
    """(sum_j weights_j t_j^p)^(1/p) for each p in ``ps`` (inf: max_j t_j) -> (..., len(ps))."""
    ps = np.asarray(ps, dtype=float)
    finite = np.isfinite(ps)
    p = ps[finite]
    out = np.empty(t.shape[:-1] + ps.shape)
    out[..., ~finite] = t.max(axis=-1, keepdims=True)
    out[..., finite] = np.sum(
        weights[..., None, :] * t[..., None, :] ** p[:, None], axis=-1
    ) ** (1.0 / p)
    return out


def _support_mask(t: np.ndarray) -> np.ndarray:
    """The moduli above ``SUPPORT_RTOL`` times the largest one; none when all vanish."""
    return t > SUPPORT_RTOL * t.max(axis=-1, keepdims=True)


def _supports(t: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Trace of the range projection: the weights of the nonzero moduli."""
    return np.sum(np.where(_support_mask(t), weights, 0.0), axis=-1)


def _entropies(t: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """-sum_j weights_j t_j^2 log t_j^2 over the nonzero moduli."""
    u = t * t
    log_u = np.log(u, out=np.zeros_like(u), where=u > 0)
    return -np.sum(weights * u * log_u, axis=-1)


class CanonicalBialgebra:
    """The canonical fusion bialgebra (A, B, F, d, tau) of a fusion ring."""

    def __init__(self, fd: FusionData):
        self.fd = fd
        self.rank = fd.rank
        self.dims = fp_dimensions(fd)
        self.mu = float(self.dims @ self.dims)
        self._tensor = np.asarray(fd.tensor, dtype=float)

    # -- constructors ------------------------------------------------------

    def basis(self, j: int, side: str = "B") -> Element:
        c = np.zeros(self.rank, dtype=complex)
        c[j] = 1.0
        return Element(c, side)

    def unit(self, side: str) -> Element:
        """1_A = sum_j d_j x_j (all minimal projections); 1_B = x_1."""
        if side == "A":
            return Element(self.dims.astype(complex), "A")
        return self.basis(0, "B")

    def element(self, coeffs, side: str) -> Element:
        c = np.asarray(coeffs, dtype=complex)
        if c.shape != (self.rank,):
            raise ValueError(f"expected {self.rank} coefficients")
        return Element(c, side)

    # -- Fourier layer -----------------------------------------------------

    def fourier(self, x: Element) -> Element:
        """F: A -> B, identity on coefficients."""
        self._expect(x, "A")
        return x.retag("B")

    def fourier_inv(self, y: Element) -> Element:
        self._expect(y, "B")
        return y.retag("A")

    def fourier_tilde(self, y: Element) -> Element:
        """F~ = # o F^{-1} o *: B -> A; on the basis x_j -> x_{j*}."""
        self._expect(y, "B")
        return Element(y.coeffs[self.fd.dual], "A")

    def fourier_tilde_inv(self, x: Element) -> Element:
        self._expect(x, "A")
        return Element(x.coeffs[self.fd.dual], "B")

    def star(self, x: Element) -> Element:
        """The involution of x's side: # on A, * on B."""
        if x.side == "A":
            return Element(np.conj(x.coeffs), "A")
        return Element(np.conj(x.coeffs)[self.fd.dual], "B")

    def modular_conj(self, x: Element) -> Element:
        """J on A (x_j -> x_{j*}, antilinear), J_B on B (coefficient conjugation)."""
        if x.side == "A":
            return Element(np.conj(x.coeffs)[self.fd.dual], "A")
        return Element(np.conj(x.coeffs), "B")

    # -- products ----------------------------------------------------------

    def mult(self, x: Element, y: Element) -> Element:
        """The product of the common side: <> on A (diagonal), fusion on B."""
        if x.side != y.side:
            raise SideMismatch("mult requires matching sides")
        if x.side == "A":
            return Element(x.coeffs * y.coeffs / self.dims, "A")
        prod = np.einsum("j,k,jks->s", x.coeffs, y.coeffs, self._tensor)
        return Element(prod, "B")

    def conv(self, x: Element, y: Element) -> Element:
        """Convolution on A: F^{-1}(F(x) F(y))."""
        self._expect(x, "A")
        self._expect(y, "A")
        return self.mult(x.retag("B"), y.retag("B")).retag("A")

    def conv_b(self, x: Element, y: Element) -> Element:
        """Convolution on B: F~^{-1}(F~(x) <> F~(y)); coefficientwise x_i y_i / d_i."""
        self._expect(x, "B")
        self._expect(y, "B")
        return Element(x.coeffs * y.coeffs / self.dims, "B")

    def trace(self, x: Element) -> complex:
        """d on side A, tau on side B."""
        if x.side == "A":
            return complex(np.sum(x.coeffs * self.dims))  # d(x_j) = d_j
        return complex(x.coeffs[0])

    # -- spectral data -----------------------------------------------------

    def rep(self, x: Element) -> np.ndarray:
        """Matrix of left multiplication by x on the GNS space of tau (side B)."""
        self._expect(x, "B")
        return np.einsum("j,jks->sk", x.coeffs, self._tensor)  # [s, k] = sum_j c_j N[j, k, s]

    def _moduli_b(self, coeffs: np.ndarray):
        """Singular values t and tau-weights omega of side-B elements.

        ``coeffs`` holds one coefficient vector per row (any leading
        shape), and tau(f(|x|)) = sum_t omega_t f(t_t).  On a commutative
        ring t_t = |chi_t(x)| = |sum_j c_j lambda_jt| and omega_t =
        tau(P_t) = 1 / sum_j |lambda_jt|^2, the same for every row.
        Otherwise X = U diag(t) Vh from one stacked SVD, with
        omega_t = |<v_t, e_1>|^2 for the rows v_t* of Vh.
        """
        try:
            ct = spectral.character_table(self.fd)
        except _SPECTRAL_ERRORS:
            X = np.einsum("...j,jks->...sk", coeffs, self._tensor)
            _, t, Vh = np.linalg.svd(X)
            return t, np.abs(Vh[..., :, 0]) ** 2
        t = np.abs(coeffs @ ct.lam)
        return t, np.broadcast_to(1.0 / ct.norms, t.shape)

    def _moduli(self, x: Element):
        """Moduli t and trace weights with ||x||_p^p = sum_j weights_j t_j^p.

        Side A: t_j = |c_j| / d_j, the coordinates over the minimal
        projections e_j = d_j x_j, each of trace d_j^2.  Side B: the
        singular values of x and their tau-weights, on a commutative ring
        the moduli of the character values weighted by the traces of the
        dual projections (see ``_moduli_b``).
        """
        if x.side == "A":
            return np.abs(x.coeffs / self.dims), self.dims**2
        return self._moduli_b(x.coeffs)

    # -- norms, supports, entropies -----------------------------------------

    def norm(self, x: Element, p) -> float:
        """The p-norm of x in its side, 1 <= p <= inf.

        Side A is a weighted l_p: ||x||_p^p = sum_j |c_j|^p d_j^{2-p} for
        the basis coefficients c_j.  Side B is spectral with respect to
        tau: ||x||_p^p = tau((x*x)^{p/2}), on a commutative ring
        sum_t tau(P_t) |chi_t(x)|^p over the characters chi_t and the dual
        minimal projections P_t.
        """
        if not p >= 1:  # also rejects a NaN
            raise BadExponent(f"p = {p} is outside [1, inf]")
        return float(_norms(*self._moduli(x), [p])[0])

    def support(self, x: Element) -> float:
        """S(x) = trace of the range projection of x (d on A, tau on B)."""
        return float(_supports(*self._moduli(x)))

    def range_projection(self, x: Element) -> Element:
        """R(x) for side A: the sum of the minimal projections supporting x."""
        self._expect(x, "A")
        mask = _support_mask(self._moduli(x)[0])
        return Element(np.where(mask, self.dims, 0.0).astype(complex), "A")

    def entropy(self, x: Element) -> float:
        """Von Neumann entropy H(|x|^2) = -trace(x*x log x*x) of the side."""
        return float(_entropies(*self._moduli(x)))

    def renyi_entropy(self, x: Element, t: float) -> float:
        """Renyi entropy H_t(x) = (t/(1-t)) log ||x||_t, 0 < t < inf, t != 1;
        below t = 1, ||x||_t = trace(|x|^t)^(1/t) is a quasi-norm."""
        if t == 1:
            raise BadExponent("Renyi entropy is undefined at t = 1 (take the vN limit)")
        if not 0 < t < np.inf:
            raise BadExponent(f"t = {t} is outside (0, inf)")
        return float(t / (1.0 - t) * np.log(_norms(*self._moduli(x), [t])[0]))

    # -- internals -----------------------------------------------------------

    def _expect(self, x: Element, side: str):
        if x.side != side:
            raise SideMismatch(f"expected a side-{side} element, got side {x.side}")

    def __repr__(self):
        return f"<CanonicalBialgebra rank={self.rank} mu={self.mu:.6g}>"


def canonical_from_fusion_data(fd: FusionData) -> CanonicalBialgebra:
    """Extend a fusion ring/algebra to its canonical fusion bialgebra."""
    return CanonicalBialgebra(fd)


# ---------------------------------------------------------------------------
# rank-2 and rank-3 families


def rank2_family(mu: float) -> CanonicalBialgebra:
    """The rank-2 fusion algebra with FPdim mu >= 2 (d_2 = sqrt(mu-1))."""
    if not 2 <= mu < math.inf:  # also rejects a NaN
        raise InfeasibleParams(f"rank-2 family needs finite mu >= 2, got {mu}")
    d2 = math.sqrt(mu - 1.0)
    m2 = [[0.0, 1.0], [1.0, (d2 * d2 - 1.0) / d2]]
    fd = new_fusion_data([np.eye(2), np.array(m2)], mode="float", label=f"rank2(mu={mu:g})")
    return CanonicalBialgebra(fd)


@dataclass(frozen=True)
class Rank3Type1Params:
    """Parameters of the self-dual rank-3 family: d2, d3 >= 1, 0 <= a <= 1.

    Feasibility requires d2^2 - 1 - a d3^2 >= 0 and
    d3^2 - 1 - b d2^2 >= 0 with b = 1 - a.
    """

    d2: float
    d3: float
    a: float

    @property
    def b(self) -> float:
        return 1.0 - self.a

    def validate(self):
        if not all(map(math.isfinite, (self.d2, self.d3, self.a))):
            raise InfeasibleParams(f"{self}: d2, d3 and a must be finite")
        if self.d2 < 1 or self.d3 < 1 or not (0 <= self.a <= 1):
            raise InfeasibleParams(f"{self} violates d2, d3 >= 1, 0 <= a <= 1")
        slack = 1e-9 * (1.0 + max(self.d2, self.d3) ** 2)  # boundary points hit fp fuzz
        if self.d2**2 - 1 - self.a * self.d3**2 < -slack:
            raise InfeasibleParams(f"{self}: d2^2 - 1 - a d3^2 < 0")
        if self.d3**2 - 1 - self.b * self.d2**2 < -slack:
            raise InfeasibleParams(f"{self}: d3^2 - 1 - b d2^2 < 0")


def rank3_type1(params: Rank3Type1Params) -> CanonicalBialgebra:
    """Rank-3 family with both non-unit elements self-dual."""
    params.validate()
    d2, d3, a, b = params.d2, params.d3, params.a, params.b
    p22 = max((d2 * d2 - 1 - a * d3 * d3) / d2, 0.0)
    p33 = max((d3 * d3 - 1 - b * d2 * d2) / d3, 0.0)
    m2 = [[0, 1, 0], [1, p22, a * d3], [0, a * d3, b * d2]]
    m3 = [[0, 0, 1], [0, a * d3, b * d2], [1, b * d2, p33]]
    fd = new_fusion_data(
        [np.eye(3), np.array(m2, dtype=float), np.array(m3, dtype=float)],
        mode="float",
        label=f"rank3I(d2={d2:g},d3={d3:g},a={a:g})",
    )
    return CanonicalBialgebra(fd)


def rank3_type2(mu: float) -> CanonicalBialgebra:
    """Rank-3 family with x_2* = x_3, one parameter mu >= 3."""
    if not 3 <= mu < math.inf:  # also rejects a NaN
        raise InfeasibleParams(f"rank-3 type II needs finite mu >= 3, got {mu}")
    d = math.sqrt((mu - 1.0) / 2.0)
    lo = (d * d - 1.0) / (2.0 * d)
    hi = (d * d + 1.0) / (2.0 * d)
    m2 = [[0, 1, 0], [0, lo, hi], [1, lo, lo]]
    m3 = [[0, 0, 1], [1, lo, lo], [0, hi, lo]]
    fd = new_fusion_data(
        [np.eye(3), np.array(m2, dtype=float), np.array(m3, dtype=float)],
        mode="float",
        label=f"rank3II(mu={mu:g})",
    )
    return CanonicalBialgebra(fd)


def rank3_from_mnq(m: float, n: float, q: float) -> Rank3Type1Params:
    """Convert the (m, n, q) presentation of the rank-3 family.

    x_2 x_2 = 1 + p x_2 + m x_3, x_2 x_3 = m x_2 + n x_3,
    x_3 x_3 = 1 + n x_2 + q x_3 with p = (m^2 + n^2 - 1 - mq)/n.
    """
    if not all(map(math.isfinite, (m, n, q))):
        raise InfeasibleParams(f"(m,n,q)=({m},{n},{q}) must be finite")
    if n <= 0:
        raise InfeasibleParams("n must be positive")
    p = (m * m + n * n - 1 - m * q) / n
    if p < 0 or m < 0 or q < 0:
        raise InfeasibleParams(f"(m,n,q)=({m},{n},{q}) gives a negative coefficient")
    m2 = [[0, 1, 0], [1, p, m], [0, m, n]]
    m3 = [[0, 0, 1], [0, m, n], [1, n, q]]
    fd = new_fusion_data(
        [np.eye(3), np.array(m2, dtype=float), np.array(m3, dtype=float)], mode="float"
    )
    d = fp_dimensions(fd)
    d2, d3 = float(d[1]), float(d[2])
    return Rank3Type1Params(d2, d3, a=m / d3)


@dataclass(frozen=True)
class Rank3DualData:
    """Spectral data of the dual of the rank-3 type I family.

    lambda2 <= lambda3 are the roots of
    t^2 - (a d3^2 - b d2^2 + 1) t - b d2^2.  ``table`` is the closed-form
    character table of the ring: its columns are (1, d2, d3) and
    (1, -lambda_j/d2, -(1-lambda_j)/d3), in that order.  The minimal
    projections of the dual algebra are Q_1 = mu^{-1}(x_1 + d2 x_2 + d3 x_3)
    and Q_j = nu_j^{-1}(x_1 - (lambda_j/d2) x_2 - ((1-lambda_j)/d3) x_3),
    with nu_j the squared norm of column j.
    """

    params: Rank3Type1Params
    lambda2: float
    lambda3: float
    nu2: float
    nu3: float
    q1: Element
    q2: Element
    q3: Element
    table: spectral.CharacterTable


def rank3_dual_data(params: Rank3Type1Params) -> Rank3DualData:
    """Minimal projections of the dual per the closed rank-3 formulas.

    The labeling follows the counterexample analysis: lambda2 is the
    smaller root (the one with lambda2/d2^2 -> -b^2 in the large-d2
    regime), lambda3 the larger.  The roots are distinct: with
    u = a d3^2 + 1 >= 1 and w = b d2^2 >= 0 the discriminant is
    (u - w)^2 + 4w >= 1.

    Each column of the table is a joint eigenvector of the fusion matrices,
    since sum_s N[i,k,s] lambda_sj = lambda_ij lambda_kj; its unit vector
    has its largest entry positive.  The projections are those of
    ``spectral.dual_projections``, which verifies them.
    """
    fd = rank3_type1(params).fd
    d2, d3, a, b = params.d2, params.d3, params.a, params.b
    omega1 = a * d3 * d3 - b * d2 * d2 + 1.0
    root = math.sqrt(omega1 * omega1 + 4.0 * b * d2 * d2)
    lams = np.array([omega1 - root, omega1 + root]) / 2.0
    lam = np.array([[1.0, 1.0, 1.0], [d2, *(-lams / d2)], [d3, *(-(1 - lams) / d3)]])
    V = lam / np.linalg.norm(lam, axis=0)
    V *= np.sign(V[np.abs(V).argmax(axis=0), np.arange(3)])
    lam.setflags(write=False)
    V.setflags(write=False)
    residual = spectral._eigen_residual(fd.tensor, V, lam)[1]
    table = spectral.CharacterTable(lam, V, float(residual))
    q1, q2, q3 = (Element(P, "B") for P in spectral.dual_projections(fd, table))
    nu2, nu3 = table.norms[1:].tolist()
    return Rank3DualData(params, *lams.tolist(), nu2, nu3, q1, q2, q3, table)


def rank3_dual_schur(params: Rank3Type1Params) -> dict:
    """Evaluate d(F^{-1}(nu_i Q_i) <> F^{-1}(nu_j Q_j) <> F^{-1}(nu_k Q_k)).

    The scaled projections nu_j Q_j have coefficients
    (1, -lambda_j/d2, -(1-lambda_j)/d3), which are exactly the character
    values of the ring, so these triple products are the triple sums of
    the commutative Schur criterion on the closed-form table.  The
    positive scale nu_i nu_j nu_k > 1 preserves signs but keeps the
    decisive negatives O(1) instead of crushing them below the decision
    tolerance (nu_2 ~ 1e4 already at d2 = 1000).

    The minimum over triples is negative exactly when the Schur product
    property fails on the dual of this rank-3 fusion algebra; the
    verdict uses the commutative criterion's ``decision_tol``.
    """
    data = rank3_dual_data(params)
    rep = criteria.schur_commutative(data.table)
    return {"min_value": rep.worst_value, "holds": rep.holds,
            "worst_triple": rep.worst_triple, "data": data}


# ---------------------------------------------------------------------------
# biprojections


def biprojections(bialg: CanonicalBialgebra) -> list:
    """One biprojection per fusion subring (including the two trivial ones).

    The biprojection of a subring S is the side-A projection with
    coefficient d_j on j in S; its Fourier image squares to mu_S times
    itself, which is verified before returning.
    """
    m = bialg.rank
    subsets = [frozenset([0])] + list(proper_subrings(bialg.fd)) + [frozenset(range(m))]
    out = []
    for S in subsets:
        coeffs = np.zeros(m, dtype=complex)
        for j in S:
            coeffs[j] = bialg.dims[j]
        P = Element(coeffs, "A")
        F = P.retag("B")
        mu_s = float(sum(bialg.dims[j] ** 2 for j in S))
        sq = bialg.mult(F, F).coeffs
        if np.max(np.abs(sq - mu_s * F.coeffs)) > 1e-8 * (1 + mu_s) * (
            1 + np.max(np.abs(F.coeffs))
        ):
            raise DegenerateSpectrum(f"candidate biprojection for {sorted(S)} failed")
        out.append(P)
    return out


# ---------------------------------------------------------------------------
# the norm constant K and the inequality suite


def k_constant(ip: float, iq: float, mu: float) -> float:
    """K(1/p, 1/q) of the two-sided Fourier norm bounds.

    Three regions partition the unit square of (1/p, 1/q): K = 1 below
    both critical lines, mu^{1/q - 1/2} in the flat-left region, and
    mu^{1/p + 1/q - 1} in the remaining one.  Points on a boundary
    evaluate every applicable formula and take the minimum (the regions
    agree there by continuity), and in float arithmetic they cover the
    square.  Raises BadExponent for an exponent outside [0, 1].
    """
    if not (0.0 <= ip <= 1.0 and 0.0 <= iq <= 1.0):  # also rejects a NaN
        raise BadExponent(f"(1/p, 1/q) = ({ip}, {iq}) is outside [0, 1]^2")
    vals = []
    if iq <= 0.5 and ip + iq <= 1.0:
        vals.append(1.0)
    if ip <= 0.5 and iq >= 0.5:
        vals.append(mu ** (iq - 0.5))
    if iq >= 1.0 - ip and ip >= 0.5:
        vals.append(mu ** (ip + iq - 1.0))
    return min(vals)


@dataclass
class CheckResult:
    name: str
    worst_slack: float
    n_evals: int
    violations: int
    worst_detail: dict
    is_falsifier: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class InequalitySuiteReport:
    label: Optional[str]
    num_samples: int
    seed: int
    tol: float
    checks: list
    probes_skipped: Optional[str] = None  # why the dual-projection probes did not run

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def theorem_violations(self) -> int:
        return sum(c.violations for c in self.checks if not c.is_falsifier)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "num_samples": self.num_samples,
            "seed": self.seed,
            "tol": self.tol,
            "theorem_violations": self.theorem_violations,
            "probes_skipped": self.probes_skipped,
            "checks": [c.to_dict() for c in self.checks],
        }


INV_P_GRID = tuple(round(0.1 * k, 1) for k in range(11))
# the exponents p = 1/ip of the grid, ip = 0 being p = inf
_P_GRID = np.array([np.inf if ip == 0 else 1.0 / ip for ip in INV_P_GRID])
_ONE, _TWO = INV_P_GRID.index(1.0), INV_P_GRID.index(0.5)  # grid indices of p = 1, 2
# Young exponent pairs (1/p, 1/q) with 1/p + 1/q >= 1, as grid indices, and
# the grid index of 1/r = 1/p + 1/q - 1
_YOUNG_I, _YOUNG_J, _YOUNG_R = zip(*[
    (i, j, INV_P_GRID.index(round(ip + iq - 1.0, 10)))
    for i, ip in enumerate(INV_P_GRID) for j, iq in enumerate(INV_P_GRID) if ip + iq >= 1.0
])
SUITE_CHUNK = 256  # samples drawn and checked per batch; bounds the suite's memory
_CHECK_NAMES = (
    "plancherel", "hausdorff_young_A", "hausdorff_young_B", "norm_bounds_K",
    "donoho_stark_A", "donoho_stark_B", "hirschman_beckner", "renyi", "young_A",
    "conv_norm_identity", "sumset", "dual_young_positive", "dual_young_falsify",
)
_SPECTRAL_ERRORS = (
    NotCommutative, DegenerateSpectrum, NormalizationFailure, np.linalg.LinAlgError,
)


@functools.lru_cache(maxsize=64)
def _k_table(mu: float) -> np.ndarray:
    """K(1/p, 1/q) on the grid: entry [i, j] is k_constant(grid[i], grid[j], mu).
    Cached per mu and read-only, shared by every suite on that mu."""
    K = np.array([[k_constant(ip, iq, mu) for iq in INV_P_GRID] for ip in INV_P_GRID])
    K.setflags(write=False)
    return K


def _fold(res: CheckResult, slack: np.ndarray, tol, detail) -> None:
    """Fold one batch of a check's slacks into ``res``.

    ``slack`` is laid out in evaluation order (sample first, then the
    exponents), so its first argmin is the earliest worst evaluation, and
    a later batch replaces the worst only when strictly below it.
    ``detail`` turns the argmin's index tuple into its description.
    """
    i = np.unravel_index(int(np.argmin(slack)), slack.shape)
    res.n_evals += slack.size
    res.violations += int(np.count_nonzero(slack < -tol))
    if slack[i] < res.worst_slack:
        res.worst_slack = float(slack[i])
        res.worst_detail = detail(*map(int, i))


def _dual_young_probes(bialg: CanonicalBialgebra):
    """Targeted dual-Young pairs, and why the dual-projection probes were
    skipped (None when they ran).

    The pairs are returned as the distinct elements (coefficient rows)
    and two index arrays naming each pair's x and y among them.
    Basis/Perron pairs always; for commutative rings also the pairs of
    dual minimal projections and the sign combination
    u = sum_s sign(Nhat_{a,b}^s) P_s against each P_s, which converts any
    negative dual structure constant into a violation of
    ||x *_B y||_inf <= ||x||_inf ||y||_1.  The projections come from the
    ring's character table.  The pairs depend on the ring alone, so
    ``_dual_young`` builds them once per ring and keeps their outcome.
    """
    m = bialg.rank
    basis = np.concatenate([np.eye(m), bialg.dims[None, :]])  # x_1 .. x_m, Perron
    pairs = (np.arange(m), np.full(m, m))
    try:
        ct = spectral.character_table(bialg.fd)
        projs = spectral.dual_projections(bialg.fd, ct)
        nhat = spectral._dual_coefficients(projs, ct)
    except _SPECTRAL_ERRORS as exc:
        return (basis, *pairs), f"{type(exc).__name__}: {exc}"
    a, b = np.triu_indices(m)
    j, k, _ = np.unravel_index(int(np.argmin(nhat)), nhat.shape)
    sgn = np.sign(nhat[j, k])
    sgn[sgn == 0] = 1.0
    elements = np.concatenate([basis, projs, (sgn @ projs)[None, :]])  # ..., P_1 .. P_m, u
    P, u = m + 1 + np.arange(m), 2 * m + 1
    return (elements, np.concatenate([pairs[0], P[a], np.full(m, u)]),
            np.concatenate([pairs[1], P[b], P])), None


@dataclass(frozen=True, eq=False)
class _DualYoungProbes:
    """The outcome of a ring's targeted dual-Young pairs: ``slack`` is
    rhs - ||x *_B y||_inf and ``scale`` is max(1, rhs) for each pair, with
    rhs = ||x||_inf ||y||_1, both read-only; ``skipped`` says why the
    dual-projection probes were skipped (None when they ran)."""

    slack: np.ndarray
    scale: np.ndarray
    skipped: Optional[str]

    def __setstate__(self, state):
        # unpickling (as from a worker process) restores the arrays writeable
        state["slack"].setflags(write=False)
        state["scale"].setflags(write=False)
        self.__dict__.update(state)


def _dual_young(bialg: CanonicalBialgebra) -> _DualYoungProbes:
    """The targeted dual-Young outcome of ``bialg``'s ring, computed on the
    first call and kept on the ring (``FusionData._dual_young``)."""
    fd = bialg.fd
    if fd._dual_young is None:
        (elements, x, y), skipped = _dual_young_probes(bialg)
        # side-B moduli of x *_B y for every pair, then of each distinct element once
        conv = elements[x] * elements[y] / bialg.dims
        norms = _norms(*bialg._moduli_b(np.concatenate([conv, elements])), [np.inf, 1.0])
        conv_inf, (inf, one) = norms[: len(x), 0], norms[len(x):].T
        rhs = inf[x] * one[y]
        slack, scale = rhs - conv_inf, np.maximum(1.0, rhs)
        slack.setflags(write=False)
        scale.setflags(write=False)
        fd._dual_young = _DualYoungProbes(slack, scale, skipped)
    return fd._dual_young


def _check_batch(bialg: CanonicalBialgebra, z: np.ndarray, start: int, K: np.ndarray,
                 tol: float, checks: dict) -> None:
    """Evaluate every check on the samples ``z`` (n, 4, 2, m): x_a, y_a, x_b, y_b,
    each as real then imaginary part.  ``start`` numbers the first sample."""
    d, m, grid = bialg.dims, bialg.rank, INV_P_GRID
    c = z[:, :, 0] + 1j * z[:, :, 1]
    x_a, x_b, y_b = c[:, 0], c[:, 2], c[:, 3]

    # side A: moduli over the minimal projections of x_a, y_a, F~(x_b) =
    # x_b[dual] and of the convolutions x_a * y_a, |x_a| * |y_a|, R(x_a) * R(y_a)
    t_xy = np.abs(c[:, :2] / d)
    ranges = np.where(_support_mask(t_xy), d, 0.0)
    factors = np.stack([c[:, :2], np.abs(c[:, :2]), ranges], axis=2)
    outer = (factors[:, 0, :, :, None] * factors[:, 1, :, None, :]).reshape(-1, 3, m * m)
    conv = outer @ bialg._tensor.reshape(m * m, m)  # sum_jk x_j y_k N[j, k, :]
    t_a = np.abs(np.concatenate([c[:, :2], c[:, 2:3][..., bialg.fd.dual], conv], axis=1) / d)
    norm_a, supp_a = _norms(t_a, d * d, _P_GRID), _supports(t_a, d * d)

    # side B, all at once: F(x_a), x_b, |x_b|, y_b, |x_b| *_B y_b, x_b *_B y_b
    xb_abs = np.abs(x_b)
    t_b, w_b = bialg._moduli_b(
        np.stack([x_a, x_b, xb_abs, y_b, xb_abs * y_b / d, x_b * y_b / d], axis=1))
    norm_b, supp_b = _norms(t_b, w_b, _P_GRID), _supports(t_b[:, :2], w_b[:, :2])

    nx, ny, nftx, nxy = norm_a[:, 0], norm_a[:, 1], norm_a[:, 2], norm_a[:, 3]
    nfx, nxb = norm_b[:, 0], norm_b[:, 1]
    n2 = nx[:, _TWO]

    def fold(name, slack, tol_, detail=lambda: {}):
        _fold(checks[name], slack, tol_, lambda s, *i: {**detail(*i), "sample": start + s})

    # Plancherel: ||F(x)||_2 = ||x||_2 (an identity; slack is -|deviation|)
    fold("plancherel", -np.abs(nfx[:, _TWO] - n2), 1e-10 * np.maximum(1.0, n2))

    # Hausdorff-Young on both sides: ||F(x)||_q <= ||x||_p, 1 <= p <= 2
    # (columns: 1/p = 0.5 ... 1 against 1/q = 1 - 1/p)
    hy = lambda k: {"ip": grid[_TWO + k]}
    fold("hausdorff_young_A", nx[:, _TWO:] - nfx[:, _TWO::-1], tol, hy)
    fold("hausdorff_young_B", nxb[:, _TWO:] - nftx[:, _TWO::-1], tol, hy)

    # two-sided K bounds for F~ on all grid pairs.  The upper bound is
    # the operator-norm statement ||F~x||_q <= K(1/p,1/q) ||x||_p; the
    # lower bound follows by applying it to the inverse transform, whose
    # (q -> p) norm is K at the conjugate exponents.  (The naive lower
    # bound with K(1/p,1/q) itself fails already on Z/2 at p = q = inf.)
    np_b, nq_a = nxb[:, :, None], nftx[:, None, :]
    upper = K * np_b
    fold(
        "norm_bounds_K",
        np.stack([upper - nq_a, nq_a - np_b / K[::-1, ::-1]], axis=-1),
        tol * np.stack([np.maximum(1.0, upper),
                        np.broadcast_to(np.maximum(1.0, nq_a), upper.shape)], axis=-1),
        lambda i, j, k: {"ip": grid[i], "iq": grid[j], "side": ("ub", "lb")[k]},
    )

    # Donoho-Stark uncertainty
    fold("donoho_stark_A", supp_a[:, 0] * supp_b[:, 0] - 1.0, tol)
    fold("donoho_stark_B", supp_b[:, 1] * supp_a[:, 2] - 1.0, tol)

    # Hirschman-Beckner: H(|x|^2) + H(|Fx|^2) >= -4 ||x||_2^2 log ||x||_2
    entropy = _entropies(t_a[:, 0], d * d) + _entropies(t_b[:, 0], w_b[:, 0])
    fold("hirschman_beckner", entropy + 4.0 * n2 * n2 * np.log(n2),
         tol * np.maximum(1.0, n2 * n2))

    # Renyi uncertainty on the normalized element xn = x / ||x||_2:
    # log||F(xn)||_t - log||xn||_s >= -log K(1/t, 1/s)
    log_b, log_a = np.log(nfx / n2[:, None]), np.log(nx / n2[:, None])
    fold("renyi", log_b[:, :, None] - log_a[:, None, :] + np.log(K), tol,
         lambda i, j: {"inv_t": grid[i], "inv_s": grid[j]})

    # Young on A: ||x*y||_r <= ||x||_p ||y||_q, 1/p + 1/q = 1 + 1/r
    rhs = nx[:, _YOUNG_I] * ny[:, _YOUNG_J]
    fold("young_A", rhs - nxy[:, _YOUNG_R], tol * np.maximum(1.0, rhs),
         lambda k: {"ip": grid[_YOUNG_I[k]], "iq": grid[_YOUNG_J[k]]})

    # ||x*y||_1 = ||x||_1 ||y||_1 on nonnegative-coefficient elements
    rhs = nx[:, _ONE] * ny[:, _ONE]
    fold("conv_norm_identity", -np.abs(norm_a[:, 4, _ONE] - rhs), tol * np.maximum(1.0, rhs))

    # sumset estimate: S(R(x) * R(y)) >= max(S(x), S(y))
    s_conv = supp_a[:, 5]
    fold("sumset", s_conv - np.maximum(supp_a[:, 0], supp_a[:, 1]),
         tol * np.maximum(1.0, s_conv))

    # dual Young ||x *_B y||_inf <= ||x||_inf ||y||_1: a theorem for
    # F^{-1}(x) >= 0, a falsifier that may legitimately fail otherwise
    for name, x_row, conv_row in (("dual_young_positive", 2, 4), ("dual_young_falsify", 1, 5)):
        rhs = norm_b[:, x_row, 0] * norm_b[:, 3, _ONE]
        fold(name, rhs - norm_b[:, conv_row, 0], tol * np.maximum(1.0, rhs))


def inequality_suite(
    bialg: CanonicalBialgebra, num_samples: int = 1000, seed: int = 0
) -> InequalitySuiteReport:
    """Exercise the theorem-backed inequalities on random elements.

    Each check records its worst slack over ``num_samples`` random
    elements and the exponent grid 1/p in {0, 0.1, ..., 1} clipped to
    the inequality's validity region.  For the theorem-backed checks a
    slack below -``SLACK_TOL`` (times the check's scale) signals an
    implementation bug; for the dual Young falsifier a violation is a
    legitimate mathematical finding (it implies the Schur product
    property fails on the dual).

    Samples are drawn and checked ``SUITE_CHUNK`` at a time as whole
    arrays.  The random stream is that of drawing, sample by sample,
    x_a, y_a, x_b and y_b as ``standard_normal(m)`` real then imaginary
    parts.  The targeted dual-Young probes follow the samples; when the
    dual-projection probes among them cannot be built, the report's
    ``probes_skipped`` says why.  The probes depend on the ring alone: the
    first suite on a ring keeps their slacks on it (``_dual_young``), and
    every suite folds them against ``SLACK_TOL`` as it reads at the call.
    """
    tol = SLACK_TOL
    rng = np.random.default_rng(seed)
    K = _k_table(bialg.mu)
    checks = {name: CheckResult(name, math.inf, 0, 0, {}, name == "dual_young_falsify")
              for name in _CHECK_NAMES}
    for start in range(0, num_samples, SUITE_CHUNK):
        n = min(SUITE_CHUNK, num_samples - start)
        _check_batch(bialg, rng.standard_normal((n, 4, 2, bialg.rank)), start, K, tol, checks)
    probes = _dual_young(bialg)
    _fold(checks["dual_young_falsify"], probes.slack, tol * probes.scale,
          lambda k: {"sample": -1})
    return InequalitySuiteReport(
        label=bialg.fd.label,
        num_samples=num_samples,
        seed=seed,
        tol=tol,
        checks=list(checks.values()),
        probes_skipped=probes.skipped,
    )
