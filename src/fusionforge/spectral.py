"""Character tables and dual projections of commutative fusion rings.

The fusion matrices of a commutative fusion ring are commuting normal
integer (or real) matrices, hence simultaneously diagonalizable.  Each
joint eigenvector v_j gives a one-dimensional representation (character)
chi_j with chi_j(x_i) = lambda_{i,j}; the m-by-m array of these values
is the character table.  Column 1 is always the Frobenius-Perron
character chi_1 = d.

The characters are in bijection with the minimal projections of the
dual algebra; expanding the dual convolution of two such projections in
the projection basis yields the dual structure constants, whose
nonnegativity is exactly the Schur product property on the dual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, NormalizationFailure, NotCommutative
from .rings import FusionData, fp_dimensions, is_commutative

__all__ = [
    "CharacterTable",
    "character_table",
    "verify_character_table",
    "dual_projections",
    "dual_fusion_coefficients",
]

RESIDUAL_TOL = 1e-8
REDRAWS = 8
_SEED = 0x5EED


@dataclass(frozen=True)
class CharacterTable:
    """Simultaneous eigenvalue data of the fusion matrices.

    ``lam[i, j]`` is the value of character j on basis element i; column
    0 is the Frobenius-Perron column (all values real positive, equal to
    the FP dimensions).  ``vectors[:, j]`` is the unit joint eigenvector
    of character j, phase-fixed so its largest-magnitude component is
    real positive.  ``residual`` is max_{i,j} ||M_i v_j - lam[i,j] v_j||,
    at most ``RESIDUAL_TOL`` times a scale of the ring, and
    ``column_order`` records the permutation applied to the raw
    eigensolver output (Perron column first, the rest sorted by rounded
    values).
    """

    lam: np.ndarray
    vectors: np.ndarray
    residual: float
    column_order: tuple = ()

    @property
    def rank(self) -> int:
        return self.lam.shape[0]

    @property
    def fp_column(self) -> np.ndarray:
        return self.lam[:, 0].real

    def conjugate_column(self, j: int) -> int:
        """Index of the character equal to the complex conjugate of column j."""
        target = np.conj(self.lam[:, j])
        diffs = np.max(np.abs(self.lam - target[:, None]), axis=0)
        k = int(np.argmin(diffs))
        if diffs[k] > 1e-6 * (1 + np.max(np.abs(target))):
            raise DegenerateSpectrum("character table is not closed under conjugation")
        return k


def character_table(fd: FusionData) -> CharacterTable:
    """Compute the character table by joint diagonalization.

    A random Hermitian combination sum_i c_i M_i (with c_{i*} = conj(c_i),
    coefficients drawn from the unit disk, seeded with ``_SEED``) is
    diagonalized; generic coefficients separate the joint eigenspaces
    with probability one.  Every eigenvector is validated against every
    fusion matrix to ``RESIDUAL_TOL`` times a scale of the ring; on
    failure the combination is redrawn up to ``REDRAWS`` times.
    The validated table does not depend on the seed beyond rounding
    (eigenvector phases are fixed and columns are canonically ordered).
    """
    if not is_commutative(fd):
        raise NotCommutative("character tables are defined for commutative rings")
    m = fd.rank
    N = np.asarray(fd.tensor, dtype=float)
    dual = fd.dual
    d = fp_dimensions(fd)
    scale = float(np.max(np.abs(N))) * m + 1.0
    rng = np.random.default_rng(_SEED)

    for _ in range(REDRAWS):
        c = rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)
        c = c + np.conj(c[dual])  # makes sum_i c_i M_i Hermitian (M_i^T = M_{i*})
        T = np.einsum("i,ikl->kl", c, N.astype(complex))
        _, V = np.linalg.eigh(T)
        lam, last_residual = _eigen_residual(N, V)
        if last_residual > RESIDUAL_TOL * scale:
            continue

        # phase fix: largest-magnitude component real positive
        top = V[np.argmax(np.abs(V), axis=0), np.arange(m)]
        V = V / (top / np.abs(top))

        order = _column_order(lam, d)
        lam = lam[:, order]
        V = V[:, order]
        lam[:, 0] = lam[:, 0].real
        return CharacterTable(lam, V, last_residual, tuple(order))

    raise DegenerateSpectrum(
        f"joint eigenvector validation failed after {REDRAWS} draws "
        f"(residual {last_residual:.3g})"
    )


def _column_order(lam: np.ndarray, d: np.ndarray) -> list:
    """Column permutation of the raw table ``lam``: the Perron column
    first, then the rest in lexicographic order of their values rounded
    to 6 places, row by row and real part before imaginary part, ties
    kept in eigensolver order.

    The Perron column is the first one whose values are real, positive
    and within 1e-6 (1 + max d) of the FP dimensions d; without one the
    table raises ``DegenerateSpectrum``.
    """
    real = np.max(np.abs(lam.imag), axis=0) < 1e-6 * (1 + np.max(np.abs(lam), axis=0))
    fp = np.max(np.abs(lam.real - d[:, None]), axis=0) < 1e-6 * (1 + np.max(d))
    perron = np.flatnonzero(real & np.all(lam.real > 0, axis=0) & fp)
    if not perron.size:
        raise DegenerateSpectrum("no Frobenius-Perron column found")
    rest = np.delete(np.arange(lam.shape[1]), perron[0])
    # keys row 0 re, row 0 im, row 1 re, ...; lexsort takes its primary key last
    keys = np.stack([lam[:, rest].real, lam[:, rest].imag], axis=1).reshape(2 * len(d), -1)
    return [int(perron[0])] + rest[np.lexsort(np.round(keys, 6)[::-1])].tolist()


def _eigen_residual(N: np.ndarray, V: np.ndarray, lam=None) -> tuple:
    """(lam, max_{i,j} ||M_i v_j - lam[i,j] v_j||) for the columns v_j of V.

    All products M_i v_j come from one stacked product; without ``lam``
    the Rayleigh quotients lam[i,j] = <v_j, M_i v_j> are used.
    """
    MV = np.swapaxes(N @ V, 1, 2)  # MV[i, j] = M_i v_j
    if lam is None:
        lam = np.einsum("jk,ijk->ij", V.T.conj(), MV)
    return lam, float(np.max(np.linalg.norm(MV - lam[:, :, None] * V.T, axis=-1)))


def verify_character_table(fd: FusionData, ct: CharacterTable) -> float:
    """Recompute max_{i,j} ||M_i v_j - lam[i,j] v_j|| from scratch."""
    return _eigen_residual(np.asarray(fd.tensor, dtype=float), ct.vectors, ct.lam)[1]


# ---------------------------------------------------------------------------
# dual projections


def dual_projections(fd: FusionData, ct: CharacterTable) -> np.ndarray:
    """Minimal projections P_j of the dual algebra, one per character, as
    the rows of an (m, m) complex array over the fusion basis {x_k}.

    The defining formula P_j ~ sum_k chi_j(x_k) x_{k*} fixes P_j only up
    to scale; idempotency gives the normalization 1 / sum_k |lambda_{k,j}|^2.
    The trace of P_j is ``P[j, 0].real``.  Verifies P_j P_j = P_j,
    P_j P_k = 0 for j != k, and sum_j P_j = 1 within ``RESIDUAL_TOL``
    times a scale of the table.
    """
    if not is_commutative(fd):
        raise NotCommutative("dual projections require a commutative ring")
    m = fd.rank
    N = np.asarray(fd.tensor, dtype=float)
    # one sum per column: an axis-0 sum adds in another order
    norm = np.array([np.sum(np.abs(ct.lam[:, j]) ** 2) for j in range(m)])
    if np.any(norm <= 0):
        raise NormalizationFailure(
            f"projection {np.argmax(norm <= 0) + 1} has vanishing norm")
    # row j is P_j: its coefficient of x_k is chi_j(x_{k*}) / norm[j]
    P = np.ascontiguousarray((ct.lam[fd.dual] / norm).T)

    # verification: idempotency, orthogonality, partition of unity, all
    # pairs in one contraction; the first failing pair a <= b is reported
    prod = np.einsum("aj,bk,jks->abs", P, P, N, optimize=True)
    prod[np.arange(m), np.arange(m)] -= P
    err = np.max(np.abs(prod), axis=2)
    scale = 1.0 + float(np.max(np.abs(ct.lam)))
    bad = np.argwhere(np.triu(err > RESIDUAL_TOL * scale))
    if len(bad):
        a, b = bad[0]
        raise NormalizationFailure(
            f"P_{a + 1} * P_{b + 1} deviates from a projection system by {err[a, b]:.3g}"
        )
    unit = np.zeros(m, dtype=complex)
    unit[0] = 1.0
    if float(np.max(np.abs(P.sum(axis=0) - unit))) > RESIDUAL_TOL * scale:
        raise NormalizationFailure("projections do not sum to the unit")
    return P


def dual_fusion_coefficients(fd: FusionData, ct: CharacterTable) -> np.ndarray:
    """Structure constants of the dual convolution on the projections.

    The dual convolution acts coefficientwise on the fusion basis,
    (x ._B y)_i = x_i y_i / d_i; expanding P_j ._B P_k over {P_s} by
    evaluating characters gives Nhat[j,k,s].  Imaginary parts below
    ``RESIDUAL_TOL`` (relative) are dropped.  All entries >= 0 is
    exactly the Schur product property on the dual.
    """
    return _dual_coefficients(dual_projections(fd, ct), ct)


def _dual_coefficients(P: np.ndarray, ct: CharacterTable):
    """``dual_fusion_coefficients`` from the dual projections already
    built and verified, stacked as the rows of ``P``."""
    # conv[j, k] = P_j ._B P_k; chi_s(conv[j, k]) = coefficient of P_s
    conv = P[:, None, :] * P[None, :, :] / ct.fp_column
    nhat = conv @ ct.lam
    imag = float(np.max(np.abs(nhat.imag)))
    if imag > RESIDUAL_TOL * (1 + float(np.max(np.abs(nhat)))):
        raise NormalizationFailure(f"dual coefficients have imaginary mass {imag:.3g}")
    return nhat.real
