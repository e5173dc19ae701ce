"""Character tables and dual projections of commutative fusion rings.

The fusion matrices of a commutative fusion ring are commuting normal
integer (or real) matrices, hence simultaneously diagonalizable.  Each
joint eigenvector v_j gives a one-dimensional representation (character)
chi_j with chi_j(x_i) = lambda_{i,j}; the m-by-m array of these values
is the character table.  Column 1 is always the Frobenius-Perron
character chi_1 = d, found as the one column of real positive values:
any other chi_j is orthogonal to it, sum_i d_i chi_j(x_i) = 0 with
chi_j(x_1) = 1, so some Re chi_j(x_i) <= -1 / sum_{i>=2} d_i.

The characters are in bijection with the minimal projections of the
dual algebra; expanding the dual convolution of two such projections in
the projection basis yields the dual structure constants, whose
nonnegativity is exactly the Schur product property on the dual.

The table comes from random Hermitian combinations of the fusion
matrices drawn with a fixed seed, so the draws depend only on the rank.
Tables are therefore computed in stacks: every ring of a stack takes
the same draw, one stacked ``eigh`` diagonalizes them all, and a ring
whose draw fails moves on to the next draw alone.  A single ring is a
stack of one.  Every ring keeps its table once computed, with read-only
arrays, whoever asks first: ``character_table`` of one ring, or the
search for the commutative rings it returns.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSpectrum, NormalizationFailure, NotCommutative
from .rings import FusionData, is_commutative

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
    0 is the Frobenius-Perron column, the FP dimensions, and the only one
    of real positive values (any other character, orthogonal to it, has a
    value of real part <= -1 / sum_{i>=2} d_i).  ``vectors[:, j]`` is the
    unit joint eigenvector of character j, phase-fixed so its
    largest-magnitude component is real positive.  ``residual`` is
    max_{i,j} ||M_i v_j - lam[i,j] v_j||, at most ``RESIDUAL_TOL`` times a
    scale of the ring, and ``column_order`` records the permutation applied
    to the raw eigensolver output (Perron column first, the rest sorted by
    rounded values).  A table built from closed-form columns, such as the
    rank-3 family's in ``bialgebra.rank3_dual_data``, keeps its given
    column order and has ``column_order == ()``.  ``_schur`` holds the
    ``criteria.SchurReport`` of the table once ``criteria.schur_commutative``
    or the search decided it (write-once; None until then).
    """

    lam: np.ndarray
    vectors: np.ndarray
    residual: float
    column_order: tuple = ()
    _schur: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def rank(self) -> int:
        return self.lam.shape[0]

    @property
    def fp_column(self) -> np.ndarray:
        return self.lam[:, 0].real

    @functools.cached_property
    def norms(self) -> np.ndarray:
        """sum_j |lambda_jt|^2 of each column t: 1 / tau(P_t) of the dual
        minimal projection P_t.  One sum per column, since an axis-0 sum
        adds in another order; kept read-only after the first use."""
        norms = np.array([np.sum(np.abs(self.lam[:, t]) ** 2) for t in range(self.rank)])
        norms.setflags(write=False)
        return norms

    def __setstate__(self, state):
        # unpickling (as from a worker process) restores arrays writeable:
        # freeze them again, the cached norms included
        for value in state.values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        self.__dict__.update(state)

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

    Every ring keeps its table once computed, so this computes a ring's
    table once and returns the kept one after that.  The draws depend only
    on the rank, so ``_character_tables`` computes the tables of many rings
    of one rank as one stack.  A ring whose table raises keeps none.
    """
    if fd._char_table is not None:
        return fd._char_table
    if not is_commutative(fd):
        raise NotCommutative("character tables are defined for commutative rings")
    return _character_tables([fd])[0]


def _character_tables(fds: list) -> list:
    """``character_table`` of each of the commutative rings ``fds``, all of
    one rank, as one stack: draw k is the same for every ring, so each
    round is one stacked ``eigh`` of the rings not yet validated, and a
    ring whose residual fails takes draw k+1, as it would alone.  Each ring
    without a table keeps its own, with read-only arrays (write-once).
    Raises DegenerateSpectrum if any ring fails, as that ring alone would;
    then no ring of the stack keeps a table."""
    m = fds[0].rank
    N = np.array([fd.tensor for fd in fds], dtype=float)
    dual = np.array([fd.dual for fd in fds])
    scale = np.abs(N).max(axis=(1, 2, 3)) * m + 1.0
    cols = np.arange(m)
    tables = [None] * len(fds)
    todo = np.arange(len(fds))  # rings not yet validated

    for c in _draws(m, _SEED, REDRAWS):
        c = c + np.conj(c[dual[todo]])  # makes sum_i c_i M_i Hermitian (M_i^T = M_{i*})
        Nt = N[todo]
        _, V = np.linalg.eigh(np.einsum("bi,bikl->bkl", c, Nt.astype(complex)))
        lam, residual = _eigen_residual(Nt, V)
        ok = residual <= RESIDUAL_TOL * scale[todo]
        if ok.any():
            lam, V = lam[ok], V[ok]
            ring = np.arange(len(V))[:, None]
            # phase fix: largest-magnitude component real positive
            top = V[ring, np.abs(V).argmax(axis=1), cols]
            V = V / (top / np.abs(top))[:, None, :]

            order = np.array(_column_order(lam))
            pick = (ring[:, :, None], cols[:, None], order[:, None, :])  # columns by order
            lam, V = lam[pick], V[pick]
            lam[:, :, 0] = lam[:, :, 0].real
            lam.setflags(write=False)
            V.setflags(write=False)
            for b, lam_b, V_b, res, perm in zip(todo[ok], lam, V, residual[ok].tolist(),
                                                order.tolist()):
                tables[b] = CharacterTable(lam_b, V_b, res, tuple(perm))
        last_residual = residual[~ok]
        todo = todo[~ok]
        if not todo.size:
            for fd, ct in zip(fds, tables):
                if fd._char_table is None:
                    fd._char_table = ct
            return tables

    raise DegenerateSpectrum(
        f"joint eigenvector validation failed after {REDRAWS} draws "
        f"(residual {last_residual[0]:.3g})"
    )


@functools.lru_cache(maxsize=64)
def _draws(m: int, seed: int, redraws: int) -> np.ndarray:
    """The coefficient vectors c, one row per draw, that ``character_table``
    tries in turn on a ring of rank m: real and imaginary parts uniform
    on [-1, 1], drawn in that order from a generator seeded with ``seed``.
    They depend on these three values alone."""
    u = np.random.default_rng(seed).uniform(-1, 1, (redraws, 2, m))
    c = u[:, 0] + 1j * u[:, 1]
    c.setflags(write=False)  # cached, shared by every call
    return c


def _column_order(lam: np.ndarray) -> list:
    """Column permutation of the raw table ``lam``: the Perron column
    first, then the rest in lexicographic order of their values rounded
    to 6 places, row by row and real part before imaginary part, ties
    kept in eigensolver order.  ``lam`` may be a stack (..., m, m); the
    result is then a list of permutations.

    The Perron column is the first one whose values are all real and
    positive; without one the table raises ``DegenerateSpectrum``.  On a
    fusion ring no other column qualifies: a character chi_j != d has
    sum_i d_i chi_j(x_i) = 0 and chi_j(x_1) = 1, so some value has real
    part at most -1 / sum_{i>=2} d_i.
    """
    m = lam.shape[-1]
    real = np.abs(lam.imag).max(axis=-2) < 1e-6 * (1 + np.abs(lam).max(axis=-2))
    perron = real & (lam.real > 0).all(axis=-2)
    if not perron.any(axis=-1).all():
        raise DegenerateSpectrum("no Frobenius-Perron column found")
    perron = perron.argmax(axis=-1)[..., None]  # the first one
    # keys row 0 re, row 0 im, row 1 re, ...; lexsort takes its primary key last.
    # The sort is stable, so sorting every column and then moving the Perron
    # column to the front orders the rest as sorting them alone would.
    keys = np.stack([lam.real, lam.imag], axis=-2).reshape(*lam.shape[:-2], 2 * m, m)
    ranked = np.lexsort(np.moveaxis(np.round(keys, 6)[..., ::-1, :], -2, 0))
    rest = ranked[ranked != perron].reshape(*ranked.shape[:-1], m - 1)
    return np.concatenate([perron, rest], axis=-1).tolist()


def _eigen_residual(N: np.ndarray, V: np.ndarray, lam=None) -> tuple:
    """(lam, max_{i,j} ||M_i v_j - lam[i,j] v_j||) for the columns v_j of V,
    for one ring or a stack: N (..., m, m, m) and V (..., m, m) give one
    residual per ring.

    All products M_i v_j come from one stacked product; without ``lam``
    the Rayleigh quotients lam[i,j] = <v_j, M_i v_j> are used.
    """
    Vt = np.swapaxes(V, -1, -2)
    MV = np.swapaxes(N @ V[..., None, :, :], -1, -2)  # MV[..., i, j, :] = M_i v_j
    if lam is None:
        lam = np.einsum("...jk,...ijk->...ij", Vt.conj(), MV)
    diff = MV - lam[..., None] * Vt[..., None, :, :]
    return lam, np.max(np.linalg.norm(diff, axis=-1), axis=(-2, -1))


def verify_character_table(fd: FusionData, ct: CharacterTable) -> float:
    """Recompute max_{i,j} ||M_i v_j - lam[i,j] v_j|| from scratch."""
    return float(_eigen_residual(np.asarray(fd.tensor, dtype=float), ct.vectors, ct.lam)[1])


# ---------------------------------------------------------------------------
# dual projections


def dual_projections(fd: FusionData, ct: CharacterTable) -> np.ndarray:
    """Minimal projections P_j of the dual algebra, one per character, as
    the rows of an (m, m) complex array over the fusion basis {x_k}.

    The defining formula P_j ~ sum_k chi_j(x_k) x_{k*} fixes P_j only up
    to scale; idempotency gives the normalization 1 / sum_k |lambda_{k,j}|^2.
    The trace of P_j is ``P[j, 0].real``.  Verifies P_j P_j = P_j,
    P_j P_k = 0 for j != k, and sum_j P_j = 1 within ``RESIDUAL_TOL``
    times 1 + max |P|; a NaN fails every check.
    """
    if not is_commutative(fd):
        raise NotCommutative("dual projections require a commutative ring")
    m = fd.rank
    N = np.asarray(fd.tensor, dtype=float)
    if not np.isfinite(ct.lam).all():
        raise NormalizationFailure("the character table has a non-finite value")
    norm = ct.norms
    if np.any(norm <= 0):
        raise NormalizationFailure(
            f"projection {np.argmax(norm <= 0) + 1} has vanishing norm")
    # row j is P_j: its coefficient of x_k is chi_j(x_{k*}) / norm[j]
    P = np.ascontiguousarray((ct.lam[fd.dual] / norm).T)

    # verification: idempotency, orthogonality, partition of unity, all
    # pairs in one contraction; the first failing pair a <= b is reported
    prod = np.einsum("bk,aks->abs", P, (P @ N.reshape(m, -1)).reshape(m, m, m))
    prod[np.arange(m), np.arange(m)] -= P
    err = np.max(np.abs(prod), axis=2)
    tol = RESIDUAL_TOL * (1.0 + float(np.max(np.abs(P))))
    bad = np.argwhere(np.triu(~(err <= tol)))
    if len(bad):
        a, b = bad[0]
        raise NormalizationFailure(
            f"P_{a + 1} * P_{b + 1} deviates from a projection system by {err[a, b]:.3g}"
        )
    unit = np.zeros(m, dtype=complex)
    unit[0] = 1.0
    if not float(np.max(np.abs(P.sum(axis=0) - unit))) <= tol:
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
