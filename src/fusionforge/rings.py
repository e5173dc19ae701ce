"""Fusion rings and fusion algebras over the reals.

A fusion ring of rank m is a unital ring with a distinguished basis
x_1 = 1, x_2, ..., x_m, nonnegative structure constants

    x_j x_k = sum_s N[j,k,s] x_s,

and an involution * on the index set with N[j,k,1] = delta_{j,k*}.
Allowing nonnegative real structure constants gives a fusion algebra.
This module holds the data model, axiom verification, Frobenius-Perron
dimensions, structural predicates, subring closure, isomorphism testing
and the unconditional upper bounds on the structure constants.

Indices are 0-based internally; index 0 is always the unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    BadInvolution,
    NegativeEntry,
    NoDuality,
    NonSquare,
    NotIntegral,
    NoUnit,
    RankTooLarge,
)

__all__ = [
    "FusionData",
    "TypeSignature",
    "AxiomCheck",
    "VerificationReport",
    "CoefficientBoundsReport",
    "new_fusion_data",
    "group_ring",
    "cyclic_group_ring",
    "verify_axioms",
    "fp_dimensions",
    "global_fpdim",
    "type_signature",
    "subring_closure",
    "proper_subrings",
    "is_simple",
    "is_perfect",
    "is_integral",
    "is_frobenius_type",
    "is_commutative",
    "are_isomorphic",
    "coefficient_bounds_report",
    "permuted",
]

#: |d_i - round(d_i)| below this counts as an integer dimension
INTEGER_TOL = 1e-6

#: rank cap for subring-lattice enumeration
SUBRING_RANK_CAP = 16

#: rank cap for isomorphism backtracking
ISO_RANK_CAP = 12


class FusionData:
    """A fusion ring/algebra given by its structure-constant tensor.

    Attributes
    ----------
    rank : int
        Number of basis elements m.
    tensor : (m, m, m) ndarray
        ``tensor[j, k, s] = N_{j,k}^s``.  An integer dtype makes the ring
        exact (integer arithmetic, no tolerances); any other dtype is
        compared with the float tolerances.
    dual : (m,) ndarray of int
        The duality involution; ``dual[0] == 0``.
    label : str or None
        Free-form name used by the corpus; keyword-only.

    ``exact`` and ``mode`` (``"exact"`` or ``"float"``) are read off the
    tensor's dtype, so they cannot disagree with the data.  Instances are
    immutable; the Frobenius-Perron dimension vector is computed lazily
    and cached (write-once).  Every ring keeps its table once computed:
    ``_char_table`` holds the character table ``spectral.character_table``
    or the search computed, with read-only arrays (write-once; None until
    then, and for a ring whose table raises).  ``_simple`` holds the flag
    ``is_simple`` or the search decided (write-once; None until then).
    ``_dual_young`` holds the outcome of the targeted dual-Young probes
    that ``bialgebra.inequality_suite`` takes on its first call: each
    pair's slack and scale as read-only arrays, and why the
    dual-projection probes were skipped (write-once; None until then, and
    kept for a ring whose table raises too).
    """

    __slots__ = ("rank", "tensor", "dual", "label", "_fp_dims", "_char_table", "_simple",
                 "_dual_young")

    def __init__(self, tensor, dual, *, label=None):
        tensor = np.asarray(tensor)
        self.rank = tensor.shape[0]
        self.tensor = tensor
        self.dual = np.asarray(dual, dtype=np.int64)
        self.label = label
        self._fp_dims = None
        self._char_table = None
        self._simple = None
        self._dual_young = None
        self.tensor.setflags(write=False)
        self.dual.setflags(write=False)

    def __setstate__(self, state):
        # unpickling (as from a worker process) restores arrays writeable:
        # freeze them again, the cached ones included (a table and a probe
        # record freeze their own)
        for name, value in state[1].items():
            setattr(self, name, value)
        for a in (self.tensor, self.dual, self._fp_dims):
            if a is not None:
                a.setflags(write=False)

    @property
    def exact(self) -> bool:
        return np.issubdtype(self.tensor.dtype, np.integer)

    @property
    def mode(self) -> str:
        return "exact" if self.exact else "float"

    def __repr__(self):
        name = f" {self.label!r}" if self.label else ""
        return f"<FusionData{name} rank={self.rank} mode={self.mode}>"

    def __eq__(self, other):
        if not isinstance(other, FusionData):
            return NotImplemented
        return (
            self.rank == other.rank
            and np.array_equal(self.tensor, other.tensor)
            and np.array_equal(self.dual, other.dual)
        )

    def __hash__(self):
        # by value, as __eq__ compares: an integer tensor hashes as its
        # float copy, and adding 0.0 turns each -0.0 into 0.0
        values = self.tensor.astype(np.float64) + 0.0
        return hash((self.rank, values.tobytes(), self.dual.tobytes()))


@dataclass(frozen=True)
class TypeSignature:
    """Multiset of Frobenius-Perron dimensions with multiplicities.

    ``entries`` is sorted ascending, e.g. ((1, 1), (5, 3), (6, 1), (7, 2)).
    For non-integral rings ``integral`` is False and the entries hold
    floats grouped at 1e-6 resolution.
    """

    entries: tuple
    integral: bool

    @property
    def rank(self) -> int:
        return sum(m for _, m in self.entries)

    @property
    def fpdim(self):
        return sum(m * n * n for n, m in self.entries)

    @property
    def dims(self) -> tuple:
        """The dimension list with multiplicities expanded, ascending."""
        return tuple(n for n, m in self.entries for _ in range(m))

    def __str__(self):
        inner = ",".join(f"[{n},{m}]" for n, m in self.entries)
        return f"[{inner}]"


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    ok: bool
    witness: Optional[tuple] = None
    residual: float = 0.0


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def __getitem__(self, name: str) -> AxiomCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary(self) -> str:
        return "; ".join(
            f"{c.name}: {'ok' if c.ok else f'FAIL at {c.witness} (residual {c.residual:g})'}"
            for c in self.checks
        )


# ---------------------------------------------------------------------------
# construction


def new_fusion_data(matrices: Sequence, mode: str = "exact", label=None) -> FusionData:
    """Assemble a FusionData from the list of fusion matrices.

    ``matrices[i]`` is the m-by-m matrix with entry (k, s) = N_{i,k}^s;
    matrix 0 must be the identity.  The duality involution is derived
    from the unit column N[j,k,0].  Every entry must be finite.
    ``mode="exact"`` rounds the entries to int64 (they must be integers),
    ``"float"`` casts them to float64.
    """
    if mode not in ("exact", "float"):
        raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")
    mats = [np.asarray(M) for M in matrices]
    m = len(mats)
    if m < 1:
        raise NonSquare("need at least one matrix")
    for i, M in enumerate(mats):
        if M.shape != (m, m):
            raise NonSquare(f"matrix {i + 1} has shape {M.shape}, expected {(m, m)}")
    tensor = np.stack(mats)
    if not np.isfinite(tensor.astype(float)).all():
        raise ValueError("structure constants must be finite")
    if mode == "exact":
        if not np.allclose(tensor, np.round(tensor.astype(float))):
            raise ValueError("exact mode requires integer structure constants")
        tensor = np.round(tensor.astype(float)).astype(np.int64)
    else:
        tensor = tensor.astype(np.float64)
    if tensor.min() < 0:
        j, k, s = np.unravel_index(int(np.argmin(tensor.reshape(-1))), tensor.shape)
        raise NegativeEntry(f"N[{j + 1},{k + 1},{s + 1}] = {tensor[j, k, s]} < 0")

    eye = np.eye(m, dtype=tensor.dtype)
    tol = _entry_tol(tensor, mode == "exact")
    if not _close(tensor[0], eye, tol):
        raise NoUnit("matrix 1 is not the identity")
    if not _close(tensor[:, 0, :], eye, tol):
        raise NoUnit("x_j * 1 != x_j for some j")

    # duality: N[j,k,0] = delta_{k, dual(j)}
    dual = np.full(m, -1, dtype=np.int64)
    unit_col = tensor[:, :, 0]
    for j in range(m):
        hits = [k for k in range(m) if not _close(unit_col[j, k], 0, tol)]
        if len(hits) != 1 or not _close(unit_col[j, hits[0]], 1, tol):
            raise NoDuality(f"row {j + 1} of the unit column is not a standard basis vector")
        dual[j] = hits[0]
    if not np.array_equal(dual[dual], np.arange(m)):
        raise BadInvolution("derived duality is not an involution")
    return FusionData(tensor, dual, label=label)


def group_ring(mult_table: np.ndarray, label=None) -> FusionData:
    """Fusion ring of a finite group given by its multiplication table.

    ``mult_table[g, h]`` is the index of g*h; index 0 is the neutral
    element.  N_{g,h}^s = delta_{s, gh}.
    """
    table = np.asarray(mult_table)
    n = table.shape[0]
    tensor = np.zeros((n, n, n), dtype=np.int64)
    for g in range(n):
        for h in range(n):
            tensor[g, h, table[g, h]] = 1
    dual = np.array([int(np.nonzero(table[g] == 0)[0][0]) for g in range(n)])
    return FusionData(tensor, dual, label=label)


def cyclic_group_ring(n: int) -> FusionData:
    """The group ring of Z/n."""
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return group_ring(table, label=f"z{n}")


def _entry_tol(tensor: np.ndarray, exact: bool) -> float:
    """Tolerance on structure constants: 0 for exact (integer) data, else
    1e-9 (1 + largest entry)."""
    return 0.0 if exact else 1e-9 * (1 + float(tensor.max()))


def _close(a, b, tol) -> bool:
    if tol == 0:
        return np.array_equal(np.asarray(a), np.asarray(b))
    return bool(np.max(np.abs(np.asarray(a, dtype=float) - b)) <= tol)


# ---------------------------------------------------------------------------
# axiom verification


def verify_axioms(fd: FusionData) -> VerificationReport:
    """Check unit, duality, Frobenius reciprocity, associativity, nonnegativity.

    Exact mode compares integers; float mode allows ``_entry_tol``, scaled
    once more for associativity.  The residuals come from
    ``_axiom_residuals``; this adds a witness to each failing check.
    """
    checks = []
    for name, (residual, tol, dev) in _axiom_residuals(fd.tensor[None], fd.dual,
                                                       fd.exact).items():
        residual, ok = float(residual[0]), bool(residual[0] <= tol[0])
        if dev is None:  # unit and duality: no witness, the residual either way
            checks.append(AxiomCheck(name, ok, None if ok else (1,), residual))
        elif ok:
            checks.append(AxiomCheck(name, True))
        else:
            idx = np.unravel_index(int(np.argmax(dev[0])), dev.shape[1:])
            if name == "frobenius_reciprocity":
                idx = idx[1:]  # drop which of the two identities
            checks.append(AxiomCheck(name, False, _w(idx), residual))
    return VerificationReport(tuple(checks))


def _axiom_residuals(N: np.ndarray, dual: np.ndarray, exact: bool) -> dict:
    """The residual of each axiom on every tensor of the stack ``N``
    (b, m, m, m), with involutions ``dual`` ((m,) or (b, m)): name ->
    (residual (b,), tolerance (b,), deviation).  Axiom ``name`` holds on
    ring r when residual[r] <= tolerance[r].  The residual is the maximum
    of the deviation over each ring, and its first maximum is the witness
    (None for unit and duality; frobenius_reciprocity stacks the two
    identities on axis 1, so the witness is the last three indices)."""
    b, m = N.shape[:2]
    axes = (1, 2, 3)
    ring = np.arange(b)[:, None]
    dual = np.broadcast_to(dual, (b, m))
    tol = np.zeros(b) if exact else 1e-9 * (1 + N.max(axis=axes).astype(float))
    out = {}

    neg = -N  # the first maximum of -N is the first minimum of N
    out["nonnegativity"] = (neg.max(axis=axes), tol, neg)

    eye = np.eye(m, dtype=N.dtype)
    unit = np.maximum(np.abs(N[:, 0] - eye).max(axis=(1, 2)),
                      np.abs(N[:, :, 0, :] - eye).max(axis=(1, 2)))
    out["unit"] = (unit, tol, None)

    want = np.zeros((b, m, m), dtype=N.dtype)
    want[ring, np.arange(m), dual] = 1
    out["duality"] = (np.abs(N[:, :, :, 0] - want).max(axis=(1, 2)), tol, None)

    # N[j,k,s] = N[k*,j*,s*] = N[j*,s,k]
    D = dual[:, :, None, None]  # D[b, j] = j* along axis 1
    star = N[ring[:, :, None, None], D.transpose(0, 2, 1, 3), D, D.transpose(0, 2, 3, 1)]
    rot = N[ring, dual].transpose(0, 1, 3, 2)
    frob = np.abs(N[:, None] - np.stack([star, rot], axis=1))
    out["frobenius_reciprocity"] = (frob.max(axis=(1, 2, 3, 4)), tol, frob)

    # sum_s N[i,j,s] N[s,k,t] == sum_s N[j,k,s] N[i,s,t], each side one
    # stacked matrix product: (i j, s) by (s, k t), and (j k, s) by each N[i]
    left = (N.reshape(b, m * m, m) @ N.reshape(b, m, m * m)).reshape((b,) + (m,) * 4)
    assoc_tol = tol if exact else tol * (1 + np.abs(left).max(axis=(1, 2, 3, 4)))
    right = (N.reshape(b, 1, m * m, m) @ N).reshape((b,) + (m,) * 4)
    diff = np.subtract(left, right, out=left)
    np.abs(diff, out=diff)  # in place: the (b, m^4) arrays dominate a stack's memory
    out["associativity"] = (diff.max(axis=(1, 2, 3, 4)), assoc_tol, diff)
    return out


def _w(idx) -> tuple:
    """1-based witness indices for reports."""
    return tuple(int(i) + 1 for i in idx)


# ---------------------------------------------------------------------------
# Frobenius-Perron data


def fp_dimensions(fd: FusionData) -> np.ndarray:
    """Frobenius-Perron dimension of every basis element.

    d_i is the spectral radius of the fusion matrix M_i, and the vector
    (d_1, ..., d_m) is the common Perron eigenvector of all M_i with
    d_1 = 1.  The total matrix T = sum_j M_j is symmetric, since
    M_j^T = M_{j*} (Frobenius reciprocity), and entrywise positive, so
    the top eigenvector from one ``eigh`` is its Perron vector (the
    individual M_i may be periodic, e.g. permutation matrices of a group
    ring, and have no unique top eigenvector).  Each d_i is read off by a
    Rayleigh quotient and v is checked as an eigenvector of every M_i.
    Input that ``new_fusion_data`` accepts but that is no fusion ring,
    such as a file breaking Frobenius reciprocity, has a nonsymmetric T,
    of which ``eigh`` reads one triangle only; the check fails there and
    the spectral radius of each M_i is used instead.
    """
    if fd._fp_dims is not None:
        return fd._fp_dims
    N = fd.tensor.astype(np.float64)
    v = np.abs(np.linalg.eigh(N.sum(axis=0))[1][:, -1])  # eigh fixes no sign
    Nv = N @ v  # Nv[i] = M_i v
    dims = Nv @ v / (v @ v)
    err = np.max(np.abs(Nv - dims[:, None] * v), axis=1)
    if not np.all(err <= 1e-9 * (1 + dims) * np.max(v)):
        dims = np.linalg.eigvals(N).real.max(axis=1)  # spectral radius of each M_i
    dims[0] = 1.0
    dims.setflags(write=False)  # cached on fd, shared by every caller
    fd._fp_dims = dims
    return dims


def global_fpdim(fd: FusionData) -> float:
    """FPdim of the ring: mu = sum_i d_i^2."""
    d = fp_dimensions(fd)
    return float(d @ d)


def type_signature(fd: FusionData) -> TypeSignature:
    """Group the FP dimensions into [[n_i, m_i], ...] sorted ascending,
    at ``INTEGER_TOL`` resolution."""
    d = np.sort(fp_dimensions(fd))
    integral = bool(np.max(np.abs(d - np.round(d))) <= INTEGER_TOL)
    entries = []
    for x in (np.round(d).astype(int).tolist() if integral else d.tolist()):
        if entries and abs(entries[-1][0] - x) <= INTEGER_TOL:
            entries[-1][1] += 1
        else:
            entries.append([x, 1])
    return TypeSignature(tuple((n, m) for n, m in entries), integral)


# ---------------------------------------------------------------------------
# subrings and predicates


def _closures(fds: Sequence[FusionData], gens: np.ndarray) -> np.ndarray:
    """Close every set of the boolean (r, b, m) array ``gens`` at once, set
    ``gens[r, b]`` in ring ``fds[r]`` (all of rank m): add the unit, then
    the duals and the fusion support of each set until no set changes.
    Each round adds an element to every set not yet closed, so at most m
    rounds run."""
    N = np.array([fd.tensor for fd in fds])
    r, m = N.shape[:2]
    tol = np.array([_entry_tol(fd.tensor, fd.exact) for fd in fds])
    support = (N > tol[:, None, None, None]).astype(np.int64).reshape(r, m, m * m)
    dual = np.array([fd.dual for fd in fds])[:, None, :]
    S = np.array(gens, dtype=bool)
    S[..., 0] = True
    while True:
        # s joins a set when N[j,k,s] > 0 for some j, k in it
        T = S.astype(np.int64)
        by_k = (T @ support).reshape(*S.shape, m)  # [r, b, k, s]: summed over the j in the set
        new = S | ((T[..., None, :] @ by_k)[..., 0, :] > 0)
        new |= np.take_along_axis(new, np.broadcast_to(dual, new.shape), axis=2)
        if np.array_equal(new, S):
            return S
        S = new


def subring_closure(fd: FusionData, generators: Iterable[int]) -> frozenset:
    """Smallest basis subset containing the generators that is closed
    under duality and fusion (and contains the unit).

    Indices are 0-based.
    """
    gens = np.zeros((1, 1, fd.rank), dtype=bool)
    gens[0, 0, [int(g) for g in generators]] = True
    return frozenset(np.flatnonzero(_closures([fd], gens)[0, 0]).tolist())


def proper_subrings(fd: FusionData) -> list:
    """All fusion subrings S with {1} != S != everything.

    Built as the union-closure of the single-generator closures; every
    subring is the closure of the union of the singleton closures of its
    members, so the generated lattice is complete.  Ranks above
    ``SUBRING_RANK_CAP`` raise RankTooLarge.
    """
    m = fd.rank
    if m > SUBRING_RANK_CAP:
        raise RankTooLarge(f"rank {m} exceeds subring enumeration cap {SUBRING_RANK_CAP}")

    def close(sets):
        gens = np.zeros((1, len(sets), m), dtype=bool)
        for row, S in zip(gens[0], sets):
            row[list(S)] = True
        return {frozenset(np.flatnonzero(row).tolist()) for row in _closures([fd], gens)[0]}

    closures = close([{j} for j in range(1, m)])
    lattice = set(closures)
    frontier = set(closures)
    while frontier:
        unions = {A | B for A in frontier for B in closures} - lattice
        frontier = close(list(unions)) - lattice
        lattice |= frontier
    return sorted(
        (S for S in lattice if 1 < len(S) < m),
        key=lambda S: (len(S), sorted(S)),
    )


def is_simple(fd: FusionData) -> bool:
    """No nontrivial proper fusion subring.

    Equivalently, every singleton {j}, j >= 1, generates the whole
    basis: a proper subring S != {1} holds some j != 0 and with it the
    closure of {j}, which is then proper too.  This needs m closures,
    not the subring lattice, so no rank cap applies.  The flag is kept
    on the ring (``_simple``, write-once), so this decides it once,
    whoever asks first: this function, or the search for the rings it
    returns.
    """
    if fd._simple is None:
        _decide_simple([fd])
    return fd._simple


def _decide_simple(fds: Sequence[FusionData]) -> None:
    """Give each of the rings ``fds``, all of one rank, that holds no
    simple flag yet its flag, from one stacked closure of every singleton
    of every ring."""
    todo = [fd for fd in fds if fd._simple is None]
    if not todo:
        return
    m = todo[0].rank
    gens = np.broadcast_to(np.eye(m, dtype=bool)[1:], (len(todo), m - 1, m))
    for fd, simple in zip(todo, _closures(todo, gens).all(axis=(1, 2)).tolist()):
        fd._simple = simple


def is_perfect(fd: FusionData) -> bool:
    """Exactly one basis element of dimension 1 (the unit)."""
    d = fp_dimensions(fd)
    return int(np.sum(np.abs(d - 1.0) <= INTEGER_TOL)) == 1


def is_integral(fd: FusionData) -> bool:
    d = fp_dimensions(fd)
    return bool(np.max(np.abs(d - np.round(d))) <= INTEGER_TOL)


def is_frobenius_type(fd: FusionData) -> bool:
    """Every d_i divides FPdim (integral rings only)."""
    if not is_integral(fd):
        raise NotIntegral("Frobenius-type test implemented for integral rings only")
    d = np.round(fp_dimensions(fd)).astype(int)
    mu = int(round(global_fpdim(fd)))
    return all(mu % int(n) == 0 for n in d)


def is_commutative(fd: FusionData) -> bool:
    N = fd.tensor
    if fd.exact:
        return bool(np.array_equal(N, N.transpose(1, 0, 2)))
    return bool(np.max(np.abs(N - N.transpose(1, 0, 2))) <= _entry_tol(N, False))


# ---------------------------------------------------------------------------
# isomorphism


def permuted(fd: FusionData, perm: Sequence[int]) -> FusionData:
    """Relabel the basis: new index perm[j] corresponds to old index j."""
    p = np.asarray(perm, dtype=np.int64)
    m = fd.rank
    inv = np.empty(m, dtype=np.int64)
    inv[p] = np.arange(m)
    N = fd.tensor[inv][:, inv][:, :, inv]
    dual = p[fd.dual[inv]]
    return FusionData(N, dual, label=fd.label)


def are_isomorphic(fd1: FusionData, fd2: FusionData) -> Optional[tuple]:
    """Basis relabeling sigma with sigma(1)=1 carrying tensor1 to tensor2.

    Returns the permutation (as a tuple: new index of old j) or None.
    Candidates are pruned by FP dimension, self-duality and the sorted
    entry multiset of each fusion matrix before backtracking.  Ranks
    above ``ISO_RANK_CAP`` raise RankTooLarge.
    """
    if fd1.rank != fd2.rank:
        return None
    m = fd1.rank
    if m > ISO_RANK_CAP:
        raise RankTooLarge(f"rank {m} exceeds isomorphism search cap {ISO_RANK_CAP}")
    d1, d2 = fp_dimensions(fd1), fp_dimensions(fd2)
    if not np.allclose(np.sort(d1), np.sort(d2), atol=1e-8):
        return None

    def fingerprint(fd, d):
        fps = []
        for j in range(fd.rank):
            mat = np.asarray(fd.tensor[j], dtype=float)
            fps.append(
                (
                    round(float(d[j]), 6),
                    int(fd.dual[j] == j),
                    round(float(fd.tensor[j, j, j]), 6),
                    tuple(np.round(np.sort(mat.reshape(-1)), 6)),
                )
            )
        return fps

    f1, f2 = fingerprint(fd1, d1), fingerprint(fd2, d2)
    cands = [[k for k in range(m) if f2[k] == f1[j]] for j in range(m)]
    if any(not c for c in cands):
        return None

    N1 = np.asarray(fd1.tensor, dtype=float)
    N2 = np.asarray(fd2.tensor, dtype=float)
    tol = 0.0 if (fd1.exact and fd2.exact) else 1e-7
    sigma = np.full(m, -1, dtype=np.int64)
    used = np.zeros(m, dtype=bool)
    order = sorted(range(1, m), key=lambda j: len(cands[j]))

    def consistent() -> bool:  # the tensors agree on every assigned triple
        a = np.flatnonzero(sigma >= 0)
        s = sigma[a]
        return not (np.abs(N1[np.ix_(a, a, a)] - N2[np.ix_(s, s, s)]) > tol).any()

    def extend(pos: int) -> bool:
        if pos == len(order):
            return True
        j = order[pos]
        for k in cands[j]:
            if used[k] or int(fd2.dual[k] == k) != int(fd1.dual[j] == j):
                continue
            # duality must be intertwined as soon as both ends are placed
            dj = int(fd1.dual[j])
            if sigma[dj] >= 0 and sigma[dj] != int(fd2.dual[k]):
                continue
            sigma[j] = k
            used[k] = True
            if consistent() and extend(pos + 1):
                return True
            sigma[j] = -1
            used[k] = False
        return False

    sigma[0] = 0
    used[0] = True
    if extend(0):
        return tuple(int(x) for x in sigma)
    return None


# ---------------------------------------------------------------------------
# coefficient bounds


@dataclass(frozen=True)
class CoefficientBoundsReport:
    """Slack of the four unconditional bounds on the structure constants.

    Each field holds (min slack, witness indices, 1-based).  All four
    slacks are nonnegative on any genuine fusion ring; a violation
    certifies that the tensor is not a fusion ring or the dimensions
    are wrong.
    """

    square_sum: tuple
    cross_dim: tuple
    min_dim: tuple
    pair_sum: tuple

    @property
    def all_hold(self) -> bool:
        return all(
            s[0] >= -1e-9 for s in (self.square_sum, self.cross_dim, self.min_dim, self.pair_sum)
        )


def coefficient_bounds_report(fd: FusionData) -> CoefficientBoundsReport:
    """Evaluate the four inequalities of the fusion-coefficient bound set.

    (1) sum_l N[j,k,l]^2 <= min(d_j^2, d_k^2)
    (2) N[j,k,l] <= d_l * min(d_j,d_k)/max(d_j,d_k)
        (the infimum over t >= 1 of d_l d_j^{(2-t)/t} d_k^{(t-2)/t})
    (3) N[j,k,l] <= min(d_j, d_k, d_l)
    (4) sum_s N[j1,j2,s] N[j3,j4,s] <= min over pairs j != j' of d_j d_j'
    """
    N = np.asarray(fd.tensor, dtype=float)
    d = fp_dimensions(fd)

    sq = np.einsum("jkl,jkl->jk", N, N)
    bound1 = np.minimum.outer(d**2, d**2)
    slack1 = bound1 - sq
    i1 = np.unravel_index(int(np.argmin(slack1)), slack1.shape)

    ratio = np.minimum.outer(d, d) / np.maximum.outer(d, d)
    bound2 = ratio[:, :, None] * d[None, None, :]
    slack2 = bound2 - N
    i2 = np.unravel_index(int(np.argmin(slack2)), slack2.shape)

    bound3 = np.minimum(np.minimum.outer(d, d)[:, :, None], d[None, None, :])
    slack3 = bound3 - N
    i3 = np.unravel_index(int(np.argmin(slack3)), slack3.shape)

    # the least d_j d_j' over the pairs of (j1, j2, j3, j4) is the product
    # of the two smallest of the four dimensions
    pair = np.einsum("abs,cds->abcd", N, N)
    four = np.sort(np.stack(np.meshgrid(d, d, d, d, indexing="ij"), axis=-1), axis=-1)
    slack4 = four[..., 0] * four[..., 1] - pair
    i4 = np.unravel_index(int(np.argmin(slack4)), slack4.shape)

    return CoefficientBoundsReport(
        (float(slack1[i1]), _w(i1)),
        (float(slack2[i2]), _w(i2)),
        (float(slack3[i3]), _w(i3)),
        (float(slack4[i4]), _w(i4)),
    )
