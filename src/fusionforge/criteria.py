"""Analytic obstructions to unitary categorification.

The Schur product property on the dual of a fusion ring is necessary
for the ring to be the Grothendieck ring of a unitary fusion category.
For a commutative ring with character table (lambda_{i,j}) it is
equivalent to

    sum_i lambda_{i,j1} lambda_{i,j2} lambda_{i,j3} / lambda_{i,1} >= 0

for every triple of columns (j1, j2, j3).  The noncommutative criterion
quantifies over vectors: sum_i prod_s (u_s^* M_i u_s) / d_i >= 0 for
all u_1, u_2, u_3.  On a commutative ring u^* M_i u = sum_t
|<v_t, u>|^2 lambda_{i,t} over the unit joint eigenvectors v_t, so every
such value is a nonnegative combination of triple sums and the
character table decides it; on a noncommutative ring sampling can only
falsify it, never certify it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rings
from .rings import FusionData, fp_dimensions, global_fpdim
from .spectral import CharacterTable, character_table

__all__ = [
    "SchurReport",
    "FalsifierWitness",
    "ObstructionReport",
    "schur_triple_sum",
    "schur_commutative",
    "schur_noncommutative_falsify",
    "obstruction_report",
    "decision_tol",
]

#: samples the falsifier draws unless told otherwise
FALSIFIER_SAMPLES = 10_000


def decision_tol(mu: float) -> float:
    """Decision tolerance for Schur positivity: 1e-9 * (1 + FPdim)."""
    return 1e-9 * (1.0 + mu)


@dataclass(frozen=True, eq=False)
class SchurReport:
    """The Schur verdict: the least triple sum ``worst_value`` (at the
    1-based columns ``worst_triple``) against ``tolerance``, the
    ``decision_tol`` of the ring.  It holds when the worst value is at
    least -tolerance, and is inconclusive when it lies in [-tolerance, 0).
    ``values`` holds the real parts of all triple sums it decided on, a
    read-only array over the triples a <= b <= c in nested-loop order.
    """

    worst_triple: tuple
    worst_value: float
    tolerance: float
    values: np.ndarray
    max_imag: float

    def __setstate__(self, state):
        # unpickling (as from a worker process) restores values writeable
        state["values"].setflags(write=False)
        self.__dict__.update(state)

    @property
    def holds(self) -> bool:
        return self.worst_value >= -self.tolerance

    @property
    def inconclusive(self) -> bool:
        return -self.tolerance <= self.worst_value < 0

    def __str__(self):
        verdict = "holds" if self.holds else "FAILS"
        note = " [worst value negative but within numerical tolerance]" if self.inconclusive else ""
        return (
            f"Schur product criterion {verdict}: worst triple {self.worst_triple} "
            f"-> {self.worst_value:.9g} (tol {self.tolerance:.3g}){note}"
        )


def _triple_sums(lam: np.ndarray) -> np.ndarray:
    """All Schur triple sums of a character table, as an (m, m, m) array,
    or of a stack of tables (..., m, m), one (m, m, m) array each.

    ``S[a, b, c] = sum_i lam[i,a] lam[i,b] lam[i,c] / lam[i,0]``, with
    the Frobenius-Perron column first; S is symmetric in a, b, c.
    """
    w = lam / lam[..., 0].real[..., None]  # w[i,j] = lam[i,j]/d_i
    return np.einsum("...ia,...ib,...ic->...abc", lam, lam, w)


@functools.cache
def _sorted_triples(m: int) -> np.ndarray:
    """The triples a <= b <= c as a read-only (n, 3) array, in nested-loop
    order."""
    out = np.array(list(itertools.combinations_with_replacement(range(m), 3)))
    out.flags.writeable = False
    return out


def schur_triple_sum(ct: CharacterTable, j1: int, j2: int, j3: int) -> complex:
    """sum_i lam[i,j1] lam[i,j2] lam[i,j3] / lam[i,1] for 0-based columns.

    The imaginary part is returned for diagnostics; on a genuine
    character table it vanishes up to numerical noise.
    """
    return complex(_triple_sums(ct.lam)[j1, j2, j3])


def schur_commutative(ct: CharacterTable) -> SchurReport:
    """Scan all column triples j1 <= j2 <= j3 (the sum is symmetric).

    Every triple sum comes from one contraction of the table; the report
    names the smallest, the first in a <= b <= c order on a tie.  Values
    in [-tol, 0) are flagged inconclusive rather than failed, with tol the
    ``decision_tol`` of the ring, whose FPdim is read off the table's
    Perron column.  The report is kept on the table (``_schur``,
    write-once), so this decides a table once, whoever asks first: this
    function, or the search for the rings it returns.
    """
    return _schur_reports([ct])[0]


def _schur_reports(tables: list) -> list:
    """``schur_commutative`` of each of the character tables ``tables``,
    all of one rank, as one stack: one contraction gives the triple sums
    of every table without a report, and each of them keeps its own."""
    todo = [ct for ct in tables if ct._schur is None]
    if todo:
        lam = np.array([ct.lam for ct in todo])
        tol = decision_tol(np.sum(lam[:, :, 0].real ** 2, axis=1))
        sums = _triple_sums(lam)
        a, b, c = _sorted_triples(lam.shape[1]).T
        values = sums.real[:, a, b, c]
        values.flags.writeable = False
        worst = values.argmin(axis=1).tolist()
        imag = np.abs(sums.imag).max(axis=(1, 2, 3)).tolist()
        for ct, v, k, t, im in zip(todo, values, worst, tol.tolist(), imag):
            triple = (int(a[k]) + 1, int(b[k]) + 1, int(c[k]) + 1)
            object.__setattr__(ct, "_schur", SchurReport(triple, float(v[k]), t, v, im))
    return [ct._schur for ct in tables]


@dataclass(frozen=True)
class FalsifierWitness:
    vectors: tuple  # (u1, u2, u3)
    value: float
    sample_index: int


def schur_noncommutative_falsify(
    fd: FusionData,
    num_samples: int = FALSIFIER_SAMPLES,
    seed: int = 0,
) -> Optional[FalsifierWitness]:
    """Search for vectors violating the representation-based criterion
    sum_i prod_{s=1..3} (u_s^* M_i u_s) / d_i >= 0.

    A commutative ring is decided by its character table, with no sample
    drawn: None when ``schur_commutative`` holds, else the joint
    eigenvectors of its first failing triple a <= b <= c (``sample_index``
    -1).  A noncommutative ring is sampled with random complex Gaussian
    triples and the first value below -``decision_tol`` is returned, else
    None; there the absence of a witness is NOT a proof that the
    property holds.
    """
    d = fp_dimensions(fd)
    N = np.asarray(fd.tensor, dtype=complex)
    m = fd.rank

    def evaluate(u1, u2, u3) -> float:
        q1 = np.einsum("k,ikl,l->i", np.conj(u1), N, u1)
        q2 = np.einsum("k,ikl,l->i", np.conj(u2), N, u2)
        q3 = np.einsum("k,ikl,l->i", np.conj(u3), N, u3)
        return float(np.sum(q1 * q2 * q3 / d).real)

    if rings.is_commutative(fd):
        ct = character_table(fd)
        rep = schur_commutative(ct)
        if rep.holds:
            return None
        first = int(np.argmax(rep.values < -rep.tolerance))
        u = tuple(ct.vectors[:, j] for j in _sorted_triples(m)[first])
        return FalsifierWitness(u, evaluate(*u), -1)
    tol = decision_tol(global_fpdim(fd))
    rng = np.random.default_rng(seed)
    for counter in range(num_samples):
        u = rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m))
        val = evaluate(u[0], u[1], u[2])
        if val < -tol:
            return FalsifierWitness((u[0], u[1], u[2]), val, counter)
    return None


@dataclass(frozen=True)
class ObstructionReport:
    """Predicate flags and obstruction results for one ring."""

    label: Optional[str]
    rank: int
    fpdim: float
    type_string: str
    integral: bool
    commutative: bool
    simple: bool
    perfect: bool
    frobenius_type: Optional[bool]
    schur: Optional[SchurReport]
    falsifier: Optional[FalsifierWitness]
    coefficient_bounds_hold: bool

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "rank": self.rank,
            "fpdim": self.fpdim,
            "type": self.type_string,
            "integral": self.integral,
            "commutative": self.commutative,
            "simple": self.simple,
            "perfect": self.perfect,
            "frobenius_type": self.frobenius_type,
            "schur_holds": None if self.schur is None else self.schur.holds,
            "schur_worst_value": None if self.schur is None else self.schur.worst_value,
            "schur_worst_triple": None if self.schur is None else list(self.schur.worst_triple),
            "falsifier_value": None if self.falsifier is None else self.falsifier.value,
            "coefficient_bounds_hold": self.coefficient_bounds_hold,
        }


def obstruction_report(fd: FusionData) -> ObstructionReport:
    """Bundle the structural predicates with the Schur obstruction.

    For commutative rings the decisive character-table criterion is
    used; noncommutative rings run the sampling falsifier with its
    defaults (``FALSIFIER_SAMPLES`` samples, seed 0).
    """
    sig = rings.type_signature(fd)
    integral = sig.integral
    commutative = rings.is_commutative(fd)
    frob = rings.is_frobenius_type(fd) if integral else None
    schur = None
    witness = None
    if commutative:
        schur = schur_commutative(character_table(fd))
    else:
        witness = schur_noncommutative_falsify(fd)
    return ObstructionReport(
        label=fd.label,
        rank=fd.rank,
        fpdim=global_fpdim(fd),
        type_string=str(sig),
        integral=integral,
        commutative=commutative,
        simple=rings.is_simple(fd),
        perfect=rings.is_perfect(fd),
        frobenius_type=frob,
        schur=schur,
        falsifier=witness,
        coefficient_bounds_hold=rings.coefficient_bounds_report(fd).all_hold,
    )
