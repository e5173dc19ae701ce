"""Classification search for fusion rings.

Pipeline: enumerate candidate type signatures under the arithmetic
constraints, enumerate duality involutions up to relabeling, then
backtrack over the structure-constant tensor.  The tensor search keys
on three facts:

* Frobenius reciprocity partitions the cells N[j,k,s] into orbits of
  size at most 6; one variable per orbit.  Orbits are taken in a static
  order: by row dimension product and then heavy columns when
  dimensions are known, else greedily by the associativity instances
  each completes.
* For every pair (j,k) the dimension equation
  sum_s N[j,k,s] d_s = d_j d_k is an exact integer knapsack.  Each is
  linear in an orbit's value, so before an orbit is tried the kernel
  narrows it to the interval of values that leave every row it touches
  feasible, and only values in that interval become search nodes.
* Each orbit is capped by the least row-sum cap floor(d_j d_k / d_s) of
  its cells (j,k,s), (j*,s,k), (k,s*,j*).  With their dimensions sorted
  as a <= b <= c that is at most ab/c <= a, so N[j,k,s] <= min(d_j,d_k,d_s);
  and N <= d_s min(d_j,d_k)/max(d_j,d_k), so summing N^2 over a row gives
  sum_s N[j,k,s]^2 <= min(d_j,d_k)^2 - [k = j*].  Neither bound is applied
  separately.

Associativity instances (i, j, k, t >= 1) are checked the moment their
last cell is assigned, each distinct equation once: Frobenius
reciprocity makes up to 8 instances one equation (``_assoc_instances``).
The relabelings of a unit are the permutations
that fix the unit, commute with the involution and preserve dimensions
(all equal when unknown, as in the rank-5 family); every isomorphism
between two rings with the same dimensions and involution is one.  The
kernel keeps only the lex-leader of each class: it rejects a value as
soon as some relabeling maps the orbit values assigned so far, read in
search order, to a lexicographically smaller assignment.  Caps, row
equations and associativity are invariant under relabeling, so each
class keeps exactly its least tensor.  Found tensors are keyed by
canonical form, the least tensor over the relabelings, so equal keys are
exactly isomorphic rings and no pairwise test is needed; a key found
twice means the symmetry breaking failed, and raises.

A unit's found tensors are then handled as stacks, not one by one: one
fancy index per relabeling keys them all, one stacked check verifies
the axioms, one stacked closure decides which are simple, and the
character tables and Schur reports of the commutative rings are
computed together.  Each ring keeps its flag and table, and each table
its report, so ``classify`` and every later ``is_simple``,
``character_table`` or ``schur_commutative`` call read them.

Each (type, involution) unit becomes flat int64 arrays, each built by
whole-array numpy operations with no loop over cells: orbit numbers,
caps, search order, cell layout, each orbit's rows, the associativity
trigger table and the action of the relabelings on search positions.
The inner DFS is an iterative loop over those arrays.  It runs as C
(``_kernel.c``, built on first use with the system C compiler and
loaded through ctypes), else as plain Python, which stays the reference
for the C kernel.  ``KERNEL_BACKEND`` names the backend in use.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import importlib.util
import itertools
import json
import math
import os
import shutil
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from . import criteria, rings, spectral
from .errors import (
    DegenerateSpectrum,
    FusionError,
    InvalidSearchResult,
    ParseError,
    SearchTimeout,
    UnboundedSearch,
)
from .rings import FusionData, TypeSignature

# whether numba is importable, for callers that report it; the search
# itself does not use numba
_HAVE_NUMBA = importlib.util.find_spec("numba") is not None


__all__ = [
    "SearchConstraints",
    "SearchStats",
    "TypeResult",
    "ClassificationReport",
    "enumerate_types",
    "enumerate_involutions",
    "enumerate_fusion_rings",
    "classify",
    "rank5_three_selfadjoint_family",
    "RANK5_TEMPLATE_DUAL",
]


# ---------------------------------------------------------------------------
# constraints and type enumeration


@dataclass(frozen=True)
class SearchConstraints:
    """Arithmetic filters for the type enumeration and tensor search.

    ``fpdim`` and ``rank`` accept an exact value or an inclusive
    (min, max) range; ``fpdim`` must be bounded.  The boolean flags
    mirror the necessary conditions used for the simple/perfect hunt:
    divisibility of every dimension into FPdim (Frobenius type),
    perfectness (no nontrivial dimension-1 elements), a floor on the
    second dimension, gcd-one of the non-unit dimensions, exclusion of
    FPdim of the form p^a q^b or pqr, and the growth cap n_{i+1} < n_i^2.
    """

    fpdim: object = None
    rank: object = None
    require_divisibility: bool = False
    require_perfect: bool = False
    min_d2: int = 1
    require_gcd_one: bool = False
    exclude_prime_power_products: bool = False
    growth_cap: bool = False
    max_multiplicity: Optional[int] = None

    def fpdim_range(self) -> tuple:
        if self.fpdim is None:
            raise UnboundedSearch("fpdim must be bounded")
        if isinstance(self.fpdim, (tuple, list)):
            lo, hi = self.fpdim
        else:
            lo = hi = int(self.fpdim)
        if hi is None or hi != hi or hi == math.inf:
            raise UnboundedSearch("fpdim upper bound must be finite")
        return int(lo), int(hi)

    def rank_range(self) -> tuple:
        if self.rank is None:
            return 1, None
        if isinstance(self.rank, (tuple, list)):
            lo, hi = self.rank
            return int(lo), None if hi is None else int(hi)
        return int(self.rank), int(self.rank)


def _distinct_prime_factors(n: int) -> list:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def _excluded_fpdim(mu: int) -> bool:
    """FPdim of the form p^a q^b (including prime powers) or p q r."""
    fac = _distinct_prime_factors(mu)
    if len(fac) <= 2:
        return True
    if len(fac) == 3 and all(e == 1 for _, e in fac):
        return True
    return False


def enumerate_types(constraints: SearchConstraints) -> list:
    """All type signatures compatible with the constraints, in lex order."""
    lo, hi = constraints.fpdim_range()
    rlo, rhi = constraints.rank_range()
    out = []
    for mu in range(max(lo, 1), hi + 1):
        if constraints.exclude_prime_power_products and _excluded_fpdim(mu):
            continue
        for m1 in ([1] if constraints.require_perfect else range(1, mu + 1)):
            if m1 > 1 and constraints.min_d2 > 1:
                continue  # the second basis element would have dimension 1
            rest = mu - m1  # budget for sum m_i n_i^2 over n_i >= 2

            def extend(prev_n, budget, parts, slots):
                if budget == 0:
                    r = m1 + slots
                    if r < rlo or (rhi is not None and r > rhi):
                        return
                    if constraints.require_gcd_one and parts:
                        if math.gcd(*(n for n, _ in parts)) != 1:
                            return
                    entries = ((1, m1),) + tuple(parts)
                    out.append(TypeSignature(entries, True))
                    return
                # each free slot holds at most one dimension n with n^2 <= budget
                top = math.isqrt(budget)
                if rhi is not None and budget > (rhi - m1 - slots) * top * top:
                    return
                if constraints.growth_cap and parts:
                    top = min(top, prev_n * prev_n - 1)  # n_{i+1} < n_i^2
                for n in range(max(prev_n + 1, 2), top + 1):
                    if constraints.require_divisibility and mu % n != 0:
                        continue
                    if parts == [] and n < constraints.min_d2:
                        continue
                    for k in range(1, budget // (n * n) + 1):
                        if rhi is not None and m1 + slots + k > rhi:
                            break
                        extend(n, budget - k * n * n, parts + [(n, k)], slots + k)

            extend(1, rest, [], 0)
    out.sort(key=lambda t: (t.fpdim, t.rank, t.entries))
    return out


def enumerate_involutions(sig: TypeSignature) -> list:
    """Duality involutions up to dimension-preserving relabeling.

    Duality preserves dimension, so an involution acts within each
    dimension class; up to conjugation only the number of 2-cycles per
    class matters.  Representatives pair consecutive indices.  Returns
    0-based permutations as tuples; index 0 (the unit) is always fixed.
    """
    m = sig.rank
    blocks = []  # (start, size) per dimension class, unit excluded from pairing
    pos = 0
    for n, k in sig.entries:
        start, size = pos, k
        if pos == 0:
            start, size = 1, k - 1  # the unit is self-dual by its own class
        blocks.append((start, size))
        pos += k
    choices = [range(size // 2 + 1) for _, size in blocks]
    out = []
    for combo in itertools.product(*choices):
        perm = list(range(m))
        for (start, _size), ncyc in zip(blocks, combo):
            for t in range(ncyc):
                a, b = start + 2 * t, start + 2 * t + 1
                perm[a], perm[b] = b, a
        out.append(tuple(perm))
    return out


# ---------------------------------------------------------------------------
# orbit structure


def _build_problem(dims, dual, max_mult=None):
    """Flatten the orbit/row/equation structure for the DFS kernel.

    Built array at a time over the free cells N[j,k,s] (j, k, s >= 1),
    taken in lex order, which is the order of their flat index
    j*m*m + k*m + s.  Frobenius reciprocity N[j,k,s] = N[k*,j*,s*] =
    N[j*,s,k] gives two involutions of the cells whose product has order
    3, so together they make six permutations; the least cell a cell
    reaches under the six stands for its orbit, and orbits are numbered
    in the order of their least cells.  With dimensions, orbits are
    searched in the order they first appear among the cells sorted by
    (d_j d_k, j, k, -d_s, s): rows by cheap dimension product, heavy
    columns first.  Without, the greedy associativity order applies.
    The kernel's cell arrays list the cells by (search position, flat
    index), and its orbit-row arrays list the distinct rows (j, k) of
    each orbit by (search position, row) with the orbit's summed d_s in
    the row and the row's REST, the summed cap * d_s of its cells at
    later search positions; there are none without dimensions.  Each
    orbit is capped by the least row-sum cap floor(d_j d_k / d_s) over
    its cells and by ``max_mult``.
    ``eq_data`` holds one associativity instance per dihedral orbit
    (``_assoc_instances``), so each distinct equation once, sorted by the
    search position that completes it, with ``eq_ptr`` delimiting each
    position's; the trigger is the latest search position among the
    orbits of an instance's cells.  ``group`` holds the unit's
    relabelings (``_dedup_group``), the identity first, and ``sym`` their
    action on search positions for the kernel's lex-leader test, one row
    per relabeling but the identity.

    What depends on the involution alone is read from its cached
    ``_involution_tables``: the orbits, their sizes and least cells, the
    distinct (orbit, row) pairs, the flat cell indices, the unit's row
    mask, ``init_tensor`` and the orbits of each instance's cells.  The
    group and its action on the orbits are cached per dimension-class
    pattern and involution (``_unit_group``).  Each unit computes only what its dimensions
    decide: row targets, caps, search order and positions, REST, the
    trigger sort and ``sym``.

    ``dims=None`` (unknown dimensions, as in the rank-5 family) drops the
    dimension knapsack and caps every orbit at ``max_mult`` alone.
    """
    m = len(dual)
    use_dims = dims is not None
    if not use_dims and max_mult is None:
        raise ValueError("max_multiplicity is required without dimensions")
    if max_mult is not None and max_mult < 0:
        raise ValueError(f"max_multiplicity must be nonnegative, got {max_mult}")
    dims = list(dims) if use_dims else [1] * m
    dual = tuple(map(int, dual))
    tab = _involution_tables(dual)
    n, norb, orbit = m - 1, tab.norb, tab.orbit
    d = np.asarray(dims, dtype=np.int64)
    dd = d[1:]  # dimensions of the free indices
    dprod = np.multiply.outer(dd, dd)
    row_target = dprod.ravel() - tab.unit_row

    # caps per orbit: the least row-sum cap floor(d_j d_k / d_s) over the
    # orbit when dimensions are known, and the multiplicity cap
    cap = np.full(norb, _INT64_MAX if max_mult is None else max_mult, dtype=np.int64)
    if use_dims:
        np.minimum.at(cap, orbit, (dprod[:, :, None] // dd).ravel())

    # search order: rows by (d_j d_k, j, k), cells of a row by (-d_s, s);
    # orbits by their first cell in that order
    if use_dims:
        rows = dprod.ravel().argsort(kind="stable")
        cols = (-dd).argsort(kind="stable")
        first = np.full(norb, n**3)
        np.minimum.at(first, orbit[(rows[:, None] * n + cols).ravel()], tab.lex)
        orb_order = first.argsort()
    else:
        orb_order = _greedy_assoc_order(dual)
    # search position of each orbit, in the narrowest integer type that
    # holds norb so that the stable sorts by position are radix sorts
    orb_pos = np.empty(norb, dtype=np.min_scalar_type(norb))
    orb_pos[orb_order] = np.arange(norb)

    # flatten orbit cells in search order; a stable sort keeps each orbit's
    # cells in lex order, which is flat-index order
    layout = orb_pos[orbit].argsort(kind="stable")
    orb_ptr = np.zeros(norb + 1, dtype=np.int64)
    orb_ptr[1:] = tab.orbit_size[orb_order].cumsum()

    # the distinct rows of each orbit, by (search position, row), with the
    # orbit's summed d_s in the row and the row's REST.  The (orbit, row)
    # pairs are cached in (orbit, row) order, so a stable sort by position
    # puts them in (search position, row) order.  Without dimensions there
    # is no row equation, so every orbit has none.
    orb_row_ptr = np.zeros(norb + 1, dtype=np.int64)
    if use_dims:
        by_pos = orb_pos[tab.pair_orbit].argsort(kind="stable")
        orb_row = tab.pair_row[by_pos]
        wt = tab.pair_cols @ dd
        orb_row_wt = wt[by_pos]
        orb_row_ptr[1:] = tab.orbit_rows[orb_order].cumsum()
        # REST, in (row, search position) order: the row's total less its running sum
        by_row = orb_row.argsort(kind="stable")
        held = (cap[tab.pair_orbit] * wt)[by_pos][by_row].cumsum()
        orb_row_rest = np.empty_like(orb_row)
        orb_row_rest[by_row] = held[tab.row_last[orb_row[by_row]]] - held
    else:
        orb_row = orb_row_wt = orb_row_rest = np.zeros(0, dtype=np.int64)

    # associativity instances, one per equation (``_assoc_instances``),
    # triggered at the orbit that completes their last free cell
    trig = orb_pos[tab.inst_orbits].max(axis=0, initial=0)
    # a stable sort keeps (i, j, k, t) order within each trigger
    eq_data = tab.inst[trig.argsort(kind="stable")]
    eq_by_orbit_ptr = np.zeros(norb + 1, dtype=np.int64)
    eq_by_orbit_ptr[1:] = np.bincount(trig, minlength=norb).cumsum()

    # lex-leader symmetry breaking: sym[g, p] is the search position of the
    # orbit that relabeling g maps the orbit at position p to.  Row 0 of the
    # group is the identity and gets no row.
    group, moves = _unit_group(tuple(map(dims.index, dims)), dual)
    sym = orb_pos[moves[:, orb_order]].astype(np.int64, order="C")

    return {
        "m": m,
        "d": d,
        "norb": norb,
        "orb_ptr": orb_ptr,
        "cell_idx": tab.cell_idx[layout],
        "caps": cap[orb_order],
        "orb_row_ptr": orb_row_ptr,
        "orb_row": orb_row,
        "orb_row_wt": orb_row_wt,
        "orb_row_rest": orb_row_rest,
        "row_target": row_target,
        "eq_ptr": eq_by_orbit_ptr,
        "eq_data": eq_data,
        "sym": sym,
        "init_tensor": tab.init_tensor,
        "group": group,
    }


#: entries of the per-involution and per-group caches: a whole rank-8
#: census with the paper flags (FPdim 1-4079, 8,196 units) has 21
#: involutions and 264 (dimension-class pattern, involution) pairs
_UNIT_CACHE_SIZE = 512


def _read_only(*arrays) -> None:
    for a in arrays:
        a.setflags(write=False)  # cached, shared by every problem that reads it


@dataclass(frozen=True)
class _InvolutionTables:
    """What ``_build_problem`` needs of an involution whose free part has
    n = m - 1 indices, every array read-only.

    ``lex``: the lex positions 0..n^3-1 of the free cells; ``cell_idx``
    their flat indices j*m*m + k*m + s.  ``orbit``: the Frobenius orbit
    of each cell (``_frobenius_orbits``), of ``norb``; ``orbit_size`` its
    cell count and ``least`` the (j, k, s), 0-based, of its least cell.
    ``pair_orbit`` and ``pair_row`` list the distinct (orbit, row) pairs,
    row (j, k) being (j - 1) n + k - 1, in (orbit, row) order;
    ``pair_cols`` is 1 in the column s of each cell (j, k, s) of a pair,
    so that ``pair_cols @ d`` sums a pair's d_s; ``orbit_rows`` is the
    pair count of each orbit and ``row_last`` the index of each row's last
    pair in (row, orbit) order.  ``unit_row``: 1 on the rows (j, j*), whose unit
    column is fixed at 1.  ``init_tensor``: the fixed cells, flat.
    ``inst``: ``_assoc_instances``; ``inst_orbits`` the orbits of the free
    cells (i,j,s), (s,k,t), (j,k,s), (i,s,t), s >= 1, of each instance, one
    column per instance; its cells with s = 0 are fixed.
    """

    norb: int
    lex: np.ndarray
    cell_idx: np.ndarray
    orbit: np.ndarray
    orbit_size: np.ndarray
    least: np.ndarray
    pair_orbit: np.ndarray
    pair_row: np.ndarray
    pair_cols: np.ndarray
    orbit_rows: np.ndarray
    row_last: np.ndarray
    unit_row: np.ndarray
    init_tensor: np.ndarray
    inst: np.ndarray
    inst_orbits: np.ndarray


@functools.lru_cache(maxsize=_UNIT_CACHE_SIZE)
def _involution_tables(dual: tuple) -> _InvolutionTables:
    """The tables of the involution ``dual`` that do not depend on the
    dimensions (see ``_InvolutionTables``), cached per involution."""
    m, n = len(dual), len(dual) - 1
    du = np.asarray(dual, dtype=np.int64)
    dn = du[1:] - 1  # the dual of each free index, 0-based
    orbit, is_least = _frobenius_orbits(dn)
    norb = int(np.count_nonzero(is_least))
    lex = np.arange(n**3)
    ar = np.arange(1, m)
    cell_idx = ((ar[:, None, None] * m + ar[:, None]) * m + ar).ravel()
    pairs, cell_pair = np.unique(orbit * n * n + lex // n, return_inverse=True)
    pair_orbit, pair_row = np.divmod(pairs, n * n)
    pair_cols = np.zeros((len(pairs), n), dtype=np.int64)
    pair_cols[cell_pair.reshape(-1), lex % n] = 1
    every = np.arange(m)
    init_tensor = np.zeros((m, m, m), dtype=np.int64)
    init_tensor[0, every, every] = 1
    init_tensor[every, 0, every] = 1
    init_tensor[every, du, 0] = 1
    inst = _assoc_instances(dual)
    i, j, k, t = (x[:, None] for x in inst.T - 1)
    orb = orbit.reshape(n, n, n)
    s = np.arange(n)
    # one column per instance, so that the trigger is a max over rows
    inst_orbits = np.concatenate(
        [orb[i, j, s], orb[s, k, t], orb[j, k, s], orb[i, s, t]], axis=1).T.copy()
    tab = _InvolutionTables(
        norb=norb,
        lex=lex,
        cell_idx=cell_idx,
        orbit=orbit,
        orbit_size=np.bincount(orbit, minlength=norb),
        least=np.array(np.unravel_index(np.flatnonzero(is_least), (n, n, n))),
        pair_orbit=pair_orbit,
        pair_row=pair_row,
        pair_cols=pair_cols,
        orbit_rows=np.bincount(pair_orbit, minlength=norb),
        row_last=np.bincount(pair_row, minlength=n * n).cumsum() - 1,
        unit_row=(dn[:, None] == np.arange(n)).astype(np.int64).ravel(),
        init_tensor=init_tensor.reshape(-1),
        inst=inst,
        inst_orbits=inst_orbits,
    )
    _read_only(*(v for v in vars(tab).values() if isinstance(v, np.ndarray)))
    return tab


@functools.lru_cache(maxsize=128)
def _assoc_instances(dual: tuple) -> np.ndarray:
    """The associativity instances (i, j, k, t >= 1) that the search checks
    for the involution ``dual``, as a read-only (n, 4) int64 array in lex
    order: one per equation.

    Instance (i, j, k, t) is the equation
    sum_s N[i,j,s] N[s,k,t] = sum_s N[j,k,s] N[i,s,t].  Under Frobenius
    reciprocity r: (i,j,k,t) -> (j,k,t*,i*) and f: (i,j,k,t) -> (k*,j*,i*,t*)
    each map an instance to the same equation with its sides swapped, read
    off cells of the same Frobenius orbits, so to the same trigger
    position.  They generate a dihedral group of order 8 (f r f = r^-1),
    and only the lex-least instance of each orbit is kept.  An instance
    that a side-swapping element (r, r^3, f or f r^2) maps to itself is an
    identity, so its orbit is dropped, as are the instances with t = 0,
    which read N[i,j,k*] = N[j,k,i*].  The result depends on ``dual``
    alone, so it is cached per involution.
    """
    m = len(dual)
    du = np.asarray(dual, dtype=np.int64)
    inst = np.indices((m - 1,) * 4).reshape(4, -1) + 1  # lex order

    def code(x):
        return ((x[0] * m + x[1]) * m + x[2]) * m + x[3]

    own = code(inst)
    least = own
    identity = np.zeros(own.shape, dtype=bool)
    x = inst
    for p in range(4):  # x = r^p(inst), which swaps sides for odd p; f x for even p
        flipped = np.stack([du[x[2]], du[x[1]], du[x[0]], du[x[3]]])
        least = np.minimum(least, np.minimum(code(x), code(flipped)))
        identity |= code(flipped if p % 2 == 0 else x) == own
        x = np.stack([x[1], x[2], du[x[3]], du[x[0]]])
    out = np.ascontiguousarray(inst[:, (least == own) & ~identity].T)
    _read_only(out)
    return out


def _frobenius_orbits(dn: np.ndarray):
    """The Frobenius orbits of the free cells (j, k, s >= 1) of an
    involution whose free part, 0-based, is ``dn``: the orbit of each cell
    in lex order, numbered in the order of their least cells, and the mask
    of the cells that are least in their orbit.  The orbit of N[j,k,s] is
    generated by N[j,k,s] = N[k*,j*,s*] = N[j*,s,k]."""
    n = len(dn)
    # lex[j-1, k-1, s-1] is the lex position of the free cell (j, k, s)
    lex = np.arange(n**3).reshape(n, n, n)
    c = lex.ravel()
    lex_dual = lex[dn]  # [j-1, k-1, s-1] -> lex position of (j*, k, s)
    flip = lex_dual[:, dn][:, :, dn].transpose(1, 0, 2).ravel()  # (j,k,s) -> (k*,j*,s*)
    turn = lex_dual.transpose(0, 2, 1).ravel()  # (j,k,s) -> (j*,s,k)
    turn_flip = turn[flip]
    least = np.minimum.reduce([c, flip, turn, flip[turn], turn_flip, flip[turn_flip]])
    is_least = least == c
    return (is_least.cumsum() - 1)[least], is_least


@functools.lru_cache(maxsize=128)
def _greedy_assoc_order(dual: tuple) -> np.ndarray:
    """Static orbit order maximizing early associativity completion, for
    the involution ``dual``, as a read-only array of orbit ids.

    ``orb[a, b, c]`` is the orbit of cell (a, b, c), -1 for a fixed cell.
    ``E[e, o]`` is 1 when orbit o has a free cell in associativity
    instance e = (i, j, k, t).  Each step takes the first orbit, by id,
    among those not yet chosen that maximizes (instances it completes,
    instances it leaves at most one orbit short of complete).  The order
    depends on ``dual`` alone, so it is cached per involution.
    """
    m, n = len(dual), len(dual) - 1
    tab = _involution_tables(dual)
    orbit, norb = tab.orbit, tab.norb
    orb = np.full((m, m, m), -1, dtype=np.int64)  # orbit of each cell, -1 if fixed
    orb[1:, 1:, 1:] = orbit.reshape(n, n, n)
    i, j, k, t, s = np.ix_(*[np.arange(1, m)] * 3, np.arange(m), np.arange(m))
    cells = np.broadcast_arrays(orb[i, j, s], orb[s, k, t], orb[j, k, s], orb[i, s, t])
    ids = np.stack(cells, axis=-1).reshape((m - 1) ** 3 * m, 4 * m)
    E = np.zeros((len(ids), norb + 1), dtype=np.int64)
    E[np.arange(len(ids))[:, None], ids] = 1  # fixed cells (-1) mark the spare last column
    E = E[:, :norb]
    chosen = np.zeros(norb, dtype=bool)
    order = np.empty(norb, dtype=np.int64)
    for step in range(norb):
        unchosen = E @ ~chosen  # unchosen orbits per instance
        score = (E.T @ (unchosen == 1)) * (len(E) + 1) + E.T @ (unchosen <= 2)
        score[chosen] = -1
        order[step] = best = np.argmax(score)
        chosen[best] = True
    _read_only(order)
    return order


# ---------------------------------------------------------------------------
# DFS kernel


# the problem arrays in the order the C kernel takes them, after m, norb,
# the number of rows and the number of rows of sym
_KERNEL_ARRAYS = (
    "orb_ptr", "cell_idx", "caps", "orb_row_ptr", "orb_row", "orb_row_wt", "orb_row_rest",
    "row_target", "eq_ptr", "eq_data", "sym", "init_tensor",
)


def _dfs_kernel(prob, node_budget, max_results):
    """Iterative DFS over the orbit values of ``prob`` (from
    ``_build_problem``); the reference for every backend.

    Returns (status, nodes, knapsack prunes, associativity prunes,
    symmetry prunes, solutions as a flat 2d array).  status: 0 done, 1 a
    node beyond ``node_budget`` was needed, 2 a solution beyond the first
    ``max_results`` exists (exactly ``max_results`` are returned).

    Entering depth o, the kernel narrows orbit o to the interval lo..hi
    of values that every row (j, k) the orbit touches allows, given the
    orbits before it.  Let R be the row's residual (d_j d_k less what is
    placed), W the summed d_s of this orbit's cells in it, and REST
    (``orb_row_rest``) the summed cap * d_s of its cells at later search
    positions: the most the later orbits can place there, fixed by the
    search order alone.  Then v W <= R and v W >= R - REST.  A row the
    orbit completes has REST = 0, so there the two force v W = R; hi is
    also at most caps[o].  The values from 0 to caps[o] outside lo..hi
    are counted as knapsack prunes.

    Each value in lo..hi then meets the lex-leader test: it is rejected,
    and counted as a symmetry prune, if some relabeling g (row g of
    ``sym``) maps the assigned values v[0..o] to a lexicographically
    smaller assignment, that is, if at the first position p where
    v[p] != v[sym[g, p]], with both assigned, v[p] > v[sym[g, p]].  The
    other values are nodes.  The test is incremental: g waits, at the
    position p where its comparison stopped, in ``wait[s]`` for the depth
    s = sym[g, p] that assigns the pair; only the g waiting on o are
    compared at depth o, each resuming at its p.  Position p itself is
    assigned by then: sym[g] permutes the positions and maps 0..p-1,
    already compared, into 0..o, so if p > o it would map 0..o onto
    itself and leave s > o.  A g compared strictly in favour of the
    assignment, or found to fix it, waits no more.  What depth o adds to
    the later lists is logged and removed when its value is undone, so
    the lists always describe v[0..o-1].

    A node then checks the associativity instances its orbit completes,
    ``eq_data[eq_ptr[o]:eq_ptr[o + 1]]``, up to the first that fails, and
    counts an associativity prune if one does.  ``eq_data`` holds one
    instance per dihedral orbit (``_assoc_instances``): the others are the
    same equation, so they hold or fail with it.

    Invariant: orbits 0..o-1 are applied with the values v[0..o-1];
    v[o] is the next candidate of orbit o, not yet applied.
    """
    m, norb = prob["m"], prob["norb"]
    (orb_ptr, cell_idx, caps, orb_row_ptr, orb_row, orb_row_wt, orb_row_rest, row_target,
     eq_ptr, eq_data, sym, init_tensor) = (prob[k].tolist() for k in _KERNEL_ARRAYS)
    mm = m * m
    N = init_tensor
    R = row_target
    v = [0] * norb
    vhi = [0] * norb
    # wait[a]: the (g, p) waiting on depth a; pushed[o]: the depths that
    # depth o's current value added an entry to
    wait = [[] for _ in range(norb)]
    pushed = [[] for _ in range(norb)]
    for g, row in enumerate(sym):
        wait[row[0]].append((g, 0))
    results = []
    nodes = 0
    prune_knap = 0
    prune_assoc = 0
    prune_sym = 0
    status = 0

    o = 0
    enter = True
    while True:
        if enter:
            # the interval of orbit o; see the docstring
            lo = 0
            hi = caps[o]
            for q in range(orb_row_ptr[o], orb_row_ptr[o + 1]):
                r = orb_row[q]
                w = orb_row_wt[q]
                hi = min(hi, R[r] // w)
                x = R[r] - orb_row_rest[q]
                if x > lo * w:
                    lo = -(-x // w)
            prune_knap += caps[o] + 1 - max(hi - lo + 1, 0)
            v[o] = lo
            vhi[o] = hi
            enter = False

        if v[o] > vhi[o]:
            # depth exhausted: pop to the previous orbit
            o -= 1
            if o < 0:
                break
        else:
            # the lex-leader test of v[o]; see the docstring
            rejected = False
            log = pushed[o]
            for g, p in wait[o]:
                row = sym[g]
                while p < norb:
                    s = row[p]
                    if s > o:
                        wait[s].append((g, p))
                        log.append(s)
                        break
                    if v[p] != v[s]:
                        rejected = v[p] > v[s]
                        break
                    p += 1
                if rejected:
                    break
            if rejected:
                prune_sym += 1
                for a in log:
                    wait[a].pop()
                log.clear()
                v[o] += 1
                continue

            if nodes >= node_budget:
                status = 1
                break
            vv = v[o]
            nodes += 1
            for t in range(orb_ptr[o], orb_ptr[o + 1]):
                N[cell_idx[t]] = vv
            for q in range(orb_row_ptr[o], orb_row_ptr[o + 1]):
                R[orb_row[q]] -= vv * orb_row_wt[q]
            ok = True
            for e in range(eq_ptr[o], eq_ptr[o + 1]):
                i_, j_, k_, t_ = eq_data[e]
                lhs = 0
                rhs = 0
                for s in range(m):
                    lhs += N[i_ * mm + j_ * m + s] * N[s * mm + k_ * m + t_]
                    rhs += N[j_ * mm + k_ * m + s] * N[i_ * mm + s * m + t_]
                if lhs != rhs:
                    ok = False
                    prune_assoc += 1
                    break
            if ok and o < norb - 1:
                o += 1
                enter = True
                continue
            if ok:
                if len(results) == max_results:
                    status = 2
                    break
                results.append(N.copy())

        # undo orbit o's value and go on to its next one
        vv = v[o]
        for t in range(orb_ptr[o], orb_ptr[o + 1]):
            N[cell_idx[t]] = 0
        for q in range(orb_row_ptr[o], orb_row_ptr[o + 1]):
            R[orb_row[q]] += vv * orb_row_wt[q]
        for a in pushed[o]:
            wait[a].pop()
        pushed[o].clear()
        v[o] = vv + 1

    found = np.array(results, dtype=np.int64).reshape(len(results), m * mm)
    return status, nodes, prune_knap, prune_assoc, prune_sym, found


def _run_kernel(prob, node_budget, max_results) -> tuple:
    """Run the DFS on ``prob`` with the backend in use: (status, solutions,
    stats of this run naming that backend)."""
    t0 = time.perf_counter()
    backend, kernel = _kernel()
    status, nodes, pk, pa, ps, found = kernel(prob, node_budget, max_results)
    st = SearchStats(nodes, pk, pa, ps, len(found), time.perf_counter() - t0, status == 0,
                     frozenset({backend}))
    return status, found, st


_C_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
_C_COMMAND = ("cc", "-O2", "-shared", "-fPIC")
# built kernels are kept here, or in a per-user temp directory when the
# package directory cannot be written
_C_CACHE_DIR = os.path.join(os.path.dirname(_C_SOURCE), "__pycache__")
_INT64_MAX = 2**63 - 1


def _c_cache_dir() -> str:
    """A directory for the built kernel that no other user can write into."""
    private = os.path.join(tempfile.gettempdir(), f"fusionforge-{os.getuid()}")
    for d in (_C_CACHE_DIR, private):
        try:
            os.makedirs(d, mode=0o700, exist_ok=True)
            st = os.stat(d)
        except OSError:
            continue
        if st.st_uid == os.getuid() and not st.st_mode & 0o022 and os.access(d, os.W_OK):
            return d
    raise OSError(f"neither {_C_CACHE_DIR} nor {private} is a private writable directory")


def _check_kernel_args(a):
    """The layout, sizes, index bounds and signs the C kernel relies on
    without checking, in the problem ``a``: among them the row weights it
    divides by, the nonnegative row residuals that make its integer
    division a floor, and the search positions in ``sym``, whose rows
    must permute them."""
    m, norb, nrows = a["m"], a["norb"], len(a["row_target"])
    sym = a["sym"]

    def at_least(x, lo):
        return x.size == 0 or x.min() >= lo

    def within(x, hi):
        # a negative int64 read as uint64 is at least 2^63, so one max checks both ends
        return x.size == 0 or x.view(np.uint64).max() < hi

    ok = (
        all(a[k].dtype == np.int64 and a[k].flags.c_contiguous for k in _KERNEL_ARRAYS)
        and norb >= 1
        and len(a["caps"]) == norb
        and len(a["init_tensor"]) == m**3
        and len(a["orb_row_rest"]) == len(a["orb_row"])
        and len(a["orb_ptr"]) == len(a["orb_row_ptr"]) == len(a["eq_ptr"]) == norb + 1
    )
    if ok:
        # the three pointer arrays as rows: each starts at 0 and never decreases
        ptrs = np.stack([a["orb_ptr"], a["orb_row_ptr"], a["eq_ptr"]])
        ok = (
            not ptrs[:, 0].any()
            and (ptrs[:, 1:] >= ptrs[:, :-1]).all()
            and ptrs[0, -1] == len(a["cell_idx"])
            and ptrs[1, -1] == len(a["orb_row"]) == len(a["orb_row_wt"])
            and a["eq_data"].shape == (ptrs[2, -1], 4)
            and sym.ndim == 2 and sym.shape[1] == norb
            # rows permute 0..norb-1
            and (sym.size == 0 or (np.sort(sym, axis=1) == np.arange(norb)).all())
            and within(a["cell_idx"], m**3)
            and within(a["orb_row"], nrows)
            and at_least(a["orb_row_wt"], 1)
            and at_least(a["row_target"], 0)
            and within(a["eq_data"], m)
        )
    if not ok:
        raise ValueError("malformed search problem arrays")


def _load_c_kernel():
    """Load ``_kernel.c``, building it first unless a build of the same
    source with the same command is cached.  Raises OSError, with the
    reason, when it cannot be built or loaded."""
    if os.name != "posix":
        raise OSError("the C kernel is built on POSIX systems only")
    with open(_C_SOURCE, "rb") as f:
        tag = hashlib.sha256(f.read() + " ".join(_C_COMMAND).encode()).hexdigest()[:16]
    cache = _c_cache_dir()
    path = os.path.join(cache, f"_kernel-{tag}.so")
    if not os.path.exists(path):
        cc = shutil.which(_C_COMMAND[0])
        if cc is None:
            raise OSError(f"no C compiler '{_C_COMMAND[0]}' on PATH")
        import subprocess  # only a build needs it

        # build under a private name, then rename: processes building at
        # the same time never load a half-written library
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
        try:
            subprocess.run([cc, *_C_COMMAND[1:], _C_SOURCE, "-o", tmp],
                           check=True, capture_output=True, text=True)
            os.replace(tmp, path)
        except subprocess.CalledProcessError as exc:
            last = exc.stderr.strip().splitlines()[-1:]
            raise OSError("compiling _kernel.c failed" + "".join(f": {x}" for x in last)) from exc
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        if cache == _C_CACHE_DIR:  # the shared temp directory may hold other checkouts' builds
            for name in os.listdir(cache):  # drop the builds of older sources
                old = os.path.join(cache, name)
                if name.startswith("_kernel-") and name.endswith(".so") and old != path:
                    try:
                        os.unlink(old)
                    except FileNotFoundError:
                        pass
    lib = ctypes.CDLL(path)
    i64, arr = ctypes.c_int64, ctypes.c_void_p
    out_ptr = ctypes.POINTER(i64)
    fn = lib.ff_dfs_kernel
    # m, norb, nrows, nsym, the _KERNEL_ARRAYS, node_budget, max_results,
    # counts, results; arrays go as bare data addresses (checked by
    # _check_kernel_args, kept alive by the caller)
    fn.argtypes = [i64] * 4 + [arr] * len(_KERNEL_ARRAYS) + [i64] * 2 + [
        arr, ctypes.POINTER(out_ptr)]
    fn.restype = i64
    lib.ff_free.argtypes = [out_ptr]
    lib.ff_free.restype = None

    def c_kernel(prob, node_budget, max_results):
        _check_kernel_args(prob)
        m = prob["m"]
        counts = np.zeros(5, dtype=np.int64)
        found = out_ptr()
        addr = [prob[k].ctypes.data for k in _KERNEL_ARRAYS]
        status = fn(m, prob["norb"], len(prob["row_target"]), len(prob["sym"]), *addr,
                    min(int(node_budget), _INT64_MAX), min(int(max_results), _INT64_MAX),
                    counts.ctypes.data, ctypes.byref(found))
        try:
            if status < 0:
                raise MemoryError("the C search kernel ran out of memory")
            nfound = int(counts[4])
            solutions = (np.ctypeslib.as_array(found, shape=(nfound, m**3)).copy()
                         if nfound else np.empty((0, m**3), dtype=np.int64))
        finally:
            lib.ff_free(found)
        return (int(status), *(int(x) for x in counts[:4]), solutions)

    return c_kernel


_KERNEL = None  # (backend name, kernel), chosen on the first search
_KERNEL_LOCK = threading.Lock()


def _kernel() -> tuple:
    """The C kernel when it loads here, else the plain-Python kernel.  The
    fallback is announced once on stderr, with its reason."""
    global _KERNEL
    with _KERNEL_LOCK:
        if _KERNEL is None:
            try:
                _KERNEL = ("c", _load_c_kernel())
            except OSError as exc:
                print(f"fusionforge: C search kernel unavailable ({exc}); "
                      "using the Python kernel, which is much slower", file=sys.stderr)
                _KERNEL = ("python", _dfs_kernel)
        return _KERNEL


def __getattr__(name):
    # KERNEL_BACKEND ("c" or "python") is chosen on first use,
    # which may build the C kernel
    if name == "KERNEL_BACKEND":
        return _kernel()[0]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# wrappers


#: the counts of ``SearchStats``, which a checkpoint record stores
_SEARCH_COUNTS = ("nodes", "prune_knapsack", "prune_associativity", "prune_symmetry",
                  "raw_solutions")


@dataclass
class SearchStats:
    """Counts of the tensor search, summed over the units merged in.

    ``nodes``: orbit values applied, each one inside its orbit's
    dimension interval and passing the lex-leader test; the node budget
    counts these.
    ``prune_knapsack``: values from 0 up to an orbit's cap that its
    dimension interval excluded, so they were never applied (0 without
    dimensions).
    ``prune_associativity``: applied values that failed an associativity
    equation they completed.  ``eq_data`` holds one instance per dihedral
    orbit, each distinct equation once, so this counts the values that
    fail any equation, as a check of every instance would.
    ``prune_symmetry``: values inside the dimension interval that the
    lex-leader test rejected, because a relabeling of the dedup group
    maps the assignment so far to a lexicographically smaller one; they
    were never applied.
    ``raw_solutions``: complete tensors found, one per isomorphism class,
    before the final dedup.
    ``wall_time``: seconds in the kernel.  ``complete``: no unit stopped
    on a budget.  ``kernel_backends``: the backends that ran.

    The five counts are None, and stay None through every merge, once a
    unit with unknown counts is merged in: one resumed from a checkpoint
    record written before records kept its counts.
    """

    nodes: Optional[int] = 0
    prune_knapsack: Optional[int] = 0
    prune_associativity: Optional[int] = 0
    prune_symmetry: Optional[int] = 0
    raw_solutions: Optional[int] = 0
    wall_time: float = 0.0
    complete: bool = True
    kernel_backends: frozenset = frozenset()

    def merge(self, other: "SearchStats"):
        for f in _SEARCH_COUNTS:
            a, b = getattr(self, f), getattr(other, f)
            setattr(self, f, None if a is None or b is None else a + b)
        self.wall_time += other.wall_time
        self.complete = self.complete and other.complete
        self.kernel_backends |= other.kernel_backends


def _dedup_group(dims, dual):
    """Dimension-preserving permutations fixing 0 and commuting with dual,
    in lex order, so the identity comes first."""
    m = len(dual)
    classes = {}
    for j in range(1, m):
        classes.setdefault(dims[j], []).append(j)
    perms = []
    pools = [itertools.permutations(v) for v in classes.values()]
    for combo in itertools.product(*pools):
        perm = list(range(m))
        for orig, new in zip(classes.values(), combo):
            for a, b in zip(orig, new):
                perm[a] = b
        if all(perm[dual[j]] == dual[perm[j]] for j in range(m)):
            perms.append(tuple(perm))
    return sorted(perms)


@functools.lru_cache(maxsize=_UNIT_CACHE_SIZE)
def _unit_group(pattern: tuple, dual: tuple) -> tuple:
    """``_dedup_group`` of the dimensions whose equality pattern is
    ``pattern`` (the index of the first equal dimension, per index), as a
    read-only (|G|, m) int64 array, and its action on the Frobenius orbits
    of ``dual``: ``moves[g - 1, o]`` is the orbit that relabeling g maps
    orbit o to, the orbit of g applied to o's least cell.  Both depend on
    the dimensions only through which are equal, so they are cached on
    that pattern and the involution."""
    n = len(dual) - 1
    tab = _involution_tables(dual)
    group = np.array(_dedup_group(pattern, dual), dtype=np.int64).reshape(-1, n + 1)
    gf = group[1:, 1:] - 1  # g on the free indices, 0-based
    lj, lk, ls = tab.least
    moves = tab.orbit[(gf[:, lj] * n + gf[:, lk]) * n + gf[:, ls]]
    _read_only(group, moves)
    return group, moves


def _canonical_keys(flat, m, group) -> list:
    """Canonical key of each row of ``flat`` (n, m^3): the least, as bytes,
    of the tensor relabeled by each permutation in ``group``, one fancy
    index over the whole stack per permutation."""
    keys = None
    for perm in group:
        inv = np.argsort(perm)
        idx = ((inv[:, None, None] * m + inv[None, :, None]) * m + inv[None, None, :]).reshape(-1)
        cands = [row.tobytes() for row in flat[:, idx]]
        keys = cands if keys is None else list(map(min, keys, cands))
    return keys


#: rings one search (a (type, involution) unit or the rank-5 family) may find
UNIT_MAX_RESULTS = 100_000

#: found tensors that ``_collect`` checks, and rings that ``_decide``
#: decides, as one stack; the associativity check holds a few (n, m^4) arrays
COLLECT_CHUNK = 256


def enumerate_fusion_rings(
    sig: TypeSignature,
    involution: Sequence[int],
    constraints: Optional[SearchConstraints] = None,
    node_budget: int = 10**9,
    stats: Optional[SearchStats] = None,
) -> list:
    """All fusion rings with the given integral type and involution, up to
    isomorphism.

    Each orbit of structure constants is capped by its least row-sum cap
    floor(d_j d_k / d_s).  Raises SearchTimeout (with the partial list
    attached) if the node budget is exhausted or more than
    ``UNIT_MAX_RESULTS`` rings exist.
    """
    if not sig.integral:
        raise ValueError("tensor enumeration requires an integral type")
    dims = list(sig.dims)
    dual = list(involution)
    max_mult = constraints.max_multiplicity if constraints else None
    prob = _build_problem(dims, dual, max_mult=max_mult)
    if prob["norb"] == 0:  # rank 1: only the unit-only ring, no free cells
        fd = FusionData(prob["init_tensor"].reshape(1, 1, 1).copy(), [0])
        if stats is not None:
            stats.merge(SearchStats(raw_solutions=1))
        return [fd] if rings.verify_axioms(fd).all_ok else []
    return _search(prob, dual, "found", node_budget, stats)


def _search(prob, dual, label_prefix, node_budget, stats) -> list:
    """Run the kernel on ``prob`` and return up to ``UNIT_MAX_RESULTS`` rings,
    up to isomorphism; SearchTimeout carries them when it stopped early."""
    status, found, st = _run_kernel(prob, node_budget, UNIT_MAX_RESULTS)
    if stats is not None:
        stats.merge(st)
    out = _collect(found, prob["group"], dual, label_prefix)
    if status == 1:
        raise SearchTimeout(f"node budget {node_budget} exhausted", partial=out)
    if status == 2:
        raise SearchTimeout(f"result buffer {UNIT_MAX_RESULTS} exhausted", partial=out)
    return out


def _collect(found, group, dual, label_prefix) -> list:
    """The found tensors as rings, sorted by canonical key under
    ``group``, checked against the axioms, each holding its simple flag
    and each commutative one its character table and Schur report
    (``_decide``); keys and checks are computed for stacks of
    ``COLLECT_CHUNK`` tensors.  The lex-leader test keeps one tensor per
    isomorphism class, so two tensors with one key mean the symmetry
    breaking is wrong and raise InvalidSearchResult, as does a ring failing
    an axiom."""
    m = len(dual)
    if not len(found):
        return []
    flat = np.asarray(found).reshape(len(found), m**3)
    keys = [key for lo in range(0, len(flat), COLLECT_CHUNK)
            for key in _canonical_keys(flat[lo:lo + COLLECT_CHUNK], m, group)]
    if len(set(keys)) < len(keys):
        raise InvalidSearchResult("search emitted two isomorphic tensors")
    tensors = flat[sorted(range(len(keys)), key=keys.__getitem__)].reshape(-1, m, m, m)
    dual = np.array(dual, dtype=np.int64)  # shared by the rings, which make it read-only
    out = [FusionData(N, dual, label=f"{label_prefix}-{i + 1}") for i, N in enumerate(tensors)]
    for lo in range(0, len(out), COLLECT_CHUNK):
        chunk = out[lo:lo + COLLECT_CHUNK]
        residuals = rings._axiom_residuals(tensors[lo:lo + COLLECT_CHUNK], dual, chunk[0].exact)
        holds = np.all([res <= tol for res, tol, _ in residuals.values()], axis=0)
        if not holds.all():
            summary = rings.verify_axioms(chunk[int(np.argmin(holds))]).summary()
            raise InvalidSearchResult(f"search emitted an invalid ring: {summary}")
    _decide(out)
    return out


def _decide(fds) -> None:
    """Store on each of the rings ``fds``, all of one rank, its simple flag
    and, if it is commutative, its character table and Schur report, each
    computed for stacks of ``COLLECT_CHUNK`` rings; what a ring already
    holds is kept.  ``is_simple``, ``character_table`` and
    ``schur_commutative`` then read them."""
    for lo in range(0, len(fds), COLLECT_CHUNK):
        chunk = fds[lo:lo + COLLECT_CHUNK]
        rings._decide_simple(chunk)
        commutative = [fd for fd in chunk if rings.is_commutative(fd)]
        todo = [fd for fd in commutative if fd._char_table is None]
        if todo:
            try:
                spectral._character_tables(todo)
            except DegenerateSpectrum:
                pass  # kept by none: character_table recomputes each and raises as before
        tables = [fd._char_table for fd in commutative if fd._char_table is not None]
        if tables:
            criteria._schur_reports(tables)


# ---------------------------------------------------------------------------
# the rank-5 three-self-adjoint family


RANK5_TEMPLATE_DUAL = (0, 2, 1, 3, 4)


def rank5_three_selfadjoint_family(
    max_multiplicity: int,
    node_budget: int = 10**10,
    stats: Optional[SearchStats] = None,
) -> list:
    """Fusion rings of rank 5 whose duality fixes exactly indices 1, 4, 5.

    Frobenius reciprocity reduces the tensor to 16 free parameters;
    enumeration caps every structure constant at ``max_multiplicity``
    and imposes associativity only (the dimensions are not integral in
    general, so no dimension knapsack applies).  Results are up to
    equivalence.
    """
    dual = list(RANK5_TEMPLATE_DUAL)
    prob = _build_problem(None, dual, max_mult=max_multiplicity)
    return _search(prob, dual, "r5sa", node_budget, stats)


# ---------------------------------------------------------------------------
# classification driver


@dataclass
class TypeResult:
    signature: TypeSignature
    involutions_tried: int
    rings: list
    simple: list
    schur_pass: list
    stats: SearchStats


@dataclass
class ClassificationReport:
    constraints: SearchConstraints
    types: list  # list[TypeResult]
    wall_time: float

    @property
    def complete(self) -> bool:
        """No unit of any type stopped on a budget."""
        return all(tr.stats.complete for tr in self.types)

    @property
    def all_rings(self) -> list:
        return [fd for tr in self.types for fd in tr.rings]

    @property
    def simple_rings(self) -> list:
        return [fd for tr in self.types for fd in tr.simple]

    @property
    def schur_rings(self) -> list:
        return [fd for tr in self.types for fd in tr.schur_pass]

    @property
    def kernel_backend(self) -> Optional[str]:
        """The search kernel backend that produced these results ("c" or
        "python"; "c+python" if units ran on both), or None when no kernel
        ran, as when every unit was resumed from a checkpoint."""
        ran = frozenset().union(*(tr.stats.kernel_backends for tr in self.types))
        return "+".join(sorted(ran)) or None

    def to_dict(self) -> dict:
        return {
            "constraints": asdict(self.constraints),
            "complete": self.complete,
            "wall_time": self.wall_time,
            "kernel_backend": self.kernel_backend,
            "types": [
                {
                    "type": str(tr.signature),
                    "fpdim": tr.signature.fpdim,
                    "rank": tr.signature.rank,
                    "involutions": tr.involutions_tried,
                    "rings_found": len(tr.rings),
                    "simple": len(tr.simple),
                    "schur_pass": len(tr.schur_pass),
                    "nodes": tr.stats.nodes,
                    "prune_knapsack": tr.stats.prune_knapsack,
                    "prune_associativity": tr.stats.prune_associativity,
                    "prune_symmetry": tr.stats.prune_symmetry,
                    "complete": tr.stats.complete,
                }
                for tr in self.types
            ],
        }


def _search_task(args):
    """One (type, involution) unit of work; suitable for a worker pool."""
    sig, inv, constraints, node_budget = args
    st = SearchStats()
    try:
        found = enumerate_fusion_rings(sig, inv, constraints, node_budget, stats=st)
    except SearchTimeout as exc:  # st, merged before the raise, says complete=False
        found = list(exc.partial or [])
    return found, st


def _checkpoint_key(sig, inv, max_multiplicity) -> str:
    # a unit's rings depend on these three values alone
    return f"{sig}|{','.join(str(i + 1) for i in inv)}|max_mult={max_multiplicity}"


def _read_checkpoint(f) -> dict:
    """The units stored in the open checkpoint file ``f`` (binary, append
    mode): key -> (rings, stats).  The stats hold the record's counts, no
    kernel time and no backend; a record written before records kept
    counts gives them as None.  Each record is written with its newline in
    one write, so a last line without one is what a run killed mid-write
    leaves; it is cut off, so its unit reruns.  Any other unreadable line,
    or a record whose key or rings are not strings or whose counts are not
    the five nonnegative integers, raises ParseError."""
    from . import corpus

    f.seek(0)
    done, size = {}, 0
    for n, line in enumerate(f.readlines(), 1):
        if not line.endswith(b"\n"):
            f.truncate(size)
            break
        try:
            rec = json.loads(line)
            key, texts = rec["key"], rec["rings"]
            counts = rec.get("stats", dict.fromkeys(_SEARCH_COUNTS))  # None if not stored
            if not isinstance(key, str) or not all(isinstance(t, str) for t in texts):
                raise TypeError("the key and every ring must be strings")
            if "stats" in rec and not (
                    isinstance(counts, dict) and counts.keys() == set(_SEARCH_COUNTS)
                    and all(type(x) is int and x >= 0 for x in counts.values())):
                raise TypeError("the stats must be the five search counts")
            done[key] = ([corpus.parse_fusion_ring(t) for t in texts], SearchStats(**counts))
        except (ValueError, LookupError, TypeError, FusionError) as exc:
            raise ParseError(f"bad checkpoint record in {f.name}: {exc}", line=n) from exc
        size += len(line)
    return done


def classify(
    constraints: SearchConstraints,
    node_budget: int = 10**9,
    wall_budget: Optional[float] = None,
    threads: int = 1,
    checkpoint: Optional[str] = None,
) -> ClassificationReport:
    """Run types -> involutions -> tensors -> predicates.

    Every type keeps all its rings and the simple and Schur-passing ones
    among them.  The search decides simplicity and Schur for the rings of
    each unit as one stack (``_decide``), and rings resumed from a
    checkpoint are decided the same way, per type.  On budget exhaustion the report is returned with
    ``complete=False`` instead of raising: ``node_budget`` applies to
    each (type, involution) unit, and once ``wall_budget`` seconds have
    passed no further unit is taken and the remaining ones are reported
    incomplete with no rings.

    ``threads > 1`` runs the units in a process pool; results are taken
    in task order either way, so the report and the checkpoint do not
    depend on scheduling.  The pool pays when several units are long
    (2 workers cut the FPdim-990 rank-8 row by half) and not on the short
    census rows; the README gives the times.  ``checkpoint`` names a
    JSONL file: each complete unit is appended with its rings and its
    counts (nodes, the three prune counts and raw solutions) and flushed
    as soon as it is taken.  Rerunning with the same path resumes, reusing
    every stored unit of the same multiplicity cap with its stored counts,
    so a resumed report counts as an uninterrupted one; a record written
    before records kept counts makes its type's counts None.  A last line
    without its newline, as a killed run leaves it, is dropped and its
    unit reruns, and any other bad line raises ParseError.  The wall
    budget is read from a monotonic clock, so a step in the system clock
    neither stretches nor cuts it.
    """
    import contextlib

    from . import corpus

    t0 = time.perf_counter()
    sigs = enumerate_types(constraints)
    units = [(sig, inv) for sig in sigs for inv in enumerate_involutions(sig)]
    keys = [_checkpoint_key(sig, inv, constraints.max_multiplicity) for sig, inv in units]

    outcomes = {}  # key -> (rings, stats) of every unit stored or run
    with contextlib.ExitStack() as stack:
        if checkpoint is not None:
            ckpt = stack.enter_context(open(checkpoint, "a+b"))
            outcomes = _read_checkpoint(ckpt)
        todo = [i for i, k in enumerate(keys) if k not in outcomes]
        tasks = [(*units[i], constraints, node_budget) for i in todo]
        results = map(_search_task, tasks)
        if threads > 1 and len(tasks) > 1:
            import concurrent.futures as cf

            pool = cf.ProcessPoolExecutor(max_workers=threads)
            # on leaving, units not yet started are cancelled
            stack.callback(pool.shutdown, cancel_futures=True)
            results = pool.map(_search_task, tasks)
        for i in todo:
            if wall_budget is not None and time.perf_counter() - t0 > wall_budget:
                break
            found, st = outcomes[keys[i]] = next(results)
            if checkpoint is not None and st.complete:
                texts = [corpus.serialize_fusion_ring(fd) for fd in found]
                counts = {f: getattr(st, f) for f in _SEARCH_COUNTS}
                rec = {"key": keys[i], "rings": texts, "stats": counts}
                ckpt.write(json.dumps(rec).encode() + b"\n")
                ckpt.flush()

    types = {sig: TypeResult(sig, 0, [], [], [], SearchStats()) for sig in sigs}
    for (sig, _), key in zip(units, keys):
        found, st = outcomes.get(key, ([], SearchStats(complete=False)))
        tr = types[sig]
        tr.involutions_tried += 1
        tr.rings.extend(found)
        tr.stats.merge(st)
    for tr in types.values():
        for i, fd in enumerate(tr.rings):
            fd.label = f"{tr.signature}-{i + 1}"
        _decide([fd for fd in tr.rings if fd._simple is None])  # those resumed from a checkpoint
        tr.simple = [fd for fd in tr.rings if rings.is_simple(fd)]
        # a ring that holds a table is commutative; one without takes the test
        tr.schur_pass = [fd for fd in tr.rings
                         if (fd._char_table is not None or rings.is_commutative(fd))
                         and criteria.schur_commutative(spectral.character_table(fd)).holds]
    return ClassificationReport(constraints, list(types.values()), time.perf_counter() - t0)
