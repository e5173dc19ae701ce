"""The embedded ring corpus and the FRT v1 text format.

FRT v1 layout (1-based indices, ``#`` comments allowed anywhere):

    frt 1
    rank m
    dual p1 p2 ... pm
    matrix 1
    <m rows of m entries>
    ...
    matrix m
    <m rows of m entries>

Matrix i holds N[i,k,s] at row k, column s; entries are nonnegative
integers for fusion rings and decimals for fusion algebras.

The corpus bundles every fusion ring printed in the source material:
the 34 simple integral rings of Frobenius type, the five simple
integral rings not of Frobenius type, the two displayed members of the
rank-5 three-self-adjoint family, and generated cyclic group rings
Z/n for n <= 12.  A checksum file pins the data files; the expected
flags below are validated against computed values by the test suite,
which guards transcription errors.  Rings outside the corpus are read
from FRT files with ``load_fusion_ring``.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from importlib import resources
from typing import Optional

import numpy as np

from .errors import FusionError, ParseError, ValidationError
from .rings import FusionData, cyclic_group_ring, new_fusion_data

__all__ = [
    "CorpusEntry",
    "parse_fusion_ring",
    "serialize_fusion_ring",
    "load_fusion_ring",
    "corpus",
    "get",
    "verify_checksums",
]


@dataclass(frozen=True)
class CorpusEntry:
    id: str
    fd: FusionData
    expected_type: str
    expected_simple: Optional[bool]
    expected_schur: Optional[bool]
    group: Optional[str] = None
    aliases: tuple = ()


# ---------------------------------------------------------------------------
# FRT v1


def parse_fusion_ring(text: str, label=None) -> FusionData:
    """Parse the FRT v1 text format into a FusionData."""
    tokens = []  # (line_no, [fields])
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            tokens.append((ln, body.split()))
    pos = 0

    def next_line(what):
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError(f"unexpected end of file, expected {what}",
                             line=tokens[-1][0] + 1 if tokens else 1)
        ln, fields = tokens[pos]
        pos += 1
        return ln, fields

    ln, fields = next_line("header 'frt 1'")
    if fields != ["frt", "1"]:
        raise ParseError(f"bad header {' '.join(fields)!r}, expected 'frt 1'", line=ln)
    ln, fields = next_line("'rank m'")
    if len(fields) != 2 or fields[0] != "rank":
        raise ParseError("expected 'rank m'", line=ln)
    try:
        m = int(fields[1])
    except ValueError:
        raise ParseError(f"bad rank {fields[1]!r}", line=ln)
    if m < 1:
        raise ParseError(f"rank must be positive, got {m}", line=ln)
    ln, fields = next_line("'dual p1 ... pm'")
    if fields[0] != "dual" or len(fields) != m + 1:
        raise ParseError(f"expected 'dual' with {m} entries", line=ln)
    try:
        dual = [int(x) - 1 for x in fields[1:]]
    except ValueError:
        raise ParseError("duality entries must be integers", line=ln)

    exact = True
    mats = []
    for i in range(m):
        ln, fields = next_line(f"'matrix {i + 1}'")
        if fields != ["matrix", str(i + 1)]:
            raise ParseError(f"expected 'matrix {i + 1}'", line=ln)
        rows = []
        for _ in range(m):
            ln, fields = next_line(f"{m} matrix entries")
            if len(fields) != m:
                raise ParseError(f"expected {m} entries, got {len(fields)}", line=ln)
            row = []
            for col, tok in enumerate(fields, start=1):
                try:
                    v = float(tok)
                except ValueError:
                    raise ParseError(f"bad entry {tok!r}", line=ln, column=col)
                if not math.isfinite(v):
                    raise ParseError(f"entry {tok!r} is not finite", line=ln, column=col)
                if v != int(v) or "." in tok or "e" in tok.lower():
                    exact = False
                row.append(v)
            rows.append(row)
        mats.append(rows)
    if pos != len(tokens):
        raise ParseError("trailing content after the last matrix", line=tokens[pos][0])

    try:
        fd = new_fusion_data(mats, mode="exact" if exact else "float", label=label)
    except (FusionError, ValueError) as exc:
        raise ValidationError(str(exc)) from exc
    if list(fd.dual) != dual:
        raise ValidationError(
            f"declared duality {[x + 1 for x in dual]} does not match the tensor"
        )
    return fd


def serialize_fusion_ring(fd: FusionData, label=None) -> str:
    """Canonical FRT v1 text for a FusionData (round-trips with the parser)."""
    lines = []
    name = label or fd.label
    if name:
        lines.append(f"# {name}")
    lines.append("frt 1")
    lines.append(f"rank {fd.rank}")
    lines.append("dual " + " ".join(str(int(j) + 1) for j in fd.dual))
    for i in range(fd.rank):
        lines.append(f"matrix {i + 1}")
        for row in np.asarray(fd.tensor[i]):
            if fd.exact:
                lines.append(" ".join(str(int(x)) for x in row))
            else:
                # the shortest text that reads back as the same float, with
                # a '.' or an 'e' that keeps an integral value a float
                lines.append(" ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def load_fusion_ring(path, label=None) -> FusionData:
    with open(path, "r") as f:
        return parse_fusion_ring(f.read(), label=label)


# ---------------------------------------------------------------------------
# the embedded corpus

# (file id, expected type, simple, schur, group).  The 34 Frobenius-type
# blocks appear in source order; within each FPdim block the distinguished
# entries (group rings, Schur survivors) are the annotated ones.
_PAPER_ENTRIES = [
    ("si60-1", "[[1,1],[3,2],[4,1],[5,1]]", True, True, "PSL(2,5)", ("psl25",)),
    ("si168-1", "[[1,1],[3,2],[6,1],[7,1],[8,1]]", True, True, "PSL(2,7)", ("psl27",)),
    ("si210-1", "[[1,1],[5,3],[6,1],[7,2]]", True, False, None, ("r7-210-ruledout",)),
    ("si210-2", "[[1,1],[5,3],[6,1],[7,2]]", True, True, None, ("f210",)),
    ("si360-1", "[[1,1],[5,2],[8,2],[9,1],[10,1]]", True, False, None, ()),
    ("si360-2", "[[1,1],[5,2],[8,2],[9,1],[10,1]]", True, True, "PSL(2,9)", ("psl29",)),
    ("si7980-1", "[[1,1],[19,1],[20,1],[21,1],[42,2],[57,1]]", True, False, None, ()),
    ("si7980-2", "[[1,1],[19,1],[20,1],[21,1],[42,2],[57,1]]", True, False, None, ()),
    ("si7980-3", "[[1,1],[19,1],[20,1],[21,1],[42,2],[57,1]]", True, False, None, ()),
    ("si7980-4", "[[1,1],[19,1],[20,1],[21,1],[42,2],[57,1]]", True, False, None, ()),
] + [
    (f"si660-{i}", "[[1,1],[5,2],[10,2],[11,1],[12,2]]", True, i >= 14,
     "PSL(2,11)" if i == 14 else None, ("psl211",) if i == 14 else (("f660",) if i == 15 else ()))
    for i in range(1, 16)
] + [
    (f"si990-{i}", "[[1,1],[9,1],[10,1],[11,4],[18,1]]", True, False, None, ())
    for i in range(1, 6)
] + [
    (f"si1260-{i}", "[[1,1],[6,1],[7,2],[10,1],[15,1],[20,2]]", True, False, None, ())
    for i in range(1, 3)
] + [
    (f"si1320-{i}", "[[1,1],[6,2],[10,1],[11,1],[15,2],[24,1]]", True, False, None, ())
    for i in range(1, 3)
] + [
    # simple integral, not of Frobenius type
    ("nf143", "[[1,1],[4,2],[5,1],[6,1],[7,1]]", True, False, None,
     ("r6-143-nonfrobenius",)),
    ("nf924", "[[1,1],[7,1],[8,1],[12,1],[15,1],[21,1]]", True, True, None, ()),
    ("nf1320", "[[1,1],[9,1],[10,1],[11,1],[21,1],[24,1]]", True, True, None, ()),
    ("nf560", "[[1,1],[6,1],[7,2],[10,2],[15,1]]", True, True, None, ()),
    ("nf798", "[[1,1],[7,1],[8,1],[9,3],[21,1]]", True, True, None, ()),
    # rank-5 three-self-adjoint family, displayed members.  The second
    # displayed matrix set fails the Schur criterion (its dimensions are
    # 2+sqrt5-based, not the 3+sqrt6 values quoted alongside it); the flag
    # records the computed truth.
    ("r5sa-a", None, True, True, None, ()),
    ("r5sa-b", None, True, False, None, ()),
]

_FROBENIUS_34 = frozenset(
    e[0] for e in _PAPER_ENTRIES if e[0].startswith("si")
)


def _data_text(name: str) -> str:
    return resources.files("fusionforge.data").joinpath(name).read_text()


def verify_checksums() -> bool:
    """Re-hash the embedded data files against CHECKSUMS.sha256."""
    manifest = _data_text("CHECKSUMS.sha256")
    for line in manifest.strip().splitlines():
        digest, name = line.split()
        body = _data_text(name)
        if hashlib.sha256(body.encode()).hexdigest() != digest:
            return False
    return True


@functools.cache
def _entries() -> tuple:
    """The paper entries, then the cyclic group rings Z/n (n <= 12),
    built once per process.

    The paper entries are checksum-pinned package data and ``FusionData``
    arrays are read-only, so every caller can share them.
    """
    paper = tuple(
        CorpusEntry(eid, parse_fusion_ring(_data_text(f"{eid}.frt"), label=eid),
                    typ, simple, schur, group, aliases)
        for eid, typ, simple, schur, group, aliases in _PAPER_ENTRIES
    )
    return paper + tuple(
        CorpusEntry(f"z{n}", cyclic_group_ring(n), f"[[1,{n}]]",
                    all(n % k for k in range(2, n)), True, f"Z/{n}")
        for n in range(2, 13)
    )


@functools.cache
def _names() -> dict:
    """Each id and alias mapped to the first entry that carries it."""
    return {name: e for e in reversed(_entries()) for name in (e.id, *e.aliases)}


def corpus() -> list:
    """Every embedded corpus entry, paper fixtures first, as a new list."""
    return list(_entries())


def get(id_or_alias: str) -> CorpusEntry:
    """Look up a corpus entry by id or alias."""
    try:
        return _names()[id_or_alias]
    except KeyError:
        raise KeyError(f"no corpus entry named {id_or_alias!r}") from None


def frobenius34() -> list:
    """The 34 simple integral Frobenius-type entries."""
    return [e for e in _entries() if e.id in _FROBENIUS_34]
