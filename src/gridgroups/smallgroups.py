"""Catalog of the small groups the grid sweeps actually meet.

Abelian groups are named straight from their invariant factors; the
nonabelian catalog is built once from explicit presentations, fingerprinted,
and matched by fingerprint.  Catalog tables double as homomorphism targets
for separating words in groups the enumerator cannot close.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Optional

from .abelian import abelian_invariants
from .coset import CosetTable, GroupFingerprint, fingerprint, todd_coxeter
from .present import Presentation


def _p(names: str, *relators: tuple[int, ...]) -> Presentation:
    return Presentation(tuple(names.split()), tuple(relators))


def _dihedral(n: int) -> Presentation:
    return _p("x y", (1,) * n, (2, 2), (1, 2, 1, 2))


def _dicyclic(n: int) -> Presentation:
    # order 4n: x^(2n) = 1, y^2 = x^n, y^-1 x y = x^-1
    return _p("x y", (1,) * (2 * n), (2, 2) + (-1,) * n, (-2, 1, 2, 1))


_NONABELIAN: list[tuple[str, Presentation]] = [
    ("S3", _dihedral(3)),
    ("Dih4", _dihedral(4)),
    ("Dih5", _dihedral(5)),
    ("Dih6", _dihedral(6)),
    ("Dih7", _dihedral(7)),
    ("Dih8", _dihedral(8)),
    ("Dih9", _dihedral(9)),
    ("Dih10", _dihedral(10)),
    ("Q8", _dicyclic(2)),
    ("Q16", _dicyclic(4)),
    ("Z3:Z4", _dicyclic(3)),   # dicyclic of order 12
    ("Dic5", _dicyclic(5)),    # dicyclic of order 20, split as Z5 : Z4 by inversion
    ("A4", _p("x y", (1, 1), (2, 2, 2), (1, 2, 1, 2, 1, 2))),
    ("Z5:Z4", _p("x y", (1,) * 5, (2,) * 4, (-2, 1, 2, -1, -1))),  # faithful action
    ("Mod16", _p("x y", (1,) * 8, (2, 2), (-2, 1, 2, -1, -1, -1, -1, -1))),
    ("SD16", _p("x y", (1,) * 8, (2, 2), (-2, 1, 2, -1, -1, -1))),
    ("Z4:Z4", _p("x y", (1,) * 4, (2,) * 4, (-2, 1, 2, 1))),
    # the two order-16 split extensions of Z4 x Z2 by Z2 met in practice:
    # (a) the action fixing the Z2 factor and twisting x to xy
    ("(Z4xZ2):Z2a", _p("x y z", (1,) * 4, (2, 2), (3, 3),
                       (1, 2, -1, -2), (3, 2, -3, -2), (3, 1, -3, -2, -1))),
    # (b) the central product of Q8 with Z4 (Pauli group)
    ("(Z4xZ2):Z2b", _p("x y z", (1,) * 4, (2, 2, -1, -1), (-2, 1, 2, 1),
                       (3, 3, -1, -1), (3, 1, -3, -1), (3, 2, -3, -2))),
    ("Z2xDih4", _p("x y z", (1,) * 4, (2, 2), (1, 2, 1, 2), (3, 3),
                   (3, 1, -3, -1), (3, 2, -3, -2))),
    ("Z2xQ8", _p("x y z", (1,) * 4, (2, 2, -1, -1), (-2, 1, 2, 1), (3, 3),
                 (3, 1, -3, -1), (3, 2, -3, -2))),
    ("Z3xS3", _p("x y z", (1,) * 3, (2, 2), (1, 2, 1, 2), (3, 3, 3),
                 (3, 1, -3, -1), (3, 2, -3, -2))),
]


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    table: CosetTable
    fp: GroupFingerprint


@cache
def catalog() -> tuple[CatalogEntry, ...]:
    entries = []
    for name, pres in _NONABELIAN:
        run = todd_coxeter(pres, max_cosets=5000)
        if run.status != "complete":
            raise RuntimeError(f"catalog group {name} did not close")
        fp = fingerprint(run.table, abelian_invariants(pres))
        entries.append(CatalogEntry(name, run.table, fp))
    return tuple(entries)


def abelian_name(invariants) -> str:
    if not invariants.torsion and not invariants.free_rank:
        return "Z1"
    parts = ["Z"] * invariants.free_rank
    parts += [f"Z{d}" for d in sorted(invariants.torsion, reverse=True)]
    return " x ".join(parts)


def identify_small_group(fp: GroupFingerprint) -> tuple[Optional[str], list[str]]:
    """Catalog name for a fingerprint: (name, []) when unique, else
    (None, candidates).  Abelian groups are named from their invariants."""
    if fp.derived_order == 1:
        return abelian_name(fp.abelianization), []
    key = fp.key()
    hits = [e.name for e in catalog() if e.fp.key() == key and e.fp.order == fp.order]
    if len(hits) == 1:
        return hits[0], []
    return None, hits
