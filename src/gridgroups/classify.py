"""Per-class analysis: group construction, degeneracy, structure, checks.

classify_matrix() is a pure function of (matrix, budgets).  Every failure
mode is a verdict, never an exception: a class the provers cannot settle
within budget is reported undecided, with the budgets it was given.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from typing import Optional

from .abelian import Abelianization, AbelianInvariants
from .coset import (CosetEnumeration, CosetTable, GroupFingerprint, fingerprint,
                    todd_coxeter)
from .grid import (GridDims, GridError, PairingMatrix, cell_partners,
                   column_connected, format_matrix, orbit_canonical_form,
                   parse_matrix, proper_invariant_subgrids, row_connected)
from .groupring import DirectFinitenessReport, verify_direct_finiteness
from .present import (Presentation, Word, family_pairs, first_family_repeat,
                      format_word, free_reduce, generator_families,
                      presentation_from_matrix)
from .smallgroups import identify_small_group
from .wordprob import Budgets, GroupToolbox

TC_FIRST_PASS = 1500  # coset budget for the cheap first attempt
TORSION_ITERATIONS = 4  # rounds of adjoined torsion words in the torsion report


@dataclass(frozen=True)
class Verdict:
    kind: str  # "degenerate" | "finite" | "infinite" | "undecided"
    # degenerate
    witness: Optional[tuple[str, str, str]] = None
    # finite
    order: Optional[int] = None
    name: Optional[str] = None
    name_candidates: tuple[str, ...] = ()
    fingerprint: Optional[GroupFingerprint] = None
    # infinite
    abelian: Optional[bool] = None
    evidence: str = ""


@dataclass(frozen=True)
class TorsionQuotientReport:
    torsion_words: tuple[tuple[str, int], ...]
    iterations: int
    quotient_abelian: Optional[bool]
    collision: Optional[tuple[str, str, str]]  # family, gen, gen


@dataclass(frozen=True)
class ClassificationRecord:
    matrix: PairingMatrix
    verdict: Verdict
    row_connected: bool
    column_connected: bool
    no_proper_invariant_subgrid: bool
    forces_a_eq_b: Optional[bool]
    abelian_invariants: AbelianInvariants
    dfc: Optional[DirectFinitenessReport] = None
    ic: Optional[TorsionQuotientReport] = None
    annotations: tuple[str, ...] = ()


def _degeneracy_from_table(table: CosetTable, dims: GridDims):
    repeat = first_family_repeat(dims, table.element)
    if repeat is None:
        return None
    _, n1, n2 = repeat
    return (n1, n2, "same element of the closed coset table")


def _closed_table_verdict(table: CosetTable, dims: GridDims,
                          invariants: AbelianInvariants) -> Verdict:
    """The verdict of a closed table of the class's group, whose abelian
    invariants are `invariants`: degenerate when two generators of a family
    are one element, else finite."""
    witness = _degeneracy_from_table(table, dims)
    if witness is not None:
        return Verdict("degenerate", witness=witness)
    fp = fingerprint(table, invariants)
    name, candidates = identify_small_group(fp)
    return Verdict("finite", order=table.coset_count, name=name,
                   name_candidates=tuple(candidates), fingerprint=fp)


def _first_unseparated(ab: Abelianization, dims: GridDims) -> Optional[tuple[Word, Word]]:
    """The first pair, in family_pairs order, whose images in the
    abelianisation agree; every pair before it is provably distinct."""
    image = ab.image
    for _, (_, w1), (_, w2) in family_pairs(dims):
        if image(w1) == image(w2):
            return w1, w2
    return None


def _first_pass(toolbox: GroupToolbox, dims: GridDims) -> CosetEnumeration:
    """The class's first coset run, chosen by the free rank of the toolbox's
    abelianisation, which is that of its eliminated presentation.

    Free rank 0: the eliminated presentation is enumerated to the first-pass
    limit, and a closed table over it, reading the original generators
    through the elimination, is the pass.  Otherwise the pass is the raw run to
    max_cosets, unwatched, where the pass over the raw presentation has
    always ended for a group of free rank 0.

    Free rank > 0: the group is infinite, so the raw run to the limit would
    not close, and _degeneracy_partial would report the first pair p that
    the abelianisation does not separate, met by a coincidence: every
    earlier pair is provably distinct, and coincidences persist.  So the run
    watches p alone and stops for good once p has met, which already proves
    the class degenerate; without p it runs to the limit unwatched."""
    budgets = toolbox.budgets
    limit = min(TC_FIRST_PASS, budgets.max_cosets)
    ab = toolbox.abelianization
    if ab.invariants.free_rank == 0:
        run = todd_coxeter(toolbox.eliminated, max_cosets=limit)
        return run if run.status == "complete" else toolbox.coset_run(budgets.max_cosets)
    return toolbox.coset_run(limit, watch=_first_unseparated(ab, dims))


def _degeneracy_partial(toolbox: GroupToolbox, dims: GridDims, run: CosetEnumeration):
    """(witness, []) for the first pair, in family_pairs order, proved equal
    from a run that did not close, else (None, the pairs left unknown): each
    pair goes through decide_without_search, and those it leaves open then
    through word_equal's searches."""
    open_pairs = []
    for _, (n1, w1), (n2, w2) in family_pairs(dims):
        v = toolbox.decide_without_search(run, w1, w2)
        if v is None:
            open_pairs.append((n1, w1, n2, w2))
        elif v.outcome == "equal":
            return (n1, n2, v.evidence), []
    still: list[tuple[str, str]] = []
    for n1, w1, n2, w2 in open_pairs:
        v = toolbox.word_equal(w1, w2)
        if v.outcome == "equal":
            return (n1, n2, v.evidence), []
        if v.outcome == "unknown":
            still.append((n1, n2))
    return None, still


def structural_flags(mat: PairingMatrix) -> dict[str, bool]:
    """The grid-only flags of a class record, keyed by their field names.
    A pairing with no proper invariant subgrid is row and column connected
    (see proper_invariant_subgrids), so only the others are tested."""
    subgrid_free = not proper_invariant_subgrids(mat)
    return dict(row_connected=subgrid_free or row_connected(mat),
                column_connected=subgrid_free or column_connected(mat),
                no_proper_invariant_subgrid=subgrid_free)


def classify_matrix(mat: PairingMatrix, budgets: Budgets = Budgets(),
                    assume_canonical: bool = True,
                    flags: Optional[dict[str, bool]] = None) -> ClassificationRecord:
    """The record of one class.  `flags` are the matrix's structural_flags
    when the caller has computed them already."""
    if not assume_canonical:
        mat = orbit_canonical_form(mat)
    dims = GridDims(*mat.dims).require_odd()
    pres = presentation_from_matrix(mat)
    toolbox = GroupToolbox(pres, budgets)

    if flags is None:
        flags = structural_flags(mat)

    table: Optional[CosetTable] = None
    first = _first_pass(toolbox, dims)
    inv = toolbox.abelianization.invariants
    if first.status == "complete":
        table = first.table
        verdict = _closed_table_verdict(table, dims, inv)
    else:
        witness, undecided_pairs = _degeneracy_partial(toolbox, dims, first)
        if witness is not None:
            verdict = Verdict("degenerate", witness=witness)
        elif undecided_pairs:
            verdict = Verdict(
                "undecided",
                evidence="distinctness unresolved for "
                         + ", ".join(f"{x}~{y}" for x, y in undecided_pairs)
                         + f" within budgets {budgets}")
        # from here on all generator images are pairwise separated
        elif inv.free_rank > 0:
            verdict = Verdict("infinite", abelian=toolbox.is_abelian(),
                              evidence=f"abelianisation has free rank {inv.free_rank}")
        else:
            # free rank 0: infinite when a confluent system has infinitely
            # many normal forms, the raw one or else the second completion,
            # which is built only when the raw one is not confluent
            kb = toolbox.rewriting
            if not kb.confluent:
                kb = toolbox.rewriting_simplified
            if kb.confluent and kb.language() == "infinite":
                verdict = Verdict("infinite", abelian=toolbox.is_abelian(),
                                  evidence="confluent system with infinitely many normal forms")
            else:
                verdict = Verdict("undecided",
                                  evidence=f"enumeration and rewriting budgets exhausted: {budgets}")

    dfc = None
    ic = None
    # forces_a_eq_b: false off the square; on it, read from a closed table,
    # true in mirror form for an open class, else unknown (degenerate too)
    forces: Optional[bool] = False if dims.rows != dims.cols else None
    if verdict.kind == "finite":
        dfc = verify_direct_finiteness(dims, table)
        if dims.rows == dims.cols:
            forces = _forces_from_table(table, dims)
        ic = TorsionQuotientReport(
            torsion_words=(), iterations=0, quotient_abelian=True,
            collision=("a", "1", "a1"),
        )
    elif verdict.kind in ("infinite", "undecided"):
        if dims.rows == dims.cols:
            forces = _forces_syntactic(mat) or None
        if verdict.kind == "infinite":
            ic = torsion_quotient_report(toolbox, dims)

    return ClassificationRecord(
        matrix=mat, verdict=verdict, forces_a_eq_b=forces,
        abelian_invariants=inv, dfc=dfc, ic=ic,
        annotations=_annotations_for(mat), **flags)


def _forces_from_table(table: CosetTable, dims: GridDims) -> bool:
    a_set, b_set = ({table.element(w) for _, w in fam}
                    for fam in generator_families(dims))
    return a_set == b_set


def _forces_syntactic(mat: PairingMatrix) -> bool:
    """Mirror form: every first-row cell pairs into the first column.

    This property is constant on symmetry orbits (a row/column permutation
    preserves it), and it pins each second-family generator equal to some
    first-family generator, so the two support sets coincide.
    """
    rows, cols = mat.dims
    if rows != cols:
        return False
    partner = cell_partners(mat)
    return all(partner[(0, k)][1] == 0 for k in range(1, cols))


# ---------------------------------------------------------------------------
# Torsion-closure quotient approximation

def torsion_quotient_report(toolbox: GroupToolbox, dims: GridDims) -> TorsionQuotientReport:
    """Iteratively adjoin short certified-torsion words, in at most
    TORSION_ITERATIONS rounds, and study the quotient.

    The final quotient maps onto the torsion-free core, so a generator
    collision found here certifies one there, and an abelian quotient makes
    the collision decidable exactly in the free part.  `toolbox` is the
    class's own, so its presentation is not completed, nor enumerated to the
    same limit, a second time.
    """
    budgets = toolbox.budgets
    first_pass = min(TC_FIRST_PASS, budgets.max_cosets)
    current = toolbox.presentation
    found: list[tuple[str, int]] = []
    iterations = 0
    for _ in range(TORSION_ITERATIONS):
        toolbox = _toolbox_on(current, toolbox, first_pass)
        if toolbox.coset_run().status == "complete":
            # everything is torsion: the quotient collapses completely
            a_fam, _ = generator_families(dims)
            coll = ("a", "1", a_fam[1][0]) if len(a_fam) > 1 else None
            return TorsionQuotientReport(tuple(found), iterations, True, coll)
        existing = {free_reduce(r) for r in current.relators}
        new_relators: list[tuple[Word, int]] = []
        for word in _short_words(toolbox):
            if free_reduce(word) in existing:
                continue
            order = toolbox.element_order(word)
            if order.kind == "finite" and order.value and order.value > 1:
                new_relators.append((word, order.value))
        if not new_relators:
            break
        current = Presentation(current.names,
                               current.relators + tuple(w for w, _ in new_relators))
        found.extend((format_word(w, current.names), k) for w, k in new_relators)
        iterations += 1

    # the final test starts from the first pass too, and enumerates to
    # max_cosets only for a question that run leaves open: that run is a
    # prefix of the larger one, so it decides nothing the larger one would
    # not, and decided answers are proofs, so they agree
    toolbox = _toolbox_on(current, toolbox, first_pass)
    quotient_abelian = toolbox.is_abelian()
    if quotient_abelian is None and _escalate(toolbox):
        quotient_abelian = toolbox.is_abelian()
    collision = None
    if quotient_abelian:
        ab = toolbox.abelianization
        tor = len(ab.invariants.torsion)
        collision = first_family_repeat(dims, lambda w: tuple(ab.image(w)[tor:]))
    else:
        for famname, (n1, w1), (n2, w2) in family_pairs(dims):
            v = toolbox.word_equal(w1, w2)
            if v.outcome == "unknown" and _escalate(toolbox):
                v = toolbox.word_equal(w1, w2)
            if v.outcome == "equal":
                collision = (famname, n1, n2)
                break
    return TorsionQuotientReport(tuple(found), iterations, quotient_abelian, collision)


def _toolbox_on(pres: Presentation, last: GroupToolbox, limit: int) -> GroupToolbox:
    """`last` when it is on `pres`, else a fresh toolbox on `pres`; either
    way working at its coset run to `limit`."""
    toolbox = last if pres is last.presentation else GroupToolbox(pres, last.budgets)
    toolbox.coset_run(limit)
    return toolbox


def _escalate(toolbox: GroupToolbox) -> bool:
    """Enumerate an exhausted run again to the full coset budget; whether
    that gave a new run."""
    run = toolbox.coset_run()
    return run.status == "exhausted" \
        and toolbox.coset_run(toolbox.budgets.max_cosets) is not run


def _short_words(toolbox: GroupToolbox):
    """Candidate torsion words of length 1, 2 and 4: the surviving
    generators, their products and quotients, and their commutators, over
    the original alphabet."""
    back = toolbox.simplified.kept
    n = len(back)
    for g in back:
        yield (g,)
    for i in range(n):
        for j in range(n):
            if i != j:
                yield (back[i], -back[j])
            if i < j:
                yield (back[i], back[j])
    for i in range(n):
        for j in range(i + 1, n):
            x, y = back[i], back[j]
            yield (x, y, -x, -y)


# ---------------------------------------------------------------------------
# The infinite family of square pairings

def family_pairing(n: int) -> PairingMatrix:
    """The (2n+1)x(2n+1) pairing whose groups form the infinite square family.

    Pairs: the two corner hooks, the top-left cross, a cross for every odd
    block position, and three ladders tying the first three rows to the
    first three columns.
    """
    if n < 2:
        raise GridError("the family starts at n = 2")
    size = 2 * n + 1
    pairs = [((0, 1), (1, 0)), ((0, 2), (2, 0)),
             ((1, 1), (2, 2)), ((1, 2), (2, 1))]
    for i in range(3, 2 * n, 2):
        for j in range(3, 2 * n, 2):
            pairs.append(((i, j), (i + 1, j + 1)))
            pairs.append(((i, j + 1), (i + 1, j)))
    for j in range(3, 2 * n + 1):
        pairs.append(((0, j), (j, 2)))
        pairs.append(((1, j), (j, 0)))
        pairs.append(((2, j), (j, 1)))
    return PairingMatrix.from_pairs(GridDims(size, size), pairs)


@dataclass(frozen=True)
class FamilyRecord:
    n: int
    record: ClassificationRecord


def family_record(n: int, budgets: Budgets = Budgets()) -> FamilyRecord:
    mat = family_pairing(n)
    rec = classify_matrix(mat, budgets, assume_canonical=False)
    if n >= 3:
        rec = ClassificationRecord(
            **{**rec.__dict__, "annotations": rec.annotations + (
                "non-amenable (known sofic); annotation from the curated table",)})
    return FamilyRecord(n, rec)


# ---------------------------------------------------------------------------
# Curated annotations keyed by canonical form

_CURATED_RAW = [
    ("5x5 amalgam of Z4 and ZxZ2 over Z2",
     "x 1 2 3 4\n1 5 3 2 6\n6 4 7 8 5\n9 10 11 12 7\n10 9 12 11 8",
     "non-amenable (known sofic)"),
    ("5x5 product Z2 x (Z * Z2)",
     "x 1 2 3 4\n1 5 3 2 6\n4 6 7 8 5\n9 10 11 12 7\n10 9 12 11 8",
     "non-amenable (known sofic)"),
]


@cache
def _curated() -> dict[tuple, tuple[str, ...]]:
    """The curated labels, keyed by the canonical form's dims and cells."""
    table: dict[tuple, tuple[str, ...]] = {}
    for _, text, label in _CURATED_RAW:
        canon = orbit_canonical_form(parse_matrix(text))
        key = (canon.dims, canon.flat)
        table[key] = table.get(key, ()) + (label,)
    return table


def _annotations_for(mat: PairingMatrix) -> tuple[str, ...]:
    return _curated().get((mat.dims, mat.flat), ())


# ---------------------------------------------------------------------------
# Record serialisation (JSON Lines)

def _invariants_json(inv: AbelianInvariants):
    return {"free_rank": inv.free_rank, "torsion": list(inv.torsion)}


def record_to_json(rec: ClassificationRecord) -> str:
    v = rec.verdict
    verdict: dict = {"kind": v.kind}
    if v.kind == "degenerate":
        verdict["witness"] = list(v.witness)
    elif v.kind == "finite":
        verdict.update(order=v.order, name=v.name,
                       name_candidates=list(v.name_candidates))
        fp = v.fingerprint
        verdict["fingerprint"] = {
            "order": fp.order,
            "abelianization": _invariants_json(fp.abelianization),
            "element_orders": [list(t) for t in fp.element_orders],
            "center_order": fp.center_order,
            "derived_order": fp.derived_order,
        }
    elif v.kind == "infinite":
        verdict.update(abelian=v.abelian, evidence=v.evidence)
    else:
        verdict["evidence"] = v.evidence
    doc = {
        "dims": [rec.matrix.dims.rows, rec.matrix.dims.cols],
        "matrix": format_matrix(rec.matrix),
        "verdict": verdict,
        "flags": {
            "row_connected": rec.row_connected,
            "column_connected": rec.column_connected,
            "no_proper_invariant_subgrid": rec.no_proper_invariant_subgrid,
            "forces_a_eq_b": rec.forces_a_eq_b,
        },
        "abelian_invariants": _invariants_json(rec.abelian_invariants),
        "dfc": None if rec.dfc is None else {"ab_is_one": rec.dfc.ab_is_one,
                                             "ba_is_one": rec.dfc.ba_is_one},
        "ic": None if rec.ic is None else {
            "torsion_words": [list(t) for t in rec.ic.torsion_words],
            "iterations": rec.ic.iterations,
            "quotient_abelian": rec.ic.quotient_abelian,
            "collision": list(rec.ic.collision) if rec.ic.collision else None,
        },
        "annotations": list(rec.annotations),
    }
    return json.dumps(doc, sort_keys=True)
