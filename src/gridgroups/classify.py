"""Per-class analysis: group construction, degeneracy, structure, checks.

classify() is a pure function of (matrix, budgets).  Every failure mode is
a verdict, never an exception: a class the provers cannot settle within
budget is reported undecided with the budgets that were spent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .abelian import AbelianInvariants
from .coset import CosetTable, GroupFingerprint, fingerprint, todd_coxeter
from .grid import (GridDims, GridError, Pairing, PairingMatrix, column_connected,
                   format_matrix, orbit_canonical_form, parse_matrix,
                   proper_invariant_subgrids, row_connected)
from .groupring import DirectFinitenessReport, verify_direct_finiteness
from .present import (Presentation, Word, format_word, free_reduce,
                      generator_families, presentation_from_matrix)
from .rewrite import RewriteSystem
from .smallgroups import identify_small_group
from .wordprob import Budgets, GroupToolbox

TC_FIRST_PASS = 1500  # coset budget for the cheap first attempt


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


def _degeneracy_from_table(table: CosetTable, dims: GridDims, translate=None):
    for fam in generator_families(dims):
        seen: dict[int, str] = {}
        for name, word in fam:
            e = table.element(word if translate is None else translate(word))
            if e in seen:
                return (seen[e], name, "same element of the closed coset table")
            seen[e] = name
    return None


def _degeneracy_partial(toolbox: GroupToolbox, dims: GridDims):
    """Equality proofs from a non-closed run: coincidences, then rewriting."""
    run = toolbox.coset_run()  # reuse whatever enumeration already ran
    kb: Optional[RewriteSystem] = None
    undecided: list[tuple[str, str]] = []
    for named in generator_families(dims):
        for i in range(len(named)):
            for k in range(i + 1, len(named)):
                n1, w1 = named[i]
                n2, w2 = named[k]
                if run.graph is not None and run.equal_words(w1, w2):
                    return (n1, n2, "coincidence in partial coset enumeration"), []
                img1 = toolbox.abelianization.image(w1)
                img2 = toolbox.abelianization.image(w2)
                if img1 != img2:
                    continue  # provably distinct
                if toolbox.simplify_word(w1) == toolbox.simplify_word(w2):
                    return (n1, n2, "identical after generator elimination"), []
                if kb is None:
                    kb = toolbox.rewriting
                r1, r2 = kb.reduce_word(w1), kb.reduce_word(w2)
                if r1 == r2:
                    return (n1, n2, "common rewriting reduct"), []
                if not kb.confluent:
                    undecided.append((n1, n2, w1, w2))
    # the stragglers get the full word-problem pipeline (quotient search and
    # the eliminated-generator rewriting fallback)
    still: list[tuple[str, str]] = []
    for n1, n2, w1, w2 in undecided:
        v = toolbox.word_equal(w1, w2)
        if v.outcome == "equal":
            return (n1, n2, v.evidence), []
        if v.outcome == "unknown":
            still.append((n1, n2))
    return None, still


def structural_flags(pairing: Pairing) -> dict[str, bool]:
    """The grid-only flags of a class record, keyed by their field names."""
    return dict(
        row_connected=row_connected(pairing),
        column_connected=column_connected(pairing),
        no_proper_invariant_subgrid=not proper_invariant_subgrids(pairing),
    )


def classify_matrix(mat: PairingMatrix, budgets: Budgets = Budgets(),
                    assume_canonical: bool = True,
                    flags: Optional[dict[str, bool]] = None) -> ClassificationRecord:
    """The record of one class.  `flags` are the matrix's structural_flags
    when the caller has computed them already."""
    if not assume_canonical:
        mat = orbit_canonical_form(mat)
    dims = GridDims(*mat.dims).require_odd()
    pairing = mat.pairing()
    pres = presentation_from_matrix(mat)
    toolbox = GroupToolbox(pres, budgets)

    if flags is None:
        flags = structural_flags(pairing)

    verdict: Optional[Verdict] = None
    table: Optional[CosetTable] = None

    first = toolbox.coset_run(min(TC_FIRST_PASS, budgets.max_cosets))
    if first.status == "complete" and first.table.coset_count == 1:
        inv = AbelianInvariants(0, ())  # the trivial group: no Smith form needed
    else:
        inv = toolbox.abelianization.invariants
        if first.status != "complete" and inv.free_rank == 0 \
                and budgets.max_cosets > TC_FIRST_PASS:
            first = toolbox.coset_run(budgets.max_cosets)

    if first.status == "complete":
        table = first.table
        witness = _degeneracy_from_table(table, dims)
        if witness is not None:
            verdict = Verdict("degenerate", witness=witness)
        else:
            fp = fingerprint(table)
            name, candidates = identify_small_group(fp)
            verdict = Verdict("finite", order=table.coset_count, name=name,
                              name_candidates=tuple(candidates), fingerprint=fp)
    else:
        witness, undecided_pairs = _degeneracy_partial(toolbox, dims)
        if witness is not None:
            verdict = Verdict("degenerate", witness=witness)
        elif undecided_pairs:
            verdict = Verdict(
                "undecided",
                evidence="distinctness unresolved for "
                         + ", ".join(f"{x}~{y}" for x, y in undecided_pairs)
                         + f" within budgets {budgets}")
        else:
            # all generator images pairwise separated: nondegenerate
            if inv.free_rank > 0:
                verdict = Verdict("infinite", abelian=toolbox.is_abelian(),
                                  evidence=f"abelianisation has free rank {inv.free_rank}")
            else:
                for kb, translate in ((toolbox.rewriting, None),
                                      (toolbox.rewriting_simplified,
                                       toolbox.simplify_word)):
                    if not kb.confluent:
                        continue
                    kind, count = kb.language()
                    if kind == "infinite":
                        verdict = Verdict("infinite", abelian=toolbox.is_abelian(),
                                          evidence="confluent system with infinitely many normal forms")
                        break
                    table = _table_from_rewriting(kb)
                    if table is None:
                        continue
                    witness = _degeneracy_from_table(table, dims, translate=translate)
                    if witness is not None:
                        verdict = Verdict("degenerate", witness=witness)
                    else:
                        fp = fingerprint(table)
                        name, candidates = identify_small_group(fp)
                        verdict = Verdict("finite", order=table.coset_count,
                                          name=name, name_candidates=tuple(candidates),
                                          fingerprint=fp)
                    break
                if verdict is None:
                    verdict = Verdict("undecided",
                                      evidence=f"enumeration and rewriting budgets exhausted: {budgets}")

    dfc = None
    ic = None
    translate = None if (table is None or table.presentation is pres) \
        else toolbox.simplify_word
    forces: Optional[bool] = False if dims.rows != dims.cols else None
    if verdict.kind == "finite":
        dfc = verify_direct_finiteness(pairing, table, translate=translate)
        if dims.rows == dims.cols:
            forces = _forces_from_table(table, dims, translate=translate)
        ic = TorsionQuotientReport(
            torsion_words=(), iterations=0, quotient_abelian=True,
            collision=("a", "1", "a1"),
        )
    elif verdict.kind in ("infinite", "undecided"):
        if dims.rows == dims.cols:
            forces = _forces_syntactic(mat) or None
        if verdict.kind == "infinite":
            ic = torsion_quotient_report(pres, dims, budgets)

    return ClassificationRecord(
        matrix=mat, verdict=verdict, forces_a_eq_b=forces,
        abelian_invariants=inv, dfc=dfc, ic=ic,
        annotations=_annotations_for(mat), **flags)


def classify(pairing: Pairing, budgets: Budgets = Budgets()) -> ClassificationRecord:
    return classify_matrix(pairing.canonical_matrix(), budgets)


def _table_from_rewriting(kb: RewriteSystem) -> Optional[CosetTable]:
    kind, count = kb.language()
    if kind != "finite" or count > 4096:
        return None
    forms = kb.normal_forms(count + 1)
    if len(forms) != count:
        return None
    index = {w: i for i, w in enumerate(sorted(forms, key=lambda w: (len(w), w)))}
    nd = 2 * kb.presentation.generator_count
    action = []
    for w in sorted(forms, key=lambda w: (len(w), w)):
        action.append([index[kb.reduce(w + bytes((d,)))] for d in range(nd)])
    # the rewriting presentation is the simplified one: keep it attached
    return CosetTable(kb.presentation.generator_count, action, kb.presentation)


def _forces_from_table(table: CosetTable, dims: GridDims, translate=None) -> bool:
    a_set, b_set = ({table.element(w if translate is None else translate(w))
                     for _, w in fam} for fam in generator_families(dims))
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
    partner: dict[tuple[int, int], tuple[int, int]] = {}
    for cells in mat.cells_by_label().values():
        partner[cells[0]] = cells[1]
        partner[cells[1]] = cells[0]
    return all(partner[(0, k)][1] == 0 for k in range(1, cols))


def filter_flags(record: ClassificationRecord) -> ClassificationRecord:
    """Recompute the structural filter memberships from the grid alone.

    Pure matrix predicates plus the syntactic mirror test; no group
    computation happens here, so this is safe on undecided records too.
    """
    forces = record.forces_a_eq_b
    if _forces_syntactic(record.matrix):
        forces = True
    return ClassificationRecord(**{**record.__dict__,
                                   **structural_flags(record.matrix.pairing()),
                                   "forces_a_eq_b": forces})


def forces_a_eq_b(record_or_matrix, budgets: Budgets = Budgets()) -> Optional[bool]:
    """Whether the relations force the two support sums to coincide.

    Exact over a closed coset table; for groups that stay open, a proved
    matching of the two families decides true, a proved mismatch decides
    false, anything else is unknown (None).
    """
    mat = record_or_matrix.matrix if isinstance(record_or_matrix, ClassificationRecord) \
        else record_or_matrix
    dims = GridDims(*mat.dims)
    if dims.rows != dims.cols:
        raise GridError("only square grids can force equality of the support sums")
    if _forces_syntactic(mat):
        return True
    pres = presentation_from_matrix(mat)
    toolbox = GroupToolbox(pres, budgets)
    run = toolbox.coset_run()
    if run.status == "complete":
        return _forces_from_table(run.table, dims)
    a_named, b_named = generator_families(dims)
    unmatched_b = {n for n, _ in b_named}
    unknown = False
    for n1, w1 in a_named:
        hit = None
        for n2, w2 in b_named:
            v = toolbox.word_equal(w1, w2)
            if v.outcome == "equal":
                hit = n2
                break
            if v.outcome == "unknown":
                unknown = True
        if hit is None:
            return None if unknown else False
        unmatched_b.discard(hit)
    if not unmatched_b:
        return True
    return None if unknown else False


# ---------------------------------------------------------------------------
# Torsion-closure quotient approximation

def torsion_quotient_report(pres: Presentation, dims: GridDims,
                            budgets: Budgets = Budgets(),
                            max_iterations: int = 4) -> TorsionQuotientReport:
    """Iteratively adjoin short certified-torsion words and study the quotient.

    The final quotient maps onto the torsion-free core, so a generator
    collision found here certifies one there, and an abelian quotient makes
    the collision decidable exactly in the free part.
    """
    current = pres
    found: list[tuple[str, int]] = []
    iterations = 0
    for _ in range(max_iterations):
        toolbox = GroupToolbox(current, budgets)
        run = toolbox.coset_run(min(TC_FIRST_PASS, budgets.max_cosets))
        if run.status == "complete":
            # everything is torsion: the quotient collapses completely
            a_fam, _ = generator_families(dims)
            coll = ("a", "1", a_fam[1][0]) if len(a_fam) > 1 else None
            return TorsionQuotientReport(tuple(found), iterations, True, coll)
        existing = {free_reduce(r) for r in current.relators}
        new_relators: list[tuple[Word, int]] = []
        for word in _short_words(toolbox, budgets.torsion_word_len):
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

    toolbox = GroupToolbox(current, budgets)
    quotient_abelian = toolbox.is_abelian()
    collision = None
    families = tuple(zip("ab", generator_families(dims)))
    if quotient_abelian:
        ab = toolbox.abelianization
        tor = len(ab.invariants.torsion)
        for famname, fam in families:
            seen: dict[tuple, str] = {}
            for name, word in fam:
                free_part = tuple(ab.image(word)[tor:])
                if free_part in seen:
                    collision = (famname, seen[free_part], name)
                    break
                seen[free_part] = name
            if collision:
                break
    else:
        for famname, named in families:
            for i in range(len(named)):
                for k in range(i + 1, len(named)):
                    v = toolbox.word_equal(named[i][1], named[k][1])
                    if v.outcome == "equal":
                        collision = (famname, named[i][0], named[k][0])
                        break
                if collision:
                    break
            if collision:
                break
    return TorsionQuotientReport(tuple(found), iterations, quotient_abelian, collision)


def _short_words(toolbox: GroupToolbox, max_len: int):
    """Candidate torsion words: short combinations of surviving generators,
    mapped back to the original alphabet."""
    names = toolbox.simplified.presentation.names
    original = toolbox.presentation.names
    back = [original.index(n) + 1 for n in names]
    n = len(back)
    singles = [(g,) for g in back]
    for w in singles:
        yield w
    if max_len < 2:
        return
    for i in range(n):
        for j in range(n):
            if i != j:
                yield (back[i], -back[j])
            if i < j:
                yield (back[i], back[j])
    if max_len < 4:
        return
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
    return Pairing(GridDims(size, size), pairs).to_matrix()


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

_CURATED: Optional[dict[tuple, tuple[str, ...]]] = None


def _annotations_for(mat: PairingMatrix) -> tuple[str, ...]:
    global _CURATED
    if _CURATED is None:
        table: dict[tuple, tuple[str, ...]] = {}
        for _, text, label in _CURATED_RAW:
            canon = orbit_canonical_form(parse_matrix(text))
            key = (canon.dims, canon.flat)
            table[key] = table.get(key, ()) + (label,)
        _CURATED = table
    return _CURATED.get((mat.dims, mat.flat), ())


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
