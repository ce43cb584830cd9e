"""Shared pieces of the campaign benchmark: paths, budgets, the per-class
reference format and the seeded input generators.

Run-time code never imports `gridgroups` at module level: the benchmark must
fail cleanly in a directory that holds only the benchmark's own files.
"""

from __future__ import annotations

import json
import lzma
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(HERE, "data")

# the acceptance budgets of tests/test_acceptance.py
MAX_COSETS = 20_000
KB_MAX_RULES = 1500
BUDGET_ARGS = ["--max-cosets", str(MAX_COSETS), "--kb-max-rules", str(KB_MAX_RULES)]

# reference pools: rank 3x9 is enumerated below its depth-21 search nodes;
# the rank-5x5 mirror-form classes below the depth-16 nodes whose
# first-column cells hold labels 1-4
SPLIT_3x9 = 21
SPLIT_5x5 = 16
# strata drawn per run (see stratified_sample): the 3x9 sample keeps the
# sweep's proportions; the 5x5 one gives each slow class group a stratum.
# Classes slower than the cap are not drawn: the eight degenerate 3x9
# classes of 150-350 ms, each of which runs Knuth-Bendix completion (a
# capped draw runs none), and the five mirror-form classes of 1.3-8.5 s,
# any one of which would take most of a run.
STRATA_3x9 = 1500
MAX_MS_3x9 = 100
STRATA_5x5 = 110
SPREAD_5x5 = 1.2
MAX_MS_5x5 = 1200

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def require_source() -> None:
    """Exit with an error unless the program's sources sit beside the benchmark."""
    if not os.path.isfile(os.path.join(SRC, "gridgroups", "cli.py")):
        sys.exit(f"perfbench: no gridgroups sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> dict:
    """Environment for campaign processes: the checkout's sources, default profile."""
    env = dict(os.environ)
    env.pop("GRIDGROUPS_PROFILE", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def class_key(flat) -> str:
    """Compact key of a complete matrix: one base-36 digit per labelled cell."""
    return "".join(_DIGITS[v] for v in flat[1:])


def key_from_matrix_text(text: str) -> str:
    cells = text.split()
    return "".join(_DIGITS[int(t)] for t in cells[1:])


def matrix_line(key: str, cols: int) -> str:
    """The matrix of a class key in the one-line text `classify --from` reads."""
    cells = ["x"] + [str(_DIGITS.index(c)) for c in key]
    return " / ".join(" ".join(cells[r:r + cols]) for r in range(0, len(cells), cols))


def signature(doc: dict) -> str:
    """The fields of a record that the reference pins.

    Witness provenance and evidence text are left out on purpose: a faster
    prover may find another proof of the same verdict.
    """
    v = doc["verdict"]
    return json.dumps({
        "kind": v["kind"],
        "order": v.get("order"),
        "name": v.get("name"),
        "abelian": v.get("abelian"),
        "abelian_invariants": doc["abelian_invariants"],
        "flags": doc["flags"],
        "dfc": doc["dfc"],
    }, sort_keys=True)


def reference_path(workload: str) -> str:
    return os.path.join(DATA, f"{workload}.json.xz")


def load_reference(workload: str) -> dict:
    with lzma.open(reference_path(workload), "rt") as fh:
        return json.load(fh)


def expected_by_key(ref: dict) -> dict:
    sigs = ref["signatures"]
    return {key: sigs[s] for key, s, *_ in ref["classes"]}


def is_mirror(flat, rows: int, cols: int) -> bool:
    """Mirror form: every first-row cell is paired with a first-column cell."""
    if rows != cols:
        return False
    first_col = {flat[r * cols] for r in range(1, rows)}
    return all(flat[k] in first_col for k in range(1, cols))


# ---------------------------------------------------------------------------
# seeded input generator (run before timing, never timed)

def stratified_sample(seed: int, ref: dict, strata: int, max_ms: float, kinds=None,
                      spread=None) -> list:
    """Keys of a seeded, cost-stratified sample of a reference's classes.

    The classes (of the given verdict kinds, and no slower than `max_ms`),
    sorted by the classification time recorded when the reference was
    built, are cut into about `strata` strata of equal size.  With
    `spread`, a stratum is also cut where its times would span more than
    that factor, which gives the slow tail strata of its own.  One class is
    drawn from each stratum, so every seed gets the same mix of cheap and
    slow classes and a run's cost depends on the code, not on the draw.
    """
    sigs = ref["signatures"]
    pool = sorted((ms, key) for key, s, ms in ref["classes"]
                  if ms <= max_ms and (kinds is None or json.loads(sigs[s])["kind"] in kinds))
    size = max(1, len(pool) // strata)
    groups: list = []
    for ms, key in pool:
        if groups and len(groups[-1]) < size and (
                spread is None or ms <= groups[-1][0][0] * spread):
            groups[-1].append((ms, key))
        else:
            groups.append([(ms, key)])
    rng = random.Random(seed)
    return sorted(rng.choice(g)[1] for g in groups)
