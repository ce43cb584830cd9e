"""Frozen reference inventories for the small ranks.

Matrices are orbit representatives as published for these class counts;
they need not coincide with our canonical forms, so tests always compare
through orbit_canonical_form.
"""

# rank 3x3: (matrix text, group name, abelian invariants (free_rank, torsion))
RANK_3x3 = [
    ("x 1 2\n1 3 4\n2 4 3", "Z x Z2", (1, (2,))),
    ("x 1 2\n1 3 4\n4 2 3", "Z4", (0, (4,))),
    ("x 1 2\n3 4 1\n4 2 3", "Z5", (0, (5,))),
]

# rank 3x5: (matrix text, order, name)
RANK_3x5 = [
    ("x 1 2 3 4\n1 2 5 6 7\n6 4 7 5 3", 8, "Z8"),
    ("x 1 2 3 4\n1 5 3 6 7\n4 7 5 2 6", 7, "Z7"),
    ("x 1 2 3 4\n1 5 3 6 7\n6 2 4 7 5", 9, "Z9"),
    ("x 1 2 3 4\n1 5 3 6 7\n7 2 5 4 6", 7, "Z7"),
    ("x 1 2 3 4\n5 2 1 6 7\n6 5 7 4 3", 8, "Dih4"),
    ("x 1 2 3 4\n5 2 3 6 7\n6 4 7 1 5", 10, "Z10"),
    ("x 1 2 3 4\n5 2 3 6 7\n6 5 7 4 1", 8, "Q8"),
    ("x 1 2 3 4\n5 2 3 6 7\n7 6 5 4 1", 8, "Z8"),
    ("x 1 2 3 4\n5 2 6 4 7\n6 7 1 5 3", 8, "Z8"),
]

# rank 3x7: the two infinite classes with their abelianisations, and the
# finite order sequence in canonical emission order
RANK_3x7_INFINITE = [
    ("x 1 2 3 4 5 6\n1 2 7 4 8 9 10\n3 5 8 6 7 10 9", (1, (2,))),
    ("x 1 2 3 4 5 6\n1 2 7 4 8 9 10\n3 5 10 6 9 8 7", (1, ())),
]
RANK_3x7_FINITE_ORDERS = (11, 12, 14, 11, 10, 10, 13, 11, 10, 12, 10, 16, 13, 12, 16, 11)
RANK_3x7_NONABELIAN = {"A4", "Q16", "Dih5"}

# rank 3x9 headline counts
RANK_3x9_CLASSES = 24
RANK_3x9_INFINITE = 2
# abelianisations of the two infinite 3x9 classes
RANK_3x9_INFINITE_INVARIANTS = {(1, (4,)), (1, (2,))}
# sha256 of the output of `gridgroups enumerate --rows 3 --cols 9`: all
# 215 824 classes, one matrix line each, in emission order
RANK_3x9_ENUMERATE_SHA256 = "f994119eda0d85b9cd4af517bd9f387cd6334443185ac45d75e5f7416af2a9f1"
# sha256 of the output of `gridgroups classify --rows 3 --cols 9
# --max-cosets 20000 --kb-max-rules 1500`, serial or with workers: all
# 215 824 records
RANK_3x9_CLASSIFY_SHA256 = "874b9a8db4da71aaa8fc4a27c33743605a6ddbc08227b98f8842411d9b0d6b4f"
# sha256 of the output of `gridgroups classify --rows 3 --cols 7
# --max-cosets 20000 --kb-max-rules 1500`: all 3 403 records
RANK_3x7_CLASSIFY_SHA256 = "7e05cb7c33c4e8434e743a2e2ccd2e6fe7f3b7ee07566007a6faba71cf8f5d6d"
# sha256 of the output of `gridgroups classify --rows 5 --cols 5 --filter
# mirror --max-cosets 20000 --kb-max-rules 1500`: all 1 889 mirror-form
# records as the code gives them today (1 792 degenerate, 97 infinite;
# RANK_5x5_MIRROR_NOT_DEGENERATE, the published count, is 100)
RANK_5x5_MIRROR_CLASSIFY_SHA256 = "588ebccbdff0e6bf7461b744c30ce9b8cdd655a6517faaa01bd07f3234a5f6ed"
# the 3x9 classes whose raw presentation does not close within 20 000
# cosets, while the presentation left by eliminate_generators closes within
# 1 500; all are degenerate with witness a1 = a2
RANK_3x9_CLOSED_ONLY_ELIMINATED = [
    "x 1 2 3 4 5 6 7 8\n" + rows for rows in (
        "9 2 3 4 5 10 11 12 13\n10 9 11 12 13 6 7 8 1",
        "9 2 3 4 5 10 11 12 13\n11 10 9 12 13 6 7 8 1",
        "9 2 3 4 5 10 11 12 13\n11 10 12 9 13 7 8 6 1",
        "9 2 3 4 5 10 11 12 13\n11 10 12 13 9 7 1 8 6",
        "9 2 3 10 5 11 7 12 13\n10 11 13 4 12 8 9 1 6",
        "9 2 3 10 5 11 7 12 13\n11 9 13 4 12 8 10 1 6",
        "9 2 3 10 5 11 7 12 13\n11 12 13 6 10 1 9 8 4",
        "9 2 3 10 5 11 7 12 13\n13 11 9 4 12 8 10 1 6",
    )]

# rank 3x11 headline counts (stretch)
RANK_3x11_CLASSES = 29
RANK_3x11_INFINITE = 2
RANK_3x11_INFINITE_INVARIANTS = {(2, ()), (1, (2,))}

# rank 5x5 headline counts (stretch)
RANK_5x5_MIRROR_NOT_DEGENERATE = 100   # mirror-form classes not proved degenerate
RANK_5x5_MIRROR_NONDEG_AT_LEAST = 79
RANK_5x5_FINITE_TOTAL = 2741
RANK_5x5_FINITE_ABELIAN = 2102
RANK_5x5_FINITE_NONABELIAN = 739
RANK_5x5_INFINITE_ABELIAN = 78
RANK_5x5_FREQ = {"S3": 558, "Dih4": 56, "Q8": 28}
RANK_5x5_BY_ORDER = {
    # order: (abelian, nonabelian)
    6: (1606, 558), 8: (274, 84), 10: (54, 0), 11: (21, 0), 12: (98, 46),
    13: (7, 0), 14: (12, 4), 15: (3, 0), 16: (16, 43), 17: (7, 0),
    18: (2, 2), 19: (2, 0), 20: (0, 2),
}

# mirror-form 5x5 classes with short hand proofs from relator subsets:
# (matrix, labels of the relators used, word, exponent with trivial power)
HAND_PROOFS = [
    ("x 1 2 3 4\n1 5 6 7 8\n2 6 9 8 10\n3 11 7 12 5\n4 10 11 9 12",
     (5, 6, 7, 8), "a1*a3^-1", 2),
    ("x 1 2 3 4\n1 5 6 7 8\n2 6 9 10 11\n3 10 7 12 5\n4 11 8 9 12",
     (5, 6, 7, 8, 12), "a1*a4^-1", 4),
    ("x 1 2 3 4\n1 5 6 7 8\n2 7 8 9 10\n3 10 5 11 12\n4 11 12 6 9",
     (5, 6, 7, 11, 9), "a1*a3^-1", 4),
]

# the two non-amenable 5x5 classes (annotation targets)
NON_AMENABLE_5x5 = [
    "x 1 2 3 4\n1 5 3 2 6\n6 4 7 8 5\n9 10 11 12 7\n10 9 12 11 8",
    "x 1 2 3 4\n1 5 3 2 6\n4 6 7 8 5\n9 10 11 12 7\n10 9 12 11 8",
]

# a fixed slice of the rank-5x5 mirror-form classes: every 16th, in
# enumeration order, of the 1 864 that classify in under 0.3 s at the
# acceptance budgets; each key is one base-36 digit per cell, row-major,
# after the corner
MIRROR_5x5_SLICE = [
    "1234156782658739abc4a9cb", "1234156782658939abc4b7ca", "123415678265893ab9c4cab7",
    "1234156782659a37abc4b8c9", "1234156782659a37bac4c8b9", "1234156782659a38bac47cb9",
    "1234156782659a38bc94bca7", "1234156782659a39bc74c8ab", "1234156782675938abc4bc9a",
    "123415678267593ab8c4c9ba", "1234156782678939abc4cba5", "123415678267893ab5c4b9ca",
    "123415678267893abc54b9ac", "123415678267953a8bc49bca", "1234156782679a385bc4abc9",
    "1234156782679a38abc4bc59", "1234156782679a38bac4bc59", "1234156782679a38bc94ba5c",
    "1234156782679a39abc4c58b", "1234156782679a39bac4c58b", "1234156782679a3a8bc49bc5",
    "1234156782679a3ab5c4c98b", "1234156782679a3abc54c98b", "1234156782679a3b58c4cba9",
    "1234156782679a3b5c94ca8b", "1234156782679a3b8ac4cb59", "1234156782679a3b8c94cba5",
    "1234156782679a3b9ac4c85b", "1234156782679a3ba5c4cb89", "1234156782679a3bac94c58b",
    "1234156782679a3bc854a9cb", "1234156782679a3bca5498cb", "123415678269873ab5c4bca9",
    "1234156782698a37b9c4ca5b", "1234156782698a37bc94ca5b", "1234156782698a39b5c4c7ab",
    "1234156782698a39bc74acb5", "1234156782698a3ab5c4b7c9", "1234156782698a3abc749c5b",
    "1234156782698a3b5ac49cb7", "1234156782698a3b79c4abc5", "1234156782698a3ba9c47cb5",
    "123415678269ab37b9c4a8c5", "123415678269ab37cb94a8c5", "123415678269ab385c749cba",
    "123415678269ab385ca4c7b9", "123415678269ab387bc4c59a", "123415678269ab387ca4b59c",
    "123415678269ab38bc54ca97", "123415678269ab38c5a4c7b9", "123415678269ab38cb54a7c9",
    "123415678269ab38cba4c759", "123415678269ab397c54bc8a", "123415678269ab398c74acb5",
    "123415678269ab39c874c5ba", "123415678269ab3a78c4bc59", "123415678269ab3a8c94c7b5",
    "123415678269ab3b8c54c79a", "1234156782756939abc4cb8a", "1234156782758939abc4cb6a",
    "123415678275893ab9c4ca6b", "123415678275963ab8c4cab9", "1234156782759a36bac49c8b",
    "1234156782759a38bac49c6b", "1234156782759a398bc4cba6", "1234156782759a39bc64c8ab",
    "1234156782759a3abc64b98c", "1234156782759a3b8ac4c96b", "1234156782759a3ba6c4c8b9",
    "1234156782759a3bac946b8c", "1234156782759a3bc894ab6c", "1234156782785639abc4bca9",
    "123415678278593ab9c4bc6a", "123415678278693ab5c49cab", "123415678278953ab6c49cab",
    "123415678278963ab5c4cab9", "1234156782789a36bac4c9b5", "1234156782789a39b5c46cab",
    "1234156782789a39bc54bca6", "1234156782789a3ab6c4c5b9", "1234156782789a3abc64c9b5",
    "1234156782789a3b5ac4cb69", "1234156782789a3ba5c4c9b6", "1234156782789a3bac649c5b",
    "1234156782789a3bc564cba9", "1234156782789a3bca549b6c", "1234156782789a3bca94cb56",
    "1234156782795a38bac49c6b", "1234156782795a39bc64b8ac", "1234156782795a3abc64b89c",
    "1234156782795a3b8ac49cb6", "1234156782795a3ba8c4cb69", "1234156782795a3bc964c8ab",
    "1234156782796a38bc94ac5b", "1234156782796a3ab8c4c59b", "123415678279853ab6c4cab9",
    "123415678279863abc54ba9c", "1234156782798a39b6c4c5ab", "1234156782798a3ab6c4c5b9",
    "1234156782798a3abc94b56c", "1234156782798a3b5c946cab", "1234156782798a3bac546c9b",
    "1234156782798a3bc694ab5c", "1234156782798a3bca64cb59", "123415678279a536bca4bc89",
    "123415678279a539bc64ac8b", "123415678279a53b8c64ab9c", "123415678279a53b8ca4cb96",
    "123415678279a53bc964ab8c", "123415678279a63abc549c8b", "123415678279a63b8c94ab5c",
    "123415678279ab398bc4ac65", "123415678279ab3b89c4ac65", "123415678279ab3b8c94ca56",
    "123415678279ab3c8b6495ca", "1234156782958a3abc64c79b", "1234156782978a3abc94c56b",
]


def mirror_5x5_text(key):
    """The matrix text of a MIRROR_5x5_SLICE key."""
    cells = ["x"] + [str(int(c, 36)) for c in key]
    return "\n".join(" ".join(cells[r:r + 5]) for r in range(0, 25, 5))
