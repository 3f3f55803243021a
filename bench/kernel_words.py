"""Seeded random kernel words for the rewrite round-trip jobs.

A word lies in the commutator subgroup exactly when its bidegree is
trivial: braid exponent sum 0 and an even number of symmetric letters.
Words are built the way the acceptance suite builds them: random
letters, then a tail ``r1^e s1^(-i)`` that closes the bidegree.  Letters
are plain ``(family, strand, exponent)`` tuples, so the generator needs
nothing from the package under test; the same seed gives the same words.
"""

from __future__ import annotations

import random

Letter = tuple  # ("sigma" | "rho", strand, +1 | -1)


def free_reduce(letters) -> list:
    stack: list = []
    for fam, k, exp in letters:
        if stack and stack[-1] == (fam, k, -exp):
            stack.pop()
        else:
            stack.append((fam, k, exp))
    return stack


def bidegree(letters) -> tuple[int, int]:
    i = e = 0
    for fam, _, exp in letters:
        if fam == "sigma":
            i += exp
        else:
            e ^= 1
    return i, e


def close_kernel(letters) -> list:
    """Append the bidegree tail and freely reduce."""
    i, e = bidegree(letters)
    tail = [("rho", 1, 1)] * e + [("sigma", 1, -1 if i > 0 else 1)] * abs(i)
    return free_reduce(list(letters) + tail)


def kernel_word(rng: random.Random, rank: int, length: int) -> list:
    """One kernel word of about ``length`` letters in the rank-``rank`` group.

    Random letters are drawn without immediate cancellation until they
    plus their closing tail reach ``length``; the closed word is then
    freely reduced, so its actual length may differ by a letter or two.
    """
    pool = [(fam, k) for fam in ("sigma", "rho") for k in range(1, rank)]
    letters: list = []
    i = e = 0
    while len(letters) + e + abs(i) < length:
        fam, k = rng.choice(pool)
        exp = rng.choice((-1, 1))
        if letters and letters[-1] == (fam, k, -exp):
            continue
        letters.append((fam, k, exp))
        if fam == "sigma":
            i += exp
        else:
            e ^= 1
    return close_kernel(letters)


def kernel_words(seed: int, rank: int, lengths) -> list[dict]:
    """Words for each target length, with the seed and actual lengths."""
    rng = random.Random(seed)
    out = []
    for target in lengths:
        letters = kernel_word(rng, rank, target)
        out.append({"seed": seed, "target": target, "length": len(letters),
                    "letters": letters})
    return out
