"""Brute-force references that share no code with the package.

Maps are image tuples (0-based), matrices are lists of Fraction rows. Every
routine here is slow and obvious on purpose: the benchmark checks the
package's answers against them, outside the timed region.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations

Image = tuple[int, ...]

# Probability that a correct sampler fails one op's statistical check.
FALSE_FAILURE = 1e-6


def is_irreducible(rows) -> bool:
    n = len(rows)
    for start in range(n):
        seen = {start}
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if rows[i][j] and j not in seen:
                    seen.add(j)
                    stack.append(j)
        if len(seen) < n:
            return False
    return True


def closure_images(images, cap: int | None = None) -> set[Image]:
    """Every composite of one or more generators. Stops once the set holds
    more than cap maps, when cap is given."""
    seen = set(images)
    frontier = list(seen)
    while frontier:
        fresh = []
        for t in frontier:
            for g in images:
                c = tuple(g[v] for v in t)
                if c not in seen:
                    seen.add(c)
                    fresh.append(c)
        if cap is not None and len(seen) > cap:
            return seen
        frontier = fresh
    return seen


def kernel(t: Image) -> frozenset[frozenset[int]]:
    classes: dict[int, set[int]] = {}
    for i, v in enumerate(t):
        classes.setdefault(v, set()).add(i)
    return frozenset(frozenset(c) for c in classes.values())


def closure_facts(images):
    """(coalescence number, coalescing pairs, limiting kernels), 0-based."""
    closure = closure_images(images)
    k = min(len(set(t)) for t in closure)
    n = len(images[0])
    pairs = {
        frozenset((x, y))
        for x, y in combinations(range(n), 2)
        if any(t[x] == t[y] for t in closure)
    }
    kernels = {kernel(t) for t in closure if len(set(t)) == k}
    return k, pairs, kernels


def resum(terms, n: int):
    """The matrix with entries sum of w over maps f with f(i) = j."""
    out = [[Fraction(0)] * n for _ in range(n)]
    for image, w in terms:
        for i, j in enumerate(image):
            out[i][j] += w
    return out


def invariant(rows) -> list[Fraction]:
    """The invariant law of an irreducible matrix: solve pi P = pi, sum 1."""
    n = len(rows)
    # Equations: for each column j, sum_i pi_i (P[i][j] - [i == j]) = 0; the
    # last one is replaced by the normalization.
    a = [[Fraction(rows[i][j]) - (1 if i == j else 0) for i in range(n)] + [Fraction(0)]
         for j in range(n)]
    a[-1] = [Fraction(1)] * n + [Fraction(1)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] / a[i][i] for i in range(n)]


def tv_bound(samples: int, states: int) -> float:
    """Total-variation level a correct sampler exceeds with probability at
    most FALSE_FAILURE (Bretagnolle-Huber-Carol: P(L1 >= e) <= 2^k e^{-N e^2/2})."""
    return math.sqrt((states * math.log(2) - math.log(FALSE_FAILURE)) / (2 * samples))


def cdf_gap_bound(runs: int) -> float:
    """Largest gap between two independent empirical CDFs of `runs` draws from
    one law that occurs with probability at most FALSE_FAILURE: each CDF is
    within e of the law except with probability 2 e^{-2 R e^2} (DKW-Massart)."""
    return 2 * math.sqrt(math.log(4 / FALSE_FAILURE) / (2 * runs))


def parse_map(text: str) -> Image:
    values = text.split(",") if "," in text else list(text)
    return tuple(int(v) - 1 for v in values)


def explicit_terms(doc: dict) -> list[tuple[Image, Fraction]]:
    return [(parse_map(t["map"]), Fraction(t["weight"])) for t in doc["functions"]]


def block_law(doc: dict) -> list[tuple[tuple[int, ...], Fraction]]:
    l = len(doc["partition"])
    if doc["block_perms"] == "uniform":
        return [(p, Fraction(1, math.factorial(l))) for p in permutations(range(l))]
    return [(tuple(v - 1 for v in t["perm"]), Fraction(t["weight"])) for t in doc["block_perms"]]


def block_induced(doc: dict):
    """The matrix a block coupling document resums to, from its block law
    marginals and within-distributions (no support expansion)."""
    blocks = [[v - 1 for v in b] for b in doc["partition"]]
    l = len(blocks)
    law = block_law(doc)
    lam = [[sum((w for p, w in law if p[r] == s), Fraction(0)) for s in range(l)] for r in range(l)]
    n = doc["n"]
    block_of = {i: r for r, b in enumerate(blocks) for i in b}
    out = [[Fraction(0)] * n for _ in range(n)]
    for i, entry in enumerate(doc["within"]):
        for s, dist in entry.items():
            for j, w in dist.items():
                out[i][int(j) - 1] += lam[block_of[i]][int(s) - 1] * Fraction(w)
    return out, lam

