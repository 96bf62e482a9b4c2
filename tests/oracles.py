"""Independent brute-force references used only by the tests.

Nothing here imports the package. Closures are saturated as raw image
tuples, feasibility is decided by enumerating basic solutions of the exact
linear system, and instances are generated with plain random.Random. All of
it is slow and obvious on purpose, so the fast implementations have
something trustworthy to disagree with.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd

Image = tuple[int, ...]


def compose_images(f: Image, g: Image) -> Image:
    """f after g."""
    return tuple(f[v] for v in g)


def image_size(t: Image) -> int:
    return len(set(t))


def kernel_of(t: Image) -> frozenset[frozenset[int]]:
    classes: dict[int, list[int]] = {}
    for i, v in enumerate(t):
        classes.setdefault(v, []).append(i)
    return frozenset(frozenset(c) for c in classes.values())


def word_closure(images: list[Image]) -> set[Image]:
    """Every composite of one or more generators, saturated to a fixpoint."""
    n = len(images[0])
    closure: set[Image] = set(images)
    frontier = set(images)
    while frontier:
        new: set[Image] = set()
        for w in frontier:
            for g in images:
                for comp in (compose_images(g, w), compose_images(w, g)):
                    if comp not in closure:
                        closure.add(comp)
                        new.add(comp)
        frontier = new
        assert len(closure) <= n**n
    return closure


def bounded_min_image(images: list[Image], max_len: int) -> int:
    """Smallest image size over composites of at most max_len generators."""
    best = min(image_size(t) for t in images)
    seen: set[Image] = set(images)
    frontier = set(images)
    length = 1
    while frontier and length < max_len and best > 1:
        length += 1
        new: set[Image] = set()
        for w in frontier:
            for g in images:
                comp = compose_images(g, w)
                if comp not in seen:
                    seen.add(comp)
                    new.add(comp)
                    best = min(best, image_size(comp))
        frontier = new
    return best


def oracle_min_image(images: list[Image]) -> int:
    return min(image_size(t) for t in word_closure(images))


def oracle_coalescing_pairs(images: list[Image]) -> set[frozenset[int]]:
    pairs: set[frozenset[int]] = set()
    n = len(images[0])
    for w in word_closure(images):
        for i in range(n):
            for j in range(i + 1, n):
                if w[i] == w[j]:
                    pairs.add(frozenset((i, j)))
    return pairs


def oracle_limiting_kernels(images: list[Image]) -> set[frozenset[frozenset[int]]]:
    closure = word_closure(images)
    k = min(image_size(t) for t in closure)
    return {kernel_of(t) for t in closure if image_size(t) == k}


def oracle_pullback_orbit(closure: set[Image], blocks) -> set[frozenset[frozenset[int]]]:
    """The partition with the given blocks and its pullbacks by every map w
    of closure (word_closure's result): x and y share a block when w(x)
    and w(y) do."""
    label = {x: b for b, blk in enumerate(blocks) for x in blk}
    orbit = {frozenset(frozenset(b) for b in blocks)}
    for w in closure:
        orbit.add(kernel_of(tuple(label[v] for v in w)))
    return orbit


# --- exact linear algebra ---------------------------------------------------


def reduce_exact(rows, ncols: int):
    """Gauss-Jordan over Fractions on the first ncols columns, rows left in
    place: each column pivots on the first row not yet pivoted with a
    nonzero entry in it, which is scaled to 1 and cleared from every other
    row. Returns the reduced rows and the (column, row) of each pivot."""
    m = [[Fraction(v) for v in row] for row in rows]
    pivots: list[tuple[int, int]] = []
    for c in range(ncols):
        used = {r for _, r in pivots}
        piv = next((r for r in range(len(m)) if r not in used and m[r][c] != 0), None)
        if piv is None:
            continue
        inv = m[piv][c]
        m[piv] = [v / inv for v in m[piv]]
        for r in range(len(m)):
            if r != piv and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[piv])]
        pivots.append((c, piv))
    return m, pivots


def gauss_rank(rows: list[list[Fraction]]) -> int:
    return len(reduce_exact(rows, len(rows[0]) if rows else 0)[1])


def solve_exact(A: list[list[Fraction]], b: list[Fraction]):
    """The unique solution of Ax=b for full-column-rank A, else None.

    None covers both an inconsistent system and a rank-deficient one, which
    is all the vertex enumeration below needs.
    """
    cols = len(A[0])
    m, pivots = reduce_exact([A[r] + [b[r]] for r in range(len(A))], cols)
    if len(pivots) < cols:
        return None
    used = {r for _, r in pivots}
    if any(m[r][cols] != 0 for r in range(len(m)) if r not in used):
        return None
    return [m[r][cols] for _, r in pivots]


# --- exact-support feasibility by basic-solution enumeration ----------------


def _cell_system(P_rows, images: list[Image]):
    n = len(P_rows)
    cells = [(i, j) for i in range(n) for j in range(n) if P_rows[i][j] > 0]
    cell_index = {c: r for r, c in enumerate(cells)}
    cols = []
    for t in images:
        col = [Fraction(0)] * len(cells)
        for i in range(n):
            key = (i, t[i])
            if key not in cell_index:
                return None, None
            col[cell_index[key]] = Fraction(1)
        cols.append(col)
    b = [P_rows[i][j] for (i, j) in cells]
    return cols, b


def polytope_vertices(P_rows, images: list[Image]):
    """All basic nonnegative solutions of the marginal equations.

    Yields weight vectors indexed like images. Every vertex of the feasible
    polytope appears at least once.
    """
    cols, b = _cell_system(P_rows, images)
    if cols is None:
        return
    mcols = len(cols)
    A = [[cols[c][r] for c in range(mcols)] for r in range(len(b))]
    r = gauss_rank([row[:] for row in A])
    seen: set[tuple] = set()
    for basis in combinations(range(mcols), r):
        sub = [[A[row][c] for c in basis] for row in range(len(b))]
        x = solve_exact(sub, b)
        if x is None or any(v < 0 for v in x):
            continue
        full = [Fraction(0)] * mcols
        for c, v in zip(basis, x):
            full[c] = v
        key = tuple(full)
        if key not in seen:
            seen.add(key)
            yield full


def oracle_exact_feasible(P_rows, images: list[Image]) -> bool:
    """Is there a strictly positive weighting of exactly these functions?

    The feasible set is a polytope; the maximal support of any point is the
    union of the vertex supports, so exact feasibility means that union
    covers every function.
    """
    covered: set[int] = set()
    nonempty = False
    for vertex in polytope_vertices(P_rows, images):
        nonempty = True
        covered.update(c for c, v in enumerate(vertex) if v > 0)
        if len(covered) == len(images):
            return True
    return nonempty and len(covered) == len(images)


def oracle_vertex_support(P_rows, images: list[Image]) -> bool:
    """Are these functions exactly the support of a vertex of the coupling
    polytope: independent columns and a strictly positive unique solution?"""
    cols, b = _cell_system(P_rows, images)
    if cols is None:
        return False
    w = solve_exact([[col[r] for col in cols] for r in range(len(b))], b)
    return w is not None and min(w) > 0


def oracle_weakly_feasible(P_rows, images: list[Image]) -> bool:
    cols, b = _cell_system(P_rows, images)
    if cols is None:
        # functions outside the allowed set get weight zero; drop them
        keep = []
        n = len(P_rows)
        for t in images:
            if all(P_rows[i][t[i]] > 0 for i in range(n)):
                keep.append(t)
        if not keep:
            return False
        return any(True for _ in polytope_vertices(P_rows, keep))
    return any(True for _ in polytope_vertices(P_rows, images))


# --- the textbook simplex over Fractions -------------------------------------


class FractionSimplex:
    """Dense two-phase simplex with Bland's rule, every entry a Fraction.

    Takes the integer system the package's fraction-free simplex takes
    (columns of A, and b times scale) and makes the same pivot choices, so
    every basis and every reported value must agree with it exactly.
    """

    def __init__(self, columns, b, scale):
        m, nv = len(b), len(columns)
        assert all(v >= 0 for v in b)
        self.m, self.nv = m, nv
        self.T = [
            [Fraction(columns[j][r]) for j in range(nv)]
            + [Fraction(int(r == k)) for k in range(m)]
            + [Fraction(b[r], scale)]
            for r in range(m)
        ]
        self.basis = [nv + r for r in range(m)]
        self.T.append([])
        self.feasible = self._solve([0] * nv + [1] * m, range(nv + m)) == 0
        if self.feasible:
            for r in range(m):
                if self.basis[r] >= nv:
                    e = next((j for j in range(nv) if self.T[r][j] != 0), None)
                    if e is not None:
                        self._pivot(r, e)

    def _pivot(self, r, e):
        pv = self.T[r][e]
        self.T[r] = [v / pv for v in self.T[r]]
        for i, row in enumerate(self.T):
            if i != r and row[e] != 0:
                f = row[e]
                self.T[i] = [a - f * c for a, c in zip(row, self.T[r])]
        self.basis[r] = e

    def _solve(self, cost, allowed):
        m = self.m
        z = [Fraction(-c) for c in cost] + [Fraction(0)] * (len(self.T[0]) - len(cost))
        for r, bj in enumerate(self.basis):
            if bj < len(cost) and cost[bj]:
                z = [a + cost[bj] * c for a, c in zip(z, self.T[r])]
        self.T[m] = z
        while True:
            z = self.T[m]
            e = next((j for j in allowed if z[j] > 0), None)
            if e is None:
                return z[-1]
            rows = [r for r in range(m) if self.T[r][e] > 0]
            r = min(rows, key=lambda r: (self.T[r][-1] / self.T[r][e], self.basis[r]))
            self._pivot(r, e)

    def maximize_coord(self, j):
        cost = [0] * self.nv
        cost[j] = -1
        val = -self._solve(cost, range(self.nv))
        x = [Fraction(0)] * self.nv
        for r, bj in enumerate(self.basis):
            if bj < self.nv:
                x[bj] = self.T[r][-1]
        return val, x


# --- Birkhoff peeling and block masses over Fractions ----------------------


def oracle_peeling(P_rows, matching):
    """Greedy Birkhoff peeling with a Fraction residual, as (image, weight)
    pairs in peel order. matching(adj) picks each step's permutation from
    the rows' positive columns; the caller passes the package's rule, so
    the terms must agree with the package's exactly."""
    n = len(P_rows)
    residual = [list(row) for row in P_rows]
    terms = []
    while any(v > 0 for row in residual for v in row):
        match = matching([[j for j in range(n) if residual[i][j] > 0] for i in range(n)])
        theta = min(residual[i][match[i]] for i in range(n))
        for i in range(n):
            residual[i][match[i]] -= theta
        terms.append((tuple(match), theta))
    return terms


def oracle_lumpability(P_rows, blocks):
    """From the definition, with Fraction sums: the block-level rows when
    every state of each block sends the same mass into every block, else
    (block, (least state, state), target block, (its mass, the state's
    mass)) for the first disagreement, states and then target blocks in
    increasing order. blocks lists sorted blocks, by least state."""
    def mass(i, s):
        return sum((P_rows[i][j] for j in blocks[s]), Fraction(0))

    rows = []
    for r, blk in enumerate(blocks):
        for i in blk[1:]:
            for s in range(len(blocks)):
                if mass(i, s) != mass(blk[0], s):
                    return (r, (blk[0], i), s, (mass(blk[0], s), mass(i, s)))
        rows.append([mass(blk[0], s) for s in range(len(blocks))])
    return rows


# --- random instances -------------------------------------------------------


def strongly_connected(P_rows) -> bool:
    n = len(P_rows)

    def reach(start, rows):
        seen = {start}
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if rows[i][j] > 0 and j not in seen:
                    seen.add(j)
                    stack.append(j)
        return seen

    transpose = [[P_rows[j][i] for j in range(n)] for i in range(n)]
    return len(reach(0, P_rows)) == n and len(reach(0, transpose)) == n


def random_stochastic(rng: random.Random, n: int, irreducible: bool = True):
    """Rows of random positive fractions on random supports, summing to one."""
    while True:
        rows = []
        for _ in range(n):
            size = rng.randint(1, n)
            sup = rng.sample(range(n), size)
            raw = [rng.randint(1, 6) for _ in sup]
            total = sum(raw)
            row = [Fraction(0)] * n
            for j, a in zip(sup, raw):
                row[j] = Fraction(a, total)
            rows.append(row)
        if not irreducible or strongly_connected(rows):
            return rows


def random_doubly_stochastic(rng: random.Random, n: int, max_perms: int = 10):
    """A convex combination of a few random permutation matrices."""
    while True:
        count = rng.randint(2, max_perms)
        perms = [tuple(rng.sample(range(n), n)) for _ in range(count)]
        raw = [rng.randint(1, 9) for _ in perms]
        total = sum(raw)
        rows = [[Fraction(0)] * n for _ in range(n)]
        for perm, a in zip(perms, raw):
            for i in range(n):
                rows[i][perm[i]] += Fraction(a, total)
        if strongly_connected(rows):
            return rows


def random_permutation_mixture(rng: random.Random, n: int, denominators, max_perms: int = 10):
    """A convex combination of a few random permutation matrices, each
    weight a random fraction over one of the given denominators before
    normalising, so the entries' denominators differ."""
    perms = [random_permutation_image(rng, n) for _ in range(rng.randint(1, max_perms))]
    raw = [Fraction(rng.randint(1, 9), rng.choice(denominators)) for _ in perms]
    total = sum(raw)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for perm, a in zip(perms, raw):
        for i in range(n):
            rows[i][perm[i]] += a / total
    return rows


def random_lumpable(rng: random.Random, n: int):
    """A random partition of range(n) (sorted blocks, by least state) and a
    matrix lumpable over it: each state of block r sends block r's row of a
    random block-level matrix into the blocks, split at random inside each."""
    top = rng.randint(min(n, 2), n)
    labels = [rng.randrange(top) for _ in range(n)]
    blocks = [[i for i in range(n) if labels[i] == b] for b in sorted(set(labels))]
    blocks.sort()
    lumped = random_stochastic(rng, len(blocks), irreducible=False)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for r, blk in enumerate(blocks):
        for i in blk:
            for s, target in enumerate(blocks):
                raw = [rng.randint(0, 4) for _ in target]
                raw[rng.randrange(len(target))] += 1
                for j, a in zip(target, raw):
                    rows[i][j] = lumped[r][s] * a / sum(raw)
    return blocks, rows


def random_stochastic_denominators(rng: random.Random, n: int, denominators):
    """Like random_stochastic, but each row is split over one denominator
    drawn from the given ones (times the support size when it is smaller),
    so entries such as 2/7, 5/9 and 1/97 mix."""
    while True:
        rows = []
        for _ in range(n):
            sup = rng.sample(range(n), rng.randint(1, n))
            den = rng.choice(denominators)
            if den < len(sup):
                den *= len(sup)
            cuts = sorted(rng.sample(range(1, den), len(sup) - 1))
            row = [Fraction(0)] * n
            for j, a, c in zip(sup, [0] + cuts, cuts + [den]):
                row[j] = Fraction(c - a, den)
            rows.append(row)
        if strongly_connected(rows):
            return rows


def allowed_images(P_rows) -> list[Image]:
    n = len(P_rows)
    supports = [[j for j in range(n) if P_rows[i][j] > 0] for i in range(n)]
    return [tuple(c) for c in product(*supports)]


def random_subset(rng: random.Random, items, size: int):
    return rng.sample(list(items), size)


def random_permutation_image(rng: random.Random, n: int) -> Image:
    return tuple(rng.sample(range(n), n))


def all_images(n: int) -> list[Image]:
    return [tuple(t) for t in product(range(n), repeat=n)]


def all_permutation_images(n: int) -> list[Image]:
    return [tuple(p) for p in permutations(range(n))]


def random_block_permuting(rng: random.Random, n: int, count: int):
    """A random partition of range(n) (as a list of blocks) and up to count
    distinct maps that each send every block into one block, bijectively
    at the block level; inside a block the images are arbitrary, and one
    map in three is constant on every block, so k = l is common."""
    labels = [rng.randrange(n) for _ in range(n)]
    blocks = [[i for i in range(n) if labels[i] == b] for b in sorted(set(labels))]
    images = set()
    for _ in range(count):
        perm = random_permutation_image(rng, len(blocks))
        flat = rng.randrange(3) == 0
        t = [0] * n
        for r, blk in enumerate(blocks):
            target = blocks[perm[r]]
            point = rng.choice(target)
            for i in blk:
                t[i] = point if flat else rng.choice(target)
        images.add(tuple(t))
    return blocks, sorted(images)


def random_block_structure(rng: random.Random, n: int, uniform: bool):
    """The support data of a random block coupling, as plain lists.

    Returns the blocks of a random partition of range(n), ordered by their
    least state (at most three under the uniform law, so that its l!
    permutations stay few), the block permutations the law can draw (None
    for the uniform law over all of them), and for each state a dict from
    each target block its block can be sent to, to the one to three states
    it may pick there. Half the moves between two blocks send the first
    one-to-one into the second, so that pairs which never merge are common.
    """
    top = rng.randint(1, min(n, 3) if uniform else n)
    labels = [rng.randrange(top) for _ in range(n)]
    blocks = [[i for i in range(n) if labels[i] == b] for b in sorted(set(labels))]
    blocks.sort()  # by least state, the order a partition keeps
    l = len(blocks)
    perms = None
    if not uniform:
        perms = sorted({random_permutation_image(rng, l) for _ in range(rng.randint(1, 3))})
    within: list[dict[int, list[int]]] = [{} for _ in range(n)]
    for r, blk in enumerate(blocks):
        targets = range(l) if perms is None else sorted({p[r] for p in perms})
        for s in targets:
            if len(blk) <= len(blocks[s]) and rng.randrange(2):
                # one target each, distinct: this move merges no pair of blk
                for i, j in zip(blk, rng.sample(blocks[s], len(blk))):
                    within[i][s] = [j]
            else:
                for i in blk:
                    within[i][s] = sorted(rng.sample(blocks[s], rng.randint(1, min(3, len(blocks[s])))))
    return blocks, perms, within


def block_support_images(blocks, perms, within) -> list[Image]:
    """Every support map of a block coupling (random_block_structure's
    form), by brute force: each block permutation of the law, then every
    choice of one allowed target per state."""
    n = len(within)
    block_of = {i: r for r, blk in enumerate(blocks) for i in blk}
    if perms is None:
        perms = list(permutations(range(len(blocks))))
    images: set[Image] = set()
    for perm in perms:
        images.update(product(*(within[i][perm[block_of[i]]] for i in range(n))))
    return sorted(images)


def _oracle_draw(rng: random.Random, dist):
    """One outcome of dist, a list of (outcome, Fraction weight) pairs, by
    exact inverse CDF: one randrange over the common denominator, and no
    draw at all when that denominator is 1."""
    den = 1
    for _, w in dist:
        den = den * w.denominator // gcd(den, w.denominator)
    if den == 1:
        return dist[0][0]
    u = rng.randrange(den)
    acc = 0
    for outcome, w in dist:
        acc += w * den
        if u < acc:
            return outcome
    raise AssertionError("weights sum to less than 1")


def oracle_block_image(rng: random.Random, block_of, law_terms, within) -> Image:
    """One image of a block coupling, drawn state by state through a
    lookup per state: a block permutation first (law_terms is a list of
    (permutation, weight), or None for the uniform law, drawn by shuffling
    the block indices), then each state i's image from within[i], a dict
    from target block to a list of (state, weight), at the block the
    permutation sends i's block to."""
    if law_terms is None:
        perm = list(range(max(block_of) + 1))
        rng.shuffle(perm)
    else:
        perm = _oracle_draw(rng, law_terms)
    return tuple(_oracle_draw(rng, within[i][perm[r]]) for i, r in enumerate(block_of))
