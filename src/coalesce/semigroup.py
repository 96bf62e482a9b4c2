"""What a coupling's support says about coalescence, read from its structure.

The coalescence number of a grand coupling is the least image size over
all finite compositions of support functions; it depends only on which
functions carry weight. Every reader takes the support through a coupling's
image_law(states) (a plain set of maps is read as point masses). Within a
component the states move independently, so one target per state from one
component is a support map on those states: a realized move.

* _merge_steps searches the n(n-1)/2 state pairs backward from those one
  move merges, recording for each pair that some composition merges the
  pair its next move sends it to. coalescing_pairs is its key set.
* coalescence_number_and_pairs merges greedily (Eppstein 1990): while some
  pair of the image I merges, apply its recorded moves to I, each realized
  from image_law(I). A composite of smaller rank would merge a pair of the
  final I, so |I| is the least rank, and the moves compose to e0, a
  least-rank map.
* close is the orbit of a partition under pullback by the support maps.
  limiting_partitions is the orbit of ker(e0): for a least-rank e,
  ker(e) = ker(e0 o e), and ker(e0 o g) = g^-1 ker(e0).

The pair cap is checked before the pair search; the pullback cap is
checked on the component count before the orbit reads anything, then
charges each component's pullbacks before it forms them.
"""
from __future__ import annotations

from itertools import combinations, product
from math import prod

from .coupling import GrandCoupling
from .errors import ClosureTooLarge
from .mapfun import MapFunction, Partition, Support

DEFAULT_CLOSURE_CAP = 250_000

# unordered state pairs, 0-based
PairSet = frozenset[frozenset[int]]


def _law(support):
    """(n, image_law, component count) of a coupling, or of a set of maps
    read as point masses in sorted order."""
    if isinstance(support, GrandCoupling):
        return support.n, support.image_law, support.component_count()
    maps = support.functions if isinstance(support, Support) else support
    masses = [[((v, 1),) for v in t] for t in sorted({g.image for g in maps})]
    if not masses:
        raise ValueError("cannot read an empty set of functions")

    def law(states):
        return ((1, list(map(m.__getitem__, states))) for m in masses)

    return len(masses[0]), law, len(masses)


def _too_large(cap: int, what: str) -> ClosureTooLarge:
    return ClosureTooLarge(f"more than {cap} {what}; raise the cap to continue")


def _pair(a: int, b: int) -> tuple[int, int] | None:
    """The unordered pair {a, b}, or None when a move merges it."""
    return None if a == b else (a, b) if a < b else (b, a)


def _merge_steps(n: int, law) -> dict:
    """Maps each pair (x, y), x < y, that some composition merges to the
    pair the first move of a shortest merging word sends it to (None when
    that move merges it outright).

    A backward breadth-first search on the pair graph from the pairs merged
    outright, so each (pair, move) edge is looked at once. law is an
    image_law; reading a pair's components stops at the first that merges
    it.
    """
    step: dict[tuple[int, int], tuple[int, int] | None] = {}
    sources: dict[tuple[int, int], dict[tuple[int, int], None]] = {}  # q -> {p}
    for p in combinations(range(n), 2):
        moves = (_pair(a, b) for _, (dx, dy) in law(p) for a, _ in dx for b, _ in dy)
        for q in moves:
            if q is None:
                step[p] = None
                break
            sources.setdefault(q, {})[p] = None
    found = list(step)
    for q in found:  # grows while it is read
        for p in sources.get(q, ()):
            if p not in step:
                step[p] = q
                found.append(p)
    return step


def _move(law, image: list[int], pair: tuple[int, int], to) -> dict[int, int]:
    """A realized move on image that sends pair to the pair to (merges it
    when to is None): one target per state from the first component of
    law(image) that allows it."""
    i, j = image.index(pair[0]), image.index(pair[1])
    for _, dists in law(image):
        for a, _ in dists[i]:
            for b, _ in dists[j]:
                if _pair(a, b) == to:
                    targets = [dist[0][0] for dist in dists]
                    targets[i], targets[j] = a, b
                    return dict(zip(image, targets))
    raise AssertionError(f"no component moves {pair} to {to}")


def coalescence_number_and_pairs(
    support, max_closure: int = DEFAULT_CLOSURE_CAP
) -> tuple[int, PairSet, MapFunction]:
    """k(S), coalescing_pairs(S) and a least-rank composite e0, read from
    one pair search.

    Greedy pair merging: start from the full state set I and, while some
    pair of I has a merging word, apply that word to I, one realized move
    per step. e0 is the composite of the moves applied (the identity when
    none is). max_closure caps the n(n-1)/2 state pairs of the search,
    checked before it starts.
    """
    n, law, _ = _law(support)
    if n * (n - 1) // 2 > max_closure:
        raise _too_large(max_closure, "state pairs")
    step = _merge_steps(n, law)
    e0 = tuple(range(n))
    while True:
        image = sorted(set(e0))
        pair = next((p for p in combinations(image, 2) if p in step), None)
        if pair is None:
            return len(image), frozenset(frozenset(p) for p in step), MapFunction(e0)
        while pair is not None:
            g = _move(law, image, pair, step[pair])
            e0 = tuple([g[v] for v in e0])
            image = sorted(set(e0))
            pair = step[pair]


def coalescence_number(support, max_closure: int = DEFAULT_CLOSURE_CAP) -> int:
    """k(S): the least image size over all compositions of members of S.

    Found by greedy pair merging (coalescence_number_and_pairs), with
    max_closure capping the state pairs. Depends only on the support set,
    and is antitone in it: enlarging the support can only lower (never
    raise) the value.
    """
    return coalescence_number_and_pairs(support, max_closure)[0]


def coalescing_pairs(support) -> PairSet:
    """The pairs of distinct states that some composition merges.

    A pair {x, y} belongs to the result exactly when some finite composition
    f of support functions has f(x) = f(y): either a single function merges
    it outright, or one sends it to a pair already known to coalesce.
    support is a set of maps or a grand coupling, which is never expanded.
    """
    n, law, _ = _law(support)
    return frozenset(frozenset(p) for p in _merge_steps(n, law))


def _canonical(labels) -> tuple[int, ...]:
    """labels renumbered by first appearance: one tuple per partition."""
    number = {v: c for c, v in enumerate(dict.fromkeys(labels))}
    return tuple(map(number.__getitem__, labels))


def close(support, seed: Partition, max_size: int = DEFAULT_CLOSURE_CAP) -> tuple[Partition, ...]:
    """The orbit of seed under pullback by the support maps: seed first,
    then discovery order. The pullback of kappa by g puts x and y together
    when g(x) and g(y) lie in one block of kappa.

    Each partition is read once, through image_law of all states; a
    component gives the kernels of the product of its states' label sets.
    max_size caps the pullbacks formed, each component's charged before it
    forms them, so ClosureTooLarge is raised exactly when more than
    max_size would be formed. Each component forms at least one pullback of
    the seed, so a component count past max_size raises before any
    component is read.
    """
    n, law, components = _law(support)
    if components > max_size:
        raise _too_large(max_size, "pullbacks in the orbit")
    orbit = [seed.block_of()]  # block labels, numbered by first appearance
    seen = set(orbit)
    count = 0
    for kappa in orbit:  # grows while it is read
        for _, dists in law(range(n)):
            choices = [{kappa[t] for t, _ in dist} for dist in dists]
            count += prod(map(len, choices))
            if count > max_size:
                raise _too_large(max_size, "pullbacks in the orbit")
            for labels in product(*choices):
                labels = _canonical(labels)
                if labels not in seen:
                    seen.add(labels)
                    orbit.append(labels)
    return tuple(MapFunction(kappa).kernel() for kappa in orbit)


def limiting_partitions(support, max_closure: int = DEFAULT_CLOSURE_CAP) -> frozenset[Partition]:
    """Kernels of the least-rank composites of the support maps.

    These are exactly the partitions a trajectory of the coupling can end up
    gluing states by: each is reachable with positive probability, and once
    the image size bottoms out the kernel can only be one of these. The
    orbit of ker(e0) under pullback (close); max_closure caps the state
    pairs of the greedy and the pullbacks of the orbit.
    """
    e0 = coalescence_number_and_pairs(support, max_closure)[2]
    return frozenset(close(support, e0.kernel(), max_closure))
