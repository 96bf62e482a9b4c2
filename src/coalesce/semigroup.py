"""Composition closure of a set of maps, and what it says about coalescence.

The coalescence number of a grand coupling depends only on which functions
carry positive weight: it is the least image size over all finite
compositions of support functions. Two walks answer every question here:

* _merge_steps walks the graph of state pairs (at most n(n-1)/2 nodes),
  recording for each pair that some composition merges the first move of
  a shortest merging word. It reads only the one-step image pairs
  (f(x), f(y)), so a coupling hands them over from image_law((x, y))
  without expanding its support. coalescing_pairs is the set of pairs it
  records. When all pairs merge, merging an image's pairs one at a time
  shrinks it to a point (block by block for a block-permuting support), so
  the pairs alone decide whether k = 1 and, for such supports, whether k is
  the block count. coalescence_number merges greedily (Eppstein 1990): from
  the full state set I, while some pair of I has a merging word, apply it
  to I. Then |I| is the least rank, since a composite w of smaller rank
  would have |w(I)| < |I| and so merge a pair of I.
* close walks maps (at most n^n) and returns them all, generators first,
  then discovery order, over the generators not already generated;
  limiting_partitions reads the kernels of the least-image ones.

The pair cap is checked before the walk, the map cap as each map is added.
"""
from __future__ import annotations

from itertools import chain, combinations, islice
from operator import itemgetter

from .coupling import GrandCoupling
from .errors import ClosureTooLarge
from .mapfun import MapFunction, Partition, Support

DEFAULT_CLOSURE_CAP = 250_000

# unordered state pairs, 0-based
PairSet = frozenset[frozenset[int]]


def _generators(support) -> tuple[MapFunction, ...]:
    if isinstance(support, Support):
        gens = support.sorted_functions()
    else:
        gens = tuple(sorted(set(support)))
    if not gens:
        raise ValueError("cannot close an empty set of functions")
    return gens


def _too_large(cap: int, what: str) -> ClosureTooLarge:
    return ClosureTooLarge(f"more than {cap} {what}; raise the cap to continue")


def close(support, max_size: int = DEFAULT_CLOSURE_CAP) -> tuple[MapFunction, ...]:
    """All finite compositions of the support maps: the generators first,
    sorted, then discovery order, over the generators not already generated.

    The generators are walked by descending rank, since a composite has at
    most the rank of each factor: high-rank maps can generate low-rank ones,
    never the reverse. A generator that is a composite of the generators
    kept before it is skipped. Keeping g adds g and g∘u for each u already
    reached, then left-multiplies each new map by every kept generator until
    nothing new appears. No word is missed: cut at its rightmost g, it reads
    a∘(g∘u) with u a word in the earlier kept generators (Froidure & Pin
    1997). ClosureTooLarge is raised as soon as a map past max_size would be
    found, so exactly when the closure is larger.
    """
    gens = _generators(support)
    if len(gens) > max_size:
        raise _too_large(max_size, "maps in the closure")
    if gens[0].n == 1:  # itemgetter with one index returns a scalar
        return gens
    images = [g.image for g in gens]
    is_gen = set(images)
    count = len(images)  # distinct maps found so far
    reached: set[tuple[int, ...]] = set()  # composites of the kept generators
    order: list[tuple[int, ...]] = []  # reached, in discovery order
    kept: list[tuple[int, ...]] = []
    for g in sorted(images, key=lambda t: -len(set(t))):  # by descending rank
        if g in reached:
            continue
        kept.append(g)
        start = len(order)
        found = chain(
            (g,),
            (itemgetter(*u)(g) for u in islice(order, start)),  # g∘u
            # h∘t over the kept h, with order growing while it is read
            chain.from_iterable(map(itemgetter(*t), kept) for t in islice(order, start, None)),
        )
        for c in found:
            if c not in reached:
                if c not in is_gen:
                    if count == max_size:
                        raise _too_large(max_size, "maps in the closure")
                    count += 1
                reached.add(c)
                order.append(c)
    return gens + tuple(MapFunction(t) for t in order if t not in is_gen)


def _merge_steps(n: int, image_pairs) -> dict:
    """Maps each pair (x, y), x < y, that some composition merges to the
    position of the first move of a shortest merging word and the pair that
    move sends it to (None when it merges the pair outright).

    image_pairs(x, y) yields (f(x), f(y)) over the one-step maps f. For a
    list of maps it lists them in one order for every pair, so a position
    is a map's index. A backward breadth-first search on the pair graph from
    the pairs merged outright, so each (pair, move) edge is looked at once.
    """
    step: dict[tuple[int, int], tuple[int, tuple[int, int] | None]] = {}
    sources: dict[tuple[int, int], dict[tuple[int, int], int]] = {}  # q -> {p: move}
    for p in combinations(range(n), 2):
        for i, (a, b) in enumerate(image_pairs(*p)):
            if a == b:
                step[p] = (i, None)
                break
            sources.setdefault((a, b) if a < b else (b, a), {}).setdefault(p, i)
    found = list(step)
    for q in found:  # grows while it is read
        for p, i in sources.get(q, {}).items():
            if p not in step:
                step[p] = (i, q)
                found.append(p)
    return step


def _map_pairs(images: list[tuple[int, ...]]):
    """image_pairs for _merge_steps over a list of maps."""
    columns = list(zip(*images))  # columns[x] lists g(x) over the maps
    return lambda x, y: zip(columns[x], columns[y])


def coalescence_number_and_pairs(
    support, max_closure: int = DEFAULT_CLOSURE_CAP
) -> tuple[int, PairSet]:
    """k(S) and coalescing_pairs(S), read from one pair search.

    Greedy pair merging: start from the full state set I and, while some
    pair of I has a merging word, apply that word to I. max_closure caps
    the n(n-1)/2 state pairs of the search, checked before it starts.
    """
    gens = _generators(support)
    n = gens[0].n
    if n * (n - 1) // 2 > max_closure:
        raise _too_large(max_closure, "state pairs")
    images = [g.image for g in gens]
    step = _merge_steps(n, _map_pairs(images))
    image = set(range(n))
    while True:
        pair = next((p for p in combinations(sorted(image), 2) if p in step), None)
        if pair is None:
            return len(image), frozenset(frozenset(p) for p in step)
        while pair is not None:
            i, pair = step[pair]
            image = {images[i][v] for v in image}


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
    support is a set of maps or a grand coupling; a coupling hands over its
    one-step image pairs through image_law, so a block coupling is never
    expanded.
    """
    if isinstance(support, GrandCoupling):
        # within a component of image_law((x, y)), x and y move independently
        law = support.image_law
        step = _merge_steps(
            support.n,
            lambda x, y: ((a, b) for _, (dx, dy) in law((x, y)) for a, _ in dx for b, _ in dy),
        )
    else:
        gens = _generators(support)
        step = _merge_steps(gens[0].n, _map_pairs([g.image for g in gens]))
    return frozenset(frozenset(p) for p in step)


def limiting_partitions(support, max_closure: int = DEFAULT_CLOSURE_CAP) -> frozenset[Partition]:
    """Kernels of the minimum-image-size elements of the closure.

    These are exactly the partitions a trajectory of the coupling can end up
    gluing states by: each is reachable with positive probability, and once
    the image size bottoms out the kernel can only be one of these. Reads
    the map closure from close, so max_closure counts maps here.
    """
    least: list[MapFunction] = []
    k = None
    for f in close(support, max_size=max_closure):
        r = f.image_size()
        if k is None or r < k:
            k, least = r, [f]
        elif r == k:
            least.append(f)
    return frozenset(f.kernel() for f in least)
