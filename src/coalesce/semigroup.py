"""Composition closure of a set of maps, and what it says about coalescence.

The coalescence number of a grand coupling depends only on which functions
carry positive weight: it is the least image size over all finite
compositions of support functions. Each question here is answered on the
smallest object that decides it:

* coalescing_pairs walks the graph of state pairs (at most n(n-1)/2 nodes).
  When every pair can be merged, merging the pairs of an image one at a
  time shrinks it to a point; the same holds block by block for a
  block-permuting support, whose composites keep pairs inside blocks. So
  the pairs alone decide whether k = 1 and, for block-permuting supports,
  whether k equals the block count.
* coalescence_number walks image sets (at most 2^n), since
  image(g o h) = g(image h).
* close walks maps (at most n^n) and is the only code here that does; it
  keeps every element with a parent pointer to rebuild shortest words, and
  limiting_partitions reads the kernels of its least-image elements.

Both walks check their cap at the end of each breadth-first layer.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .errors import ClosureTooLarge
from .mapfun import MapFunction, Partition, Support

DEFAULT_CLOSURE_CAP = 250_000

# unordered state pairs, 0-based
PairSet = frozenset[frozenset[int]]


@dataclass(eq=False)
class SemigroupClosure:
    """All finite compositions of a generating set, with shortest words.

    elements are listed in breadth-first order, so generators come first and
    word lengths never decrease along the list. Element p was first reached
    as generators[_last[p]] after elements[_parent[p]] (-1 for a generator),
    which is enough to rebuild a shortest word for every element.
    """

    n: int
    generators: tuple[MapFunction, ...]
    elements: tuple[MapFunction, ...]
    _last: tuple[int, ...] = field(repr=False)
    _parent: tuple[int, ...] = field(repr=False)
    _position: dict[MapFunction, int] = field(init=False, repr=False)

    def __post_init__(self):
        self._position = {f: p for p, f in enumerate(self.elements)}

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, f: MapFunction) -> bool:
        return f in self._position

    def _word(self, p: int) -> tuple[MapFunction, ...]:
        word = []
        while p >= 0:
            word.append(self.generators[self._last[p]])
            p = self._parent[p]
        return tuple(word)

    def word_for(self, f: MapFunction) -> tuple[MapFunction, ...]:
        """A shortest sequence of generators composing to f (leftmost last applied)."""
        p = self._position.get(f)
        if p is None:
            raise KeyError(f"{f.to_notation()} is not in the closure")
        return self._word(p)

    @property
    def max_word_length(self) -> int:
        # breadth-first order: the last element has a longest shortest word
        return len(self._word(len(self.elements) - 1))

    def min_image_size(self) -> int:
        return min(f.image_size() for f in self.elements)

    def min_image_elements(self) -> tuple[MapFunction, ...]:
        k = self.min_image_size()
        return tuple(f for f in self.elements if f.image_size() == k)


def _generators(support) -> tuple[MapFunction, ...]:
    if isinstance(support, Support):
        gens = support.sorted_functions()
    else:
        gens = tuple(sorted(set(support)))
    if not gens:
        raise ValueError("cannot close an empty set of functions")
    return gens


def close(support, max_size: int = DEFAULT_CLOSURE_CAP) -> SemigroupClosure:
    """Breadth-first closure under composition, recording shortest words.

    Element p is generator last[p] applied after element parent[p] (-1 for
    a generator itself). Raises ClosureTooLarge at the end of the first
    breadth-first layer after which more than max_size elements are known.
    """
    gens = _generators(support)
    images = [g.image for g in gens]
    order = list(images)
    seen = set(order)
    last = list(range(len(images)))
    parent = [-1] * len(images)
    start = 0
    while start < len(order):
        end = len(order)
        for p in range(start, end):
            t = order[p]
            for i, g in enumerate(images):
                c = tuple([g[v] for v in t])  # generator i after element p
                if c not in seen:
                    seen.add(c)
                    order.append(c)
                    last.append(i)
                    parent.append(p)
        if len(seen) > max_size:
            raise ClosureTooLarge(
                f"closure exceeds {max_size} elements; raise the cap to continue"
            )
        start = end
    elements = tuple(MapFunction(t) for t in order)
    return SemigroupClosure(gens[0].n, gens, elements, tuple(last), tuple(parent))


def coalescence_number(support, max_closure: int = DEFAULT_CLOSURE_CAP) -> int:
    """k(S): the least image size over all compositions of members of S.

    Walks the image sets of composites breadth first from the full state
    set, since image(g o h) = g(image h), and returns 1 at the first
    singleton. max_closure caps the number of distinct image sets reached;
    ClosureTooLarge is raised at the end of the first layer past it.

    Depends only on the support set, and is antitone in it: enlarging the
    support can only lower (never raise) the value.
    """
    gens = _generators(support)
    images = [g.image for g in gens]
    best = gens[0].n
    seen: set[frozenset[int]] = set()
    frontier = [frozenset(range(best))]
    while frontier:
        layer = []
        for s in frontier:
            for g in images:
                c = frozenset([g[v] for v in s])
                if c not in seen:
                    if len(c) == 1:
                        return 1
                    seen.add(c)
                    layer.append(c)
                    best = min(best, len(c))
        if len(seen) > max_closure:
            raise ClosureTooLarge(
                f"more than {max_closure} image sets; raise the cap to continue"
            )
        frontier = layer
    return best


def coalescing_pairs(support) -> PairSet:
    """The pairs of distinct states that some composition merges.

    A pair {x, y} belongs to the result exactly when some finite composition
    f of support functions has f(x) = f(y): either a single function merges
    it outright, or one sends it to a pair already known to coalesce.
    Computed as a backward search on the pair graph from the pairs merged
    outright, so each (pair, function) edge is looked at once.
    """
    gens = _generators(support)
    images = [g.image for g in gens]
    merged: list[tuple[int, int]] = []
    sources: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for p in combinations(range(gens[0].n), 2):
        x, y = p
        for g in images:
            a, b = g[x], g[y]
            if a == b:
                merged.append(p)
                break
            sources.setdefault((a, b) if a < b else (b, a), []).append(p)
    found = set(merged)
    for p in merged:  # grows while it is read
        for q in sources.get(p, ()):
            if q not in found:
                found.add(q)
                merged.append(q)
    return frozenset(frozenset(p) for p in found)


def limiting_partitions(support, max_closure: int = DEFAULT_CLOSURE_CAP) -> frozenset[Partition]:
    """Kernels of the minimum-image-size elements of the closure.

    These are exactly the partitions a trajectory of the coupling can end up
    gluing states by: each is reachable with positive probability, and once
    the image size bottoms out the kernel can only be one of these. Reads
    the map closure from close, so max_closure counts maps here.
    """
    closure = close(support, max_size=max_closure)
    return frozenset(f.kernel() for f in closure.min_image_elements())
