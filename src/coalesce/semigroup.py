"""Composition closure of a set of maps, and what it says about coalescence.

The coalescence number of a grand coupling depends only on which functions
carry positive weight: it is the least image size over all finite
compositions of support functions. This module computes that closure, the
pairs of states that can be merged, and the partitions a coupling can lock
into.

One breadth-first walk over image tuples (_walk) serves both close, which
keeps every element with a parent pointer to rebuild shortest words, and
coalescence_number, which keeps only the least image size and stops at the
first constant composite. The closure cap is checked at the end of each
breadth-first layer.
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


def _walk(gens: tuple[MapFunction, ...], max_size: int):
    """Breadth-first walk of the composition closure of gens (distinct maps).

    Yields (image, i, parent) for each element once, in breadth-first order:
    image is the element's image tuple, i the index of the generator applied
    last and parent the position (in yield order) of the element it was
    applied to, or -1 for a generator itself. Raises ClosureTooLarge at the
    end of the first layer after which more than max_size elements are known.
    """
    images = [g.image for g in gens]
    seen = set(images)
    order = list(images)
    for i, t in enumerate(images):
        yield t, i, -1
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
                    yield c, i, p
        if len(seen) > max_size:
            raise ClosureTooLarge(
                f"closure exceeds {max_size} elements; raise the cap to continue"
            )
        start = end


def close(support, max_size: int = DEFAULT_CLOSURE_CAP) -> SemigroupClosure:
    """Breadth-first closure under composition, recording shortest words.

    Raises ClosureTooLarge when the closure would exceed max_size elements.
    """
    gens = _generators(support)
    elements, last, parent = [], [], []
    for t, i, p in _walk(gens, max_size):
        elements.append(MapFunction(t))
        last.append(i)
        parent.append(p)
    return SemigroupClosure(gens[0].n, gens, tuple(elements), tuple(last), tuple(parent))


def coalescence_number(support, max_closure: int = DEFAULT_CLOSURE_CAP) -> int:
    """k(S): the least image size over all compositions of members of S.

    Depends only on the support set, and is antitone in it: enlarging the
    support can only lower (never raise) the value.
    """
    gens = _generators(support)
    best = gens[0].n
    for t, _, _ in _walk(gens, max_closure):
        size = len(set(t))
        if size < best:
            if size == 1:
                return 1
            best = size
    return best


def coalescing_pairs(support) -> PairSet:
    """The pairs of distinct states that some composition merges.

    A pair {x, y} belongs to the result exactly when some finite composition
    f of support functions has f(x) = f(y). Computed by a fixpoint on the
    pair graph: a pair coalesces if some single function either merges it
    outright or sends it to a pair already known to coalesce.
    """
    gens = _generators(support)
    n = gens[0].n
    pairs = [frozenset(p) for p in combinations(range(n), 2)]
    coalescing: set[frozenset[int]] = set()
    for p in pairs:
        x, y = tuple(p)
        if any(g(x) == g(y) for g in gens):
            coalescing.add(p)
    changed = True
    while changed:
        changed = False
        for p in pairs:
            if p in coalescing:
                continue
            x, y = tuple(p)
            for g in gens:
                if frozenset((g(x), g(y))) in coalescing:
                    coalescing.add(p)
                    changed = True
                    break
    return frozenset(coalescing)


def limiting_partitions(support, max_closure: int = DEFAULT_CLOSURE_CAP) -> frozenset[Partition]:
    """Kernels of the minimum-image-size elements of the closure.

    These are exactly the partitions a trajectory of the coupling can end up
    gluing states by: each is reachable with positive probability, and once
    the image size bottoms out the kernel can only be one of these.
    """
    closure = close(support, max_size=max_closure)
    return frozenset(f.kernel() for f in closure.min_image_elements())
