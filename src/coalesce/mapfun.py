"""Total maps on a finite state set, set partitions, and supports.

States are 0-based everywhere in the library; the compact text notation is
1-based ("3434" on four states, or "3,4,3,4" once there are ten or more).

Composition follows the convention used throughout the package: the rightmost
function is applied first, so compose(f, g) sends state i to f(g(i)).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import DimensionMismatch, NotationError


@dataclass(frozen=True, order=True)
class MapFunction:
    """A total function on {0, .., n-1}, stored as its image tuple."""

    image: tuple[int, ...]

    def __post_init__(self):
        n = len(self.image)
        if n == 0:
            raise NotationError("a map function needs at least one state")
        for v in self.image:
            if not isinstance(v, int) or not 0 <= v < n:
                raise NotationError(f"image value {v!r} out of range for n={n}")

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, state: int) -> int:
        return self.image[state]

    @classmethod
    def identity(cls, n: int) -> "MapFunction":
        return cls(tuple(range(n)))

    @classmethod
    def constant(cls, n: int, target: int) -> "MapFunction":
        return cls((target,) * n)

    @classmethod
    def from_onebased(cls, values: Iterable[int]) -> "MapFunction":
        return cls(tuple(v - 1 for v in values))

    @classmethod
    def from_notation(cls, text: str) -> "MapFunction":
        """Parse "3434" (n below ten) or "3,4,3,4" (any n)."""
        s = text.strip()
        if not s:
            raise NotationError("empty function notation")
        try:
            if "," in s:
                values = [int(p) for p in s.split(",")]
            else:
                values = [int(ch) for ch in s]
        except ValueError:
            raise NotationError(f"bad function notation: {text!r}") from None
        if any(v < 1 for v in values):
            raise NotationError(f"function notation is 1-based: {text!r}")
        if any(v > len(values) for v in values):
            raise NotationError(f"value exceeds state count in {text!r}")
        return cls.from_onebased(values)

    def to_notation(self) -> str:
        """Render 1-based: digits when n <= 9, comma separated otherwise."""
        if self.n <= 9:
            return "".join(str(v + 1) for v in self.image)
        return ",".join(str(v + 1) for v in self.image)

    def image_size(self) -> int:
        """Number of distinct values taken (the rank of the 0/1 matrix)."""
        return len(set(self.image))

    def is_permutation(self) -> bool:
        return len(set(self.image)) == self.n

    def kernel(self) -> "Partition":
        """The level-set partition: i ~ j when f(i) = f(j)."""
        by_value: dict[int, list[int]] = {}
        for i, v in enumerate(self.image):
            by_value.setdefault(v, []).append(i)
        return Partition.from_blocks(by_value.values())


def compose(f: MapFunction, g: MapFunction) -> MapFunction:
    """f after g: state i goes to f(g(i)). The rightmost argument acts first."""
    if f.n != g.n:
        raise DimensionMismatch(f"compose on n={f.n} vs n={g.n}")
    gi = g.image
    fi = f.image
    return MapFunction(tuple(fi[v] for v in gi))


@dataclass(frozen=True)
class Partition:
    """A set partition of {0, .., n-1} in canonical order (blocks by minimum)."""

    blocks: tuple[frozenset[int], ...]

    def __post_init__(self):
        seen: set[int] = set()
        total = 0
        for b in self.blocks:
            if not b:
                raise NotationError("empty partition block")
            total += len(b)
            seen.update(b)
        n = total
        if seen != set(range(n)):
            raise NotationError("partition blocks must tile 0..n-1 exactly")
        mins = [min(b) for b in self.blocks]
        if mins != sorted(mins):
            raise NotationError("partition blocks must be ordered by minimum")

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> "Partition":
        norm = sorted((frozenset(b) for b in blocks), key=min)
        return cls(tuple(norm))

    @classmethod
    def from_onebased(cls, blocks: Iterable[Iterable[int]]) -> "Partition":
        return cls.from_blocks([[v - 1 for v in b] for b in blocks])

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse 1-based "1,2|3,4" notation."""
        try:
            blocks = [[int(v) for v in part.split(",")] for part in text.split("|")]
        except ValueError:
            raise NotationError(f"bad partition notation: {text!r}") from None
        states = [v for b in blocks for v in b]
        repeated = next((v for v in states if states.count(v) > 1), None)
        if repeated is not None:
            raise NotationError(f"state {repeated} appears twice in partition {text!r}")
        return cls.from_onebased(blocks)

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls.from_blocks([[i] for i in range(n)])

    @classmethod
    def single_block(cls, n: int) -> "Partition":
        return cls.from_blocks([range(n)])

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def size(self) -> int:
        return len(self.blocks)

    def block_of(self) -> tuple[int, ...]:
        """block_of()[i] is the index of the block containing state i."""
        out = [0] * self.n
        for r, b in enumerate(self.blocks):
            for i in b:
                out[i] = r
        return tuple(out)

    def format_onebased(self) -> str:
        return "|".join(",".join(str(i + 1) for i in sorted(b)) for b in self.blocks)


@dataclass(frozen=True)
class Support:
    """A non-empty set of map functions over a common state set."""

    n: int
    functions: frozenset[MapFunction]

    def __post_init__(self):
        if not self.functions:
            raise NotationError("a support must be non-empty")
        for f in self.functions:
            if f.n != self.n:
                raise DimensionMismatch(f"function on n={f.n} in support on n={self.n}")

    @classmethod
    def of(cls, functions: Iterable[MapFunction]) -> "Support":
        funcs = frozenset(functions)
        if not funcs:
            raise NotationError("a support must be non-empty")
        n = next(iter(funcs)).n
        return cls(n, funcs)

    def sorted_functions(self) -> tuple[MapFunction, ...]:
        return tuple(sorted(self.functions))

    def __len__(self) -> int:
        return len(self.functions)

    def __iter__(self):
        return iter(self.sorted_functions())

    def __contains__(self, f: MapFunction) -> bool:
        return f in self.functions
