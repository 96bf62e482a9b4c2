"""Spans around the package's public functions, installed from outside.

The tracer rebinds every module attribute of the coalesce package that
refers to a traced function (so names imported with `from .x import f` are
caught too) and patches traced methods on their classes. A wrapper records
a span only while the tracer is active, which the benchmark turns on for
the duration of one traced op. Spans live in compact arrays in memory and
are written out once, at the end of the run.

mapfun.compose and the rational helpers are called per element, millions of
times per run, so they are not wrapped; their cost shows in their callers'
self time.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

# (span name, module, attribute path)
TARGETS = [
    ("cli.main", "coalesce.cli", "main"),
    ("feasibility.SupportTester", "coalesce.feasibility", "SupportTester.__init__"),
    ("feasibility.decide", "coalesce.feasibility", "SupportTester.decide"),
    ("feasibility.witness", "coalesce.feasibility", "SupportTester.witness"),
    ("kset.k_set_report", "coalesce.kset", "k_set_report"),
    ("kset.allowed_functions", "coalesce.kset", "allowed_functions"),
    ("semigroup.coalescence_number", "coalesce.semigroup", "coalescence_number"),
    ("semigroup.coalescing_pairs", "coalesce.semigroup", "coalescing_pairs"),
    ("semigroup.limiting_partitions", "coalesce.semigroup", "limiting_partitions"),
    ("semigroup.close", "coalesce.semigroup", "close"),
    ("coupling.expand_support", "coalesce.coupling", "expand_support"),
    ("coupling.sample_image.explicit", "coalesce.coupling", "ExplicitCoupling.sample_image"),
    ("coupling.sample_image.block", "coalesce.coupling", "BlockCoupling.sample_image"),
    ("coupling.parse_coupling", "coalesce.coupling", "parse_coupling"),
    ("coupling.serialize_coupling", "coalesce.coupling", "serialize_coupling"),
    ("cftp.sample_counts", "coalesce.cftp", "sample_counts"),
    ("cftp.cftp_sample", "coalesce.cftp", "cftp_sample"),
    ("cftp.RngStream.substream", "coalesce.cftp", "RngStream.substream"),
    ("cftp.backward_record", "coalesce.cftp", "backward_record"),
    ("cftp.forward_record", "coalesce.cftp", "forward_record"),
    ("cftp.provably_never_coalesces", "coalesce.cftp", "provably_never_coalesces"),
    ("cftp.equidistribution_report", "coalesce.cftp", "equidistribution_report"),
    ("birkhoff.birkhoff_decomposition", "coalesce.birkhoff", "birkhoff_decomposition"),
    ("blocks.check_lumpability", "coalesce.blocks", "check_lumpability"),
    ("blocks.construct_block_measure", "coalesce.blocks", "construct_block_measure"),
    ("blocks.is_block_measure", "coalesce.blocks", "is_block_measure"),
    ("matrix.parse_matrix", "coalesce.matrix", "parse_matrix"),
    ("matrix.invariant_distribution", "coalesce.matrix", "invariant_distribution"),
]

# Counts taken from a traced call's return value: span -> (metric, probe).
PROBES = {
    "feasibility.decide": ("feasibility.decide.feasible", lambda result: 1 if result is True else 0),
    "semigroup.close": ("semigroup.close.elements", len),
    "coupling.expand_support": ("coupling.expand_support.functions", len),
    "cftp.cftp_sample": (
        "cftp.cftp_sample.did_not_coalesce", lambda result: 0 if isinstance(result, int) else 1
    ),
    "birkhoff.birkhoff_decomposition": ("birkhoff.terms", lambda result: len(result.terms)),
}

NAMES = [t[0] for t in TARGETS]
_ID = {name: i for i, name in enumerate(NAMES)}
_CFTP = _ID["cftp.cftp_sample"]
_SUBSTREAM = _ID["cftp.RngStream.substream"]


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.names = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for name, module, path in TARGETS:
            owner = sys.modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if outer:  # a method: patch the class
                self._rebind(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "coalesce" or mod_name.startswith("coalesce."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _rebind(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        name_id = _ID[name]
        metric, probe = PROBES.get(name, (None, None))
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.names)
            self.names.append(name_id)
            self.parents.append(stack[-1] if stack else -1)
            self.ops.append(self.op)
            self.ends.append(0.0)
            stack.append(idx)
            self.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = clock()
                stack.pop()
            if probe is not None:
                self.counts[metric] = self.counts.get(metric, 0) + probe(result)
            return result

        return wrapper

    # -- analysis ---------------------------------------------------------

    def mark(self) -> int:
        """Start a new execution: returns the index of its first span."""
        self.counts = {}
        return len(self.names)

    def stats_since(self, first: int) -> dict[str, float]:
        """Per-layer stats of the spans and counts recorded since mark()."""
        last = len(self.names)
        child = [0.0] * (last - first)
        for s in range(first, last):
            p = self.parents[s]
            if p >= first:
                child[p - first] += self.ends[s] - self.starts[s]
        out: dict[str, float] = dict(self.counts)
        for s in range(first, last):
            name = NAMES[self.names[s]]
            dur = self.ends[s] - self.starts[s]
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            out[name + ".busy_s"] = out.get(name + ".busy_s", 0.0) + dur
            out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + dur - child[s - first]
            if self.names[s] == _SUBSTREAM and self._under_cftp(s):
                out["cftp.draws_in_sample"] = out.get("cftp.draws_in_sample", 0) + 1
                out["cftp.substream_in_sample_s"] = out.get("cftp.substream_in_sample_s", 0.0) + dur
        return out

    def drop_since(self, first: int) -> None:
        """Forget the spans from index `first` on (their stats are taken)."""
        for arr in (self.names, self.parents, self.ops, self.starts, self.ends):
            del arr[first:]

    def _under_cftp(self, s: int) -> bool:
        p = self.parents[s]
        while p >= 0:
            if self.names[p] == _CFTP:
                return True
            p = self.parents[p]
        return False

    def write(self, path) -> int:
        """Write every span as tab-separated name, start, end, parent, op."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for s in range(len(self.names)):
                fh.write(
                    f"{s}\t{NAMES[self.names[s]]}\t{self.starts[s]!r}\t{self.ends[s]!r}"
                    f"\t{self.parents[s]}\t{self.ops[s]}\n"
                )
        return len(self.names)
