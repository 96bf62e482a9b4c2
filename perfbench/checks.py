"""Per-op output checks, run outside the timed region.

check(op, exit_code, stdout) returns a list of problems; an empty list means
the op's output is correct. Expected answers come from references.py or
from values pinned by construction, never from the code path being timed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from math import factorial

import references as ref


def _kernel_text(text: str) -> frozenset[frozenset[int]]:
    return frozenset(frozenset(int(v) - 1 for v in part.split(",")) for part in text.split("|"))


def _pairs(doc_pairs) -> set[frozenset[int]]:
    return {frozenset(v - 1 for v in p) for p in doc_pairs}


def _certificates(rows):
    """k_set_certificates of the package: the one-sided members and
    exclusions the exhaustive answer must agree with."""
    from coalesce.kset import k_set_certificates
    from coalesce.matrix import StochasticMatrix

    report = k_set_certificates(StochasticMatrix.from_rows(rows))
    return {m.k for m in report.members}, {e.k for e in report.exclusions}


def check_kset(doc, expect) -> list[str]:
    rows = expect["rows"]
    n = len(rows)
    problems = []
    if doc["exact"] is not True:
        problems.append("report is not exact")
    values = doc["values"]
    if "pinned" in expect and values != expect["pinned"]:
        problems.append(f"K = {values}, pinned {expect['pinned']}")
    if sorted(m["k"] for m in doc["members"]) != values:
        problems.append("members do not match values")
    if sorted(e["k"] for e in doc["exclusions"]) != [k for k in range(1, n + 1) if k not in values]:
        problems.append("exclusions are not the complement of values")
    for m in doc["members"]:
        terms = ref.explicit_terms(m["coupling"])
        if any(w <= 0 for _, w in terms) or sum(w for _, w in terms) != 1:
            problems.append(f"k={m['k']}: witness weights are not a probability law")
        if ref.resum(terms, n) != rows:
            problems.append(f"k={m['k']}: witness does not resum to P")
        k = ref.closure_facts([f for f, _ in terms])[0]
        if k != m["k"]:
            problems.append(f"witness for k={m['k']} has coalescence number {k}")
    members, exclusions = _certificates(rows)
    if not members <= set(values):
        problems.append(f"certified members {sorted(members)} missing from {values}")
    if exclusions & set(values):
        problems.append(f"certified exclusions {sorted(exclusions)} present in {values}")
    return problems


def check_divisor(doc, expect) -> list[str]:
    n, l = expect["n"], expect["l"]
    m = n // l
    blocks = [frozenset(range(r * m, (r + 1) * m)) for r in range(l)]
    problems = []
    if doc["coalescence_number"] != l:
        problems.append(f"k = {doc['coalescence_number']}, pinned k = l = {l}")
    if doc["support_size"] != factorial(l) * m**n:
        problems.append(f"support of {doc['support_size']} functions, expected {factorial(l) * m**n}")
    within = {frozenset(p) for b in blocks for p in combinations(sorted(b), 2)}
    if _pairs(doc["coalescing_pairs"]) != within:
        problems.append("coalescing pairs are not the within-block pairs")
    if {_kernel_text(t) for t in doc["limiting_partitions"]} != {frozenset(blocks)}:
        problems.append("limiting partition is not the block partition")
    return problems


def check_support(doc, expect) -> list[str]:
    images = expect["images"]
    k, pairs, kernels = ref.closure_facts(images)
    problems = []
    if doc["support_size"] != len(images):
        problems.append("support size differs")
    if doc["coalescence_number"] != k:
        problems.append(f"k = {doc['coalescence_number']}, reference {k}")
    if _pairs(doc["coalescing_pairs"]) != pairs:
        problems.append("coalescing pairs differ from the reference")
    if {_kernel_text(t) for t in doc["limiting_partitions"]} != kernels:
        problems.append("limiting partitions differ from the reference")
    return problems


def check_birkhoff(doc, expect) -> list[str]:
    rows = expect["rows"]
    n = len(rows)
    terms = [(ref.parse_map(f), Fraction(w)) for f, w in doc["terms"]]
    problems = []
    if any(sorted(f) != list(range(n)) for f, _ in terms):
        problems.append("a term is not a permutation")
    if any(w <= 0 for _, w in terms) or sum(w for _, w in terms) != 1:
        problems.append("weights are not a probability law")
    if ref.resum(terms, n) != rows:
        problems.append("terms do not resum to the matrix")
    bound = (n - 1) ** 2 + 1
    if not (doc["term_count"] == len(terms) <= bound == doc["bound"]):
        problems.append(f"{len(terms)} terms against the bound {bound}")
    return problems


def check_blocks(doc, expect) -> list[str]:
    rows = expect["rows"]
    problems = []
    if not (doc["lumpable"] and doc["constructed"] and doc["block_measure"]):
        problems.append("not reported lumpable, constructed and a block measure")
        return problems
    coupling = doc["coupling"]
    blocks = [[v - 1 for v in b] for b in coupling["partition"]]
    if {frozenset(b) for b in blocks} != {frozenset(b) for b in expect["blocks"]}:
        problems.append("coupling partition differs from the requested one")
    lumped = [[Fraction(v) for v in r] for r in doc["lumped"]]
    for r, blk in enumerate(blocks):
        for i in blk:
            if [sum(rows[i][j] for j in b) for b in blocks] != lumped[r]:
                problems.append(f"lumped row {r + 1} does not match state {i + 1}")
    induced, lam = ref.block_induced(coupling)
    if induced != rows:
        problems.append("block coupling does not resum to P")
    if lam != lumped:
        problems.append("block law marginals differ from the lumped matrix")
    return problems


def check_sample(doc, expect) -> list[str]:
    rows, size = expect["rows"], expect["size"]
    counts = {int(s) - 1: c for s, c in doc["counts"].items()}
    problems = []
    if doc["failures"] != 0 or doc["samples"] != size or sum(counts.values()) != size:
        problems.append(f"{sum(counts.values())} samples and {doc['failures']} failures of {size}")
        return problems
    pi = ref.invariant(rows)
    tv = sum(abs(Fraction(counts.get(j, 0), size) - p) for j, p in enumerate(pi)) / 2
    bound = ref.tv_bound(size, len(rows))
    if tv > bound:
        problems.append(f"total variation {float(tv):.4f} to the invariant law exceeds {bound:.4f}")
    return problems


def check_equidist(doc, expect) -> list[str]:
    size = expect["size"]
    problems = []
    if doc["runs"] != size or doc["backward_failures"] or doc["forward_failures"]:
        problems.append("runs or failures differ")
    gap = Fraction(doc["max_cdf_gap"])
    bound = ref.cdf_gap_bound(size)
    if not doc["passed"] or gap > bound:
        problems.append(f"CDF gap {float(gap):.4f} exceeds {bound:.4f}")
    return problems


CHECKERS = {
    "kset": check_kset,
    "divisor": check_divisor,
    "support": check_support,
    "birkhoff": check_birkhoff,
    "blocks": check_blocks,
    "sample": check_sample,
    "verify-equidist": check_equidist,
}


def check(op, code: int, stdout: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    try:
        doc = json.loads(stdout)
        return CHECKERS[op.check](doc, op.expect)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
    except Exception as exc:  # the certificate cross-check runs package code
        return [f"check raised {type(exc).__name__}: {exc}"]
