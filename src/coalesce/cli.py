"""Command-line front end.

Each subcommand takes only the options its handler reads. An argv that
argparse rejects exits 2 with a usage message and no manifest. Every other
invocation writes a one-line JSON run manifest to stderr: the argv, sha256
digests of the input files it read, the seed in effect (null where nothing
draws), the caps (null for a budget the command does not take), the RNG
layout the seed is read through (cftp.RNG_LAYOUT), the package version, and
wall-clock time. Each command handler returns its exit code and its output
(a JSON document, or lines of text, tsv or dot) in a --format the command
writes (checked in main), and main alone writes that output to stdout.

main(argv) may be called any number of times in one process. The parser is
built on the first call and reused, since parsing leaves it unchanged; the
handler (the function of this module that the parser names, looked up on
each call), the seed drawn when --seed is not given, and the manifest are
all per call.

Exit codes: 0 success, 1 a check or reproduction failed, 2 bad input,
3 a configured budget was exceeded, 4 an internal error (a program fault,
not bad input; stderr gets its traceback, then the manifest).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import secrets
import sys
import time
import traceback
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from . import __version__
from .birkhoff import birkhoff_decomposition
from .blocks import construct_block_measure, is_block_measure
from .cftp import (
    DEFAULT_T_MAX,
    FALSE_FAIL_RATE,
    RNG_LAYOUT,
    RngStream,
    equidistribution_report,
    equidistribution_tolerance,
    sample_counts,
    total_variation,
)
from .coupling import (
    DEFAULT_SUPPORT_CAP,
    BlockCoupling,
    doeblin_coupling,
    is_consistent,
    parse_coupling,
    resum_mismatches,
    serialize_coupling,
)
from .diagram import emit_trajectory_diagram
from .errors import (
    BlockConditionsFail,
    BudgetExceeded,
    ClosureTooLarge,
    CoalesceError,
    InvalidOption,
    NotationError,
    NotIrreducible,
    NotText,
    SupportTooLarge,
)
from .feasibility import feasible_weights, is_weakly_feasible
from .kset import DEFAULT_SUBSET_BUDGET, k_set_report
from .mapfun import MapFunction, Partition, Support
from .matrix import (
    StochasticMatrix,
    invariant_distribution,
    is_doubly_stochastic,
    is_irreducible,
    parse_matrix,
    period,
)
from .rational import format_rational
from .reference import run_all
from .semigroup import DEFAULT_CLOSURE_CAP, close, coalescence_number_and_pairs

DEFAULT_DIAGRAM_STEPS = 30


class _Run:
    """What the manifest needs to know about one invocation."""

    def __init__(self):
        self.inputs = []

    def read_file(self, path: str) -> str:
        data = Path(path).read_bytes()
        self.inputs.append(
            {"path": path, "sha256": hashlib.sha256(data).hexdigest()}
        )
        try:
            return data.decode()
        except UnicodeDecodeError as exc:
            raise NotText(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _load_matrix(run: _Run, path: str) -> StochasticMatrix:
    return parse_matrix(run.read_file(path))


def _load_irreducible(run: _Run, path: str) -> StochasticMatrix:
    P = _load_matrix(run, path)
    if not is_irreducible(P):
        raise NotIrreducible("matrix is not irreducible")
    return P


def _load_coupling(run: _Run, path: str):
    return parse_coupling(run.read_file(path))


def _parse_support_arg(run: _Run, value: str) -> Support:
    """A support given as a file of function notations, or inline.

    Text that cannot be probed as a path, such as one longer than a file
    name can be, is inline: os.path.isfile is False when the probe fails."""
    text = run.read_file(value) if os.path.isfile(value) else value
    tokens = text.split()
    if not tokens:
        raise NotationError("empty support")
    return Support.of(MapFunction.from_notation(tok) for tok in tokens)


def _require_format(args) -> None:
    if args.format not in args.formats:
        raise InvalidOption(
            f"format {args.format!r} not supported here; use one of {', '.join(args.formats)}"
        )


def _float6(x) -> str:
    return f"{float(x):.6f}"


def _exact(q: Fraction) -> str:
    """q as "p/q", or "p" when whole, like str(q); written through Decimal,
    since str() of an int fails past 4300 digits (a --tolerance of 1e-5000
    has 5001)."""
    numerator = str(Decimal(q.numerator))
    return numerator if q.denominator == 1 else f"{numerator}/{Decimal(q.denominator)}"


def _pairs_text(pairs) -> str:
    parts = sorted(tuple(sorted(v + 1 for v in p)) for p in pairs)
    return " ".join("{" + ",".join(map(str, p)) + "}" for p in parts)


def _law_matrix(law) -> StochasticMatrix:
    """The block-level matrix a block-permutation law carries: entry (r, s)
    is the chance that block r is sent to block s."""
    rows = [[Fraction(0)] * law.l for _ in range(law.l)]
    for r, row in enumerate(rows):
        for w, (s,) in law.image_law((r,)):
            row[s] += w
    return StochasticMatrix(tuple(map(tuple, rows)))


def _coupling_summary(mu) -> str:
    if isinstance(mu, BlockCoupling):
        return f"block coupling over {mu.partition.format_onebased()}"
    return f"{mu.support_size()} weighted functions"


def _kset_payload(report) -> dict:
    return {
        "n": report.n,
        "values": sorted(report.values),
        "exact": report.exact,
        "members": [
            {"k": m.k, "how": m.how, "coupling": json.loads(serialize_coupling(m.coupling))}
            for m in report.members
        ],
        "exclusions": [
            {"k": e.k, "reason": e.reason, "detail": e.detail}
            for e in report.exclusions
        ],
        "stats": {
            "subsets_enumerated": report.subsets_enumerated,
            "lp_decided": report.lp_decided,
            "cover_skipped": report.cover_skipped,
            "pruned": report.pruned,
        },
        "notes": list(report.notes),
    }


def _kset_lines(report) -> list[str]:
    values = " ".join(map(str, sorted(report.values)))
    lines = [
        f"coalescence numbers: {values} ({'exact' if report.exact else 'not exhaustive'})"
    ]
    for m in report.members:
        lines.append(f"  k={m.k}: {m.how}; witness: {_coupling_summary(m.coupling)}")
    for e in report.exclusions:
        lines.append(f"  ruled out k={e.k}: {e.reason}")
    if report.subsets_enumerated:
        lines.append(
            f"  subsets enumerated: {report.subsets_enumerated}"
            f" (lp {report.lp_decided}, cover-skipped {report.cover_skipped},"
            f" pruned {report.pruned})"
        )
    for note in report.notes:
        lines.append(f"  note: {note}")
    return lines


# --- command handlers -------------------------------------------------------


def _cmd_analyze(args, run: _Run) -> tuple[int, dict | list[str]]:
    P = _load_irreducible(run, args.matrix)
    p = period(P)
    ds = is_doubly_stochastic(P)
    pi = invariant_distribution(P)
    allowed = math.prod(len(s) for s in P.row_supports)
    report = k_set_report(P, cap=args.exact_cap, max_closure=args.max_closure)
    if args.format == "json":
        return 0, {
            "n": P.n,
            "irreducible": True,
            "period": p,
            "doubly_stochastic": ds,
            "invariant_distribution": [str(v) for v in pi],
            "allowed_functions": allowed,
            "kset": _kset_payload(report),
        }
    return 0, [
        f"states: {P.n}",
        "irreducible: yes",
        f"period: {p}",
        f"doubly stochastic: {'yes' if ds else 'no'}",
        "invariant distribution: " + " ".join(format_rational(v) for v in pi),
        f"allowed functions: {allowed}",
        *_kset_lines(report),
    ]


def _cmd_coupling_check(args, run: _Run) -> tuple[int, dict | list[str]]:
    mu = _load_coupling(run, args.coupling)
    P = _load_matrix(run, args.matrix)
    mismatches = resum_mismatches(mu, P)
    if not mismatches:
        if args.format == "json":
            return 0, {"consistent": True}
        return 0, ["consistent: the coupling resums to the matrix"]
    i, j, got, want = mismatches[0]
    if args.format == "json":
        return 1, {
            "consistent": False,
            "first_mismatch": {
                "row": i + 1, "column": j + 1, "coupling": str(got), "matrix": str(want)
            },
        }
    return 1, [
        f"not consistent: entry ({i + 1},{j + 1}) resums to "
        f"{format_rational(got)}, matrix has {format_rational(want)}"
        f" ({len(mismatches)} entries differ)"
    ]


def _cmd_k_number(args, run: _Run) -> tuple[int, dict | list[str]]:
    mu = _load_coupling(run, args.coupling)
    k, pairs, e0 = coalescence_number_and_pairs(mu, max_closure=args.max_closure)
    parts = sorted(p.format_onebased() for p in close(mu, e0.kernel(), args.max_closure))
    size = mu.support_size()
    if args.format == "json":
        return 0, {
            "support_size": size,
            "coalescence_number": k,
            "coalescing_pairs": [sorted(v + 1 for v in p) for p in sorted(pairs, key=sorted)],
            "limiting_partitions": parts,
        }
    return 0, [
        f"support: {size} functions",
        f"coalescence number: {k}",
        f"coalescing pairs: {_pairs_text(pairs) or 'none'}",
        "limiting partitions:",
        *(f"  {text}" for text in parts),
    ]


def _cmd_feasible(args, run: _Run) -> tuple[int, dict | list[str]]:
    P = _load_matrix(run, args.matrix)
    support = _parse_support_arg(run, args.support)
    result = feasible_weights(P, support)
    if result:
        if args.format == "json":
            return 0, {
                "feasible": True,
                "weights": [[f.to_notation(), str(w)] for f, w in result.weights],
            }
        return 0, [
            "feasible: yes",
            *(f"  {f.to_notation()}: {format_rational(w)}" for f, w in result.weights),
        ]
    weak = is_weakly_feasible(P, support)
    if args.format == "json":
        return 1, {
            "feasible": False,
            "reason": result.reason,
            "detail": result.detail,
            "some_subset_feasible": weak,
        }
    return 1, [
        "feasible: no",
        f"reason: {result.reason}",
        f"detail: {result.detail}",
        f"some subset feasible: {'yes' if weak else 'no'}",
    ]


def _cmd_blocks(args, run: _Run) -> tuple[int, dict | list[str]]:
    P = _load_matrix(run, args.matrix)
    partition = Partition.parse(args.partition)
    try:
        mu = construct_block_measure(P, partition)
    except BlockConditionsFail as exc:
        mu, lumped, detail = None, exc.lumped, str(exc)
    else:
        lumped = _law_matrix(mu.law)
    if not lumped:
        payload = {"lumpable": False, "detail": lumped.describe()}
        lines = ["lumpable: no", f"detail: {lumped.describe()}"]
    else:
        payload = {"lumpable": True, "lumped": [[str(v) for v in r] for r in lumped.entries]}
        lines = ["lumpable: yes", "lumped matrix:", lumped.to_text().rstrip("\n")]
    verified = mu is not None and is_block_measure(mu, partition)
    if mu is not None:
        law_terms = [(MapFunction(perm).to_notation(), w) for perm, w in mu.law.terms]
        payload.update(law=[[p, str(w)] for p, w in law_terms], constructed=True,
                       block_measure=verified, coupling=json.loads(serialize_coupling(mu)))
        lines += [
            "block permutation law: "
            + ", ".join(f"{p}: {format_rational(w)}" for p, w in law_terms),
            "coupling constructed: yes",
            f"verified block measure: {'yes' if verified else 'no'}",
            "coupling:",
            serialize_coupling(mu),
        ]
    elif lumped:
        payload.update(constructed=False, detail=detail)
        lines += ["coupling constructed: no", f"detail: {detail}"]
    return 0 if verified else 1, payload if args.format == "json" else lines


def _cmd_birkhoff(args, run: _Run) -> tuple[int, dict | list[str]]:
    P = _load_matrix(run, args.matrix)
    decomp = birkhoff_decomposition(P)
    bound = (P.n - 1) ** 2 + 1
    if args.format == "json":
        return 0, {
            "terms": [[f.to_notation(), str(w)] for f, w in decomp.terms],
            "term_count": len(decomp.terms),
            "bound": bound,
        }
    return 0, [
        f"terms: {len(decomp.terms)} (bound {bound})",
        *(f"  {f.to_notation()}: {format_rational(w)}" for f, w in decomp.terms),
    ]


def _cmd_kset(args, run: _Run) -> tuple[int, dict | list[str]]:
    P = _load_irreducible(run, args.matrix)
    report = k_set_report(P, cap=args.exact_cap, max_closure=args.max_closure)
    return 0, _kset_payload(report) if args.format == "json" else _kset_lines(report)


def _cmd_sample(args, run: _Run) -> tuple[int, dict | list[str]]:
    P = _load_irreducible(run, args.matrix)
    if args.coupling is not None:
        mu = _load_coupling(run, args.coupling)
        if not is_consistent(mu, P):
            raise InvalidOption("the coupling does not resum to the matrix")
    else:
        mu = doeblin_coupling(P)
    counts, failures = sample_counts(mu, RngStream(args.seed), args.n_samples, t_max=args.t_max)
    pi = invariant_distribution(P)
    tv = total_variation(counts, pi) if counts else None
    code = 1 if failures else 0
    if args.format == "json":
        return code, {
            "seed": args.seed,
            "samples": args.n_samples,
            "failures": failures,
            "counts": {str(s + 1): c for s, c in sorted(counts.items())},
            "tv_to_invariant": None if tv is None else str(tv),
        }
    if args.format == "tsv":
        lines = ["state\tcount"]
        lines += [f"{s + 1}\t{c}" for s, c in sorted(counts.items())]
        lines.append(f"# failures: {failures}")
        if tv is not None:
            lines.append(f"# tv_to_invariant: {_float6(tv)}")
        return code, lines
    total = sum(counts.values())
    lines = [f"samples: {total} (failures: {failures}, seed: {args.seed})"]
    lines += [
        f"  state {s + 1}: {c} ({_float6(Fraction(c, total))})"
        for s, c in sorted(counts.items())
    ]
    if tv is not None:
        lines.append(f"total variation to invariant law: {_float6(tv)} ({tv})")
    return code, lines


def _cmd_verify_equidist(args, run: _Run) -> tuple[int, dict | list[str]]:
    mu = _load_coupling(run, args.coupling)
    report = equidistribution_report(mu, RngStream(args.seed), args.runs, t_max=args.t_max)
    if args.tolerance is None:
        alpha, tolerance = FALSE_FAIL_RATE, equidistribution_tolerance(args.runs)
    else:
        alpha, tolerance = None, args.tolerance
    ok = report.passed(tolerance)
    code = 0 if ok else 1
    if args.format == "json":
        return code, {
            "seed": args.seed,
            "runs": report.runs,
            "backward_failures": report.backward_failures,
            "forward_failures": report.forward_failures,
            "max_cdf_gap": str(report.max_cdf_gap),
            "tolerance": _exact(tolerance),
            "alpha": None if alpha is None else float(alpha),
            "passed": ok,
        }
    tolerance_line = f"tolerance: {_float6(tolerance)} = {_exact(tolerance)}"
    if alpha is not None:
        tolerance_line += f" (false-fail rate {float(alpha)}, DKW-Massart)"
    return code, [
        f"runs: {report.runs} backward + {report.runs} forward (seed: {args.seed})",
        f"backward failures: {report.backward_failures}",
        f"forward failures: {report.forward_failures}",
        f"max CDF gap: {_float6(report.max_cdf_gap)} ({report.max_cdf_gap})",
        tolerance_line,
        f"verdict: {'pass' if ok else 'fail'}",
    ]


def _cmd_examples(args, run: _Run) -> tuple[int, dict | list[str]]:
    pairs = [item.partition("=") for item in args.override or []]
    for example_id, sep, path in pairs:
        if not sep or not path:
            raise InvalidOption(f"--override wants id=path, got {example_id + sep + path!r}")
        if [p[0] for p in pairs].count(example_id) > 1:
            raise InvalidOption(f"--override names {example_id!r} more than once")
    overrides = {example_id: _load_matrix(run, path) for example_id, _, path in pairs}
    only = None
    if args.only:
        only = [x for item in args.only for x in item.split(",") if x]
        if not only:
            raise InvalidOption("--only names no example id")
    rows = run_all(only, overrides)
    failed = [r for r in rows if not r.passed]
    code = 1 if failed else 0
    if args.format == "json":
        return code, {
            "rows": [
                {
                    "example": r.example,
                    "check": r.check,
                    "expected": r.expected,
                    "computed": r.computed,
                    "passed": r.passed,
                }
                for r in rows
            ],
            "failed": len(failed),
        }
    if args.format == "tsv":
        lines = ["example\tcheck\texpected\tcomputed\tpassed"]
        for r in rows:
            expected = r.expected.replace("\t", " ").replace("\n", "\\n")
            computed = r.computed.replace("\t", " ").replace("\n", "\\n")
            lines.append(f"{r.example}\t{r.check}\t{expected}\t{computed}\t{r.passed}")
        return code, lines
    lines = []
    for r in rows:
        mark = "ok " if r.passed else "FAIL"
        line = f"[{mark}] {r.example}: {r.check}"
        if not r.passed:
            line += f" (expected {r.expected!r}, computed {r.computed!r})"
        lines.append(line)
    lines.append(f"{len(rows) - len(failed)}/{len(rows)} checks passed")
    return code, lines


def _cmd_diagram(args, run: _Run) -> tuple[int, dict | list[str]]:
    mu = _load_coupling(run, args.coupling)
    diagram = emit_trajectory_diagram(mu, RngStream(args.seed), args.t_max, fmt=args.format)
    return 0, diagram.splitlines()


# --- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", default="text", help="output format, one of those listed below (default: text)")

    parser = argparse.ArgumentParser(
        prog="coalesce",
        description="Exact analysis of grand couplings of finite Markov chains.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def command(name, handler, formats, *options, **kwargs):
        """A subcommand run by the function this module names handler:
        --format over the formats it writes (checked in main) and the options
        it reads, each a (name, keywords) pair."""
        p = sub.add_parser(name, parents=[common], epilog=f"formats: {', '.join(formats)}", **kwargs)
        p.set_defaults(handler=globals()[handler], handler_name=handler, formats=formats)
        for option, spec in options:
            p.add_argument(option, **spec)
        return p

    def t_max(default):
        return "--t-max", {"type": int, "default": default, "help": "time horizon for sampling runs (default: %(default)s)"}

    matrix, coupling = ("matrix", {}), ("coupling", {})
    exact_cap = ("--exact-cap", {"type": int, "default": DEFAULT_SUBSET_BUDGET, "help": "max support subsets to enumerate before falling back to certificates (0: certificates only)"})
    max_closure = ("--max-closure", {"type": int, "default": DEFAULT_CLOSURE_CAP, "help": "max state pairs searched for a coalescence number, and max partition pullbacks formed for limiting partitions"})
    seed = ("--seed", {"type": int, "default": None, "help": "RNG seed (default: fresh random, recorded in the manifest)"})
    text_json = ("text", "json")

    command("analyze", "_cmd_analyze", text_json, matrix, exact_cap, max_closure, help="full report for a matrix file")
    command("coupling-check", "_cmd_coupling_check", text_json, coupling, matrix, help="does a coupling resum to a matrix")
    command("k-number", "_cmd_k_number", text_json, coupling, max_closure, help="coalescence number of a coupling file")
    command(
        "feasible", "_cmd_feasible", text_json, matrix,
        ("--support", {"required": True, "help": "file of function notations, or inline whitespace-separated notations"}),
        help="exact-support feasibility for a matrix",
    )
    command(
        "blocks", "_cmd_blocks", text_json, matrix,
        ("--partition", {"required": True, "help": 'one-based blocks, e.g. "1,2|3,4"'}),
        help="lumpability and block-structured coupling over a partition",
    )
    command("birkhoff", "_cmd_birkhoff", text_json, matrix, help="permutation mixture of a doubly stochastic matrix")
    command("kset", "_cmd_kset", text_json, matrix, exact_cap, max_closure, help="achievable coalescence numbers of a matrix")
    command(
        "sample", "_cmd_sample", ("text", "json", "tsv"), matrix,
        ("--coupling", {"default": None, "help": "coupling file (default: the independent product coupling)"}),
        ("--n-samples", {"type": int, "required": True}),
        t_max(DEFAULT_T_MAX), seed,
        help="exact invariant-law samples via coupling from the past",
    )
    command(
        "verify-equidist", "_cmd_verify_equidist", text_json, coupling,
        ("--runs", {"type": int, "required": True}),
        ("--tolerance", {
            "type": Fraction,
            "default": None,
            "help": "the max CDF gap must be below this; read exactly, as a decimal or p/q "
            f"(default: the DKW-Massart bound for --runs at false-fail rate {float(FALSE_FAIL_RATE)})",
        }),
        t_max(DEFAULT_T_MAX), seed,
        help="compare backward and forward coalescence-time laws",
    )
    # the one command that expands a support, through to_explicit
    command(
        "examples", "_cmd_examples", ("text", "json", "tsv"),
        ("--only", {"action": "append", "help": "example id(s), comma-separated or repeated"}),
        ("--override", {"action": "append", "help": "id=path: replace a bundled matrix (a negative control)"}),
        aliases=["paper-examples"],
        help="re-run the bundled worked examples against their pinned results",
    ).set_defaults(support_cap=DEFAULT_SUPPORT_CAP)
    command(
        "diagram", "_cmd_diagram", ("text", "dot"), coupling, t_max(DEFAULT_DIAGRAM_STEPS), seed,
        help="trajectory merge diagram for a coupling file",
    )
    return parser


_parser = functools.cache(build_parser)  # built on the first main call, reused after


def check_options(args) -> None:
    """Raise InvalidOption for a value out of its range or a test that cannot fail."""
    for option, least in (("n_samples", 1), ("runs", 1), ("t_max", 1), ("exact_cap", 0), ("max_closure", 1)):
        value = getattr(args, option, None)
        if value is not None and value < least:
            raise InvalidOption(
                f"--{option.replace('_', '-')} must be at least {least}, got {value}"
            )
    tolerance = getattr(args, "tolerance", None)
    if tolerance is not None and not 0 < tolerance <= 1:  # a CDF gap is at most 1
        shown = Decimal(tolerance.numerator) / tolerance.denominator  # str() fails past 4300 digits
        raise InvalidOption(f"--tolerance must be above 0 and at most 1, got {shown:.6g}")
    if "tolerance" in args and tolerance is None and equidistribution_tolerance(args.runs) >= 1:
        raise InvalidOption(
            f"--runs {args.runs} is too few without --tolerance: the default tolerance "
            f"{_float6(equidistribution_tolerance(args.runs))} is at least 1, so no run could "
            "fail; use more runs or pass --tolerance"
        )


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = _parser().parse_args(argv)

    if "seed" in args and args.seed is None:
        args.seed = secrets.randbits(32)
    run = _Run()
    started = time.perf_counter()
    try:
        _require_format(args)
        check_options(args)
        # by the name the parser was written with, so a handler rebound
        # before or after the parser was built is the one called
        code, output = globals()[args.handler_name](args, run)
        print(json.dumps(output, indent=2) if isinstance(output, dict) else "\n".join(output))
    except (BudgetExceeded, SupportTooLarge, ClosureTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 3
    except (CoalesceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        code = 4
    manifest = {
        "command": ["coalesce"] + argv,
        "inputs": run.inputs,
        "seed": getattr(args, "seed", None),
        "caps": {
            "exact_cap": getattr(args, "exact_cap", None),
            "max_closure": getattr(args, "max_closure", None),
            "t_max": getattr(args, "t_max", None),
            "support_cap": getattr(args, "support_cap", None),
        },
        "rng_layout": RNG_LAYOUT,
        "version": __version__,
        "wall_clock_seconds": round(time.perf_counter() - started, 6),
        "exit_code": code,
    }
    print(json.dumps(manifest, separators=(",", ":")), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
