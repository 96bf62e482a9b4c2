import argparse
import ast
import contextlib
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coalesce
from coalesce import (
    BlockCoupling,
    EquidistributionReport,
    ExplicitCoupling,
    ExplicitPermLaw,
    Partition,
    StochasticMatrix,
    construct_block_measure,
    doeblin_coupling,
    equidistribution_tolerance,
    is_doubly_stochastic,
    parse_matrix,
    permutation_coupling,
    serialize_coupling,
    to_explicit,
    uniform_divisor_coupling,
)
from coalesce.cli import _Run, build_parser, check_options, main

from conftest import EX10_TEXT, EX11_TEXT

ROTATED_TEXT = "1/2 0 1/2\n1/2 1/2 0\n0 1/2 1/2\n"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def manifest_of(err: str) -> dict:
    return json.loads(err.strip().splitlines()[-1])


@pytest.fixture
def ex10_file(tmp_path):
    p = tmp_path / "ex10.txt"
    p.write_text(EX10_TEXT)
    return str(p)


@pytest.fixture
def ex11_file(tmp_path):
    p = tmp_path / "ex11.txt"
    p.write_text(EX11_TEXT)
    return str(p)


@pytest.fixture
def quarter_file(tmp_path, quarter_coupling):
    p = tmp_path / "quarter.json"
    p.write_text(serialize_coupling(quarter_coupling))
    return str(p)


@pytest.fixture
def doeblin_file(tmp_path):
    p = tmp_path / "doeblin.json"
    p.write_text(serialize_coupling(to_explicit(doeblin_coupling(parse_matrix(EX10_TEXT)))))
    return str(p)


def test_analyze_text(ex10_file):
    code, out, err = run_cli("analyze", ex10_file)
    assert code == 0
    assert "irreducible: yes" in out
    assert "doubly stochastic: yes" in out
    assert "coalescence numbers: 1 3 (exact)" in out
    assert "subsets enumerated: 20" in out


def test_analyze_json(ex10_file):
    code, out, _ = run_cli("analyze", ex10_file, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 3
    assert doc["allowed_functions"] == 8
    assert doc["kset"]["values"] == [1, 3]
    assert doc["invariant_distribution"] == ["1/3", "1/3", "1/3"]


def test_manifest_records_run(ex10_file):
    code, _, err = run_cli("analyze", ex10_file)
    m = manifest_of(err)
    assert m["command"][1] == "analyze"
    assert m["seed"] is None  # analyze draws nothing
    assert m["rng_layout"] == 3
    assert m["exit_code"] == 0
    assert m["wall_clock_seconds"] >= 0
    with open(ex10_file, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert m["inputs"] == [{"path": ex10_file, "sha256": digest}]


def test_analyze_rejects_reducible(tmp_path):
    p = tmp_path / "red.txt"
    p.write_text("1 0\n1/2 1/2\n")
    code, _, err = run_cli("analyze", str(p))
    assert code == 2
    assert "error:" in err


def test_kset_rejects_reducible(tmp_path):
    # the exact route answered (exit 0) and the certificate route died on
    # the period (exit 2); both now stop where analyze does
    p = tmp_path / "red.txt"
    p.write_text("1/2 1/2 0\n0 1 0\n0 0 1\n")
    for argv in (("kset",), ("kset", "--exact-cap", "0"), ("analyze",)):
        code, out, err = run_cli(*argv, str(p))
        assert code == 2, argv
        assert out == ""
        assert "error: matrix is not irreducible" in err


def test_coupling_check(quarter_file, ex11_file, ex10_file, tmp_path):
    code, out, _ = run_cli("coupling-check", quarter_file, ex11_file)
    assert code == 0
    assert "consistent" in out
    # same state count, different matrix: reported as a check failure
    u4 = tmp_path / "u4.txt"
    u4.write_text("1/4 1/4 1/4 1/4\n" * 4)
    code, out, _ = run_cli("coupling-check", quarter_file, str(u4))
    assert code == 1
    assert "not consistent" in out
    assert "entries differ" in out
    # mismatched dimensions are an input error, not a finding
    code, _, err = run_cli("coupling-check", quarter_file, ex10_file)
    assert code == 2


def test_k_number(quarter_file):
    code, out, _ = run_cli("k-number", quarter_file)
    assert code == 0
    assert "coalescence number: 2" in out
    assert "{1,2} {1,4} {2,3} {3,4}" in out
    assert "1,2|3,4" in out and "1,4|2,3" in out


def _three_neighbour_coupling():
    """The 3-neighbour walk on the 12-cycle, coupled over odd | even."""
    rows = [["1/3" if (j - i) % 12 in (0, 1, 11) else "0" for j in range(12)] for i in range(12)]
    return construct_block_measure(
        StochasticMatrix.from_rows(rows), Partition.parse("1,3,5,7,9,11|2,4,6,8,10,12")
    )


def _coupling_file(tmp_path, mu):
    p = tmp_path / "coupling.json"
    p.write_text(serialize_coupling(mu))
    return str(p)


@pytest.mark.parametrize(
    "make, k, partition, support",
    [
        (lambda: uniform_divisor_coupling(12, 6), 6, "1,2|3,4|5,6|7,8|9,10|11,12", 2_949_120),
        (lambda: uniform_divisor_coupling(12, 3), 3, "1,2,3,4|5,6,7,8|9,10,11,12", 100_663_296),
        (_three_neighbour_coupling, 2, "1,3,5,7,9,11|2,4,6,8,10,12", 4_097),
    ],
    ids=["12-6", "12-3", "three-neighbour"],
)
def test_k_number_past_the_support_cap(tmp_path, make, k, partition, support):
    # supports past the 10^6 expansion cap, answered from the structure
    code, out, _ = run_cli("k-number", _coupling_file(tmp_path, make()), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["support_size"] == support
    assert doc["coalescence_number"] == k
    assert doc["limiting_partitions"] == [partition]
    blocks = [[int(v) for v in b.split(",")] for b in partition.split("|")]
    assert doc["coalescing_pairs"] == sorted([x, y] for b in blocks for x in b for y in b if x < y)


def test_k_number_pullback_budget(tmp_path, monkeypatch):
    # the (20,10) divisor coupling's orbit would read one component per
    # block permutation, 10! of them: refused on that count before any is
    # read. The orbit reads image_law(range(n)); the pair search and the
    # greedy read pairs and lists of states, so only that call fails.
    image_law = BlockCoupling.image_law

    def unread(states):
        raise AssertionError("a component on all states was read")
        yield

    def guarded(self, states):
        return unread(states) if states == range(self.n) else image_law(self, states)

    monkeypatch.setattr(BlockCoupling, "image_law", guarded)
    code, _, err = run_cli("k-number", _coupling_file(tmp_path, uniform_divisor_coupling(20, 10)))
    assert code == 3
    assert "more than 250000 pullbacks" in err


@pytest.mark.parametrize("name", ["quarter", "divisor-6-2"])
def test_k_number_runs_one_pair_search_and_expands_nothing(tmp_path, monkeypatch, quarter_coupling, name):
    from coalesce import semigroup

    calls = dict.fromkeys(("expand_support", "support", "_merge_steps", "close"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module, name_ in ((coalesce.coupling, "expand_support"), (semigroup, "_merge_steps"), (semigroup, "close")):
        original = getattr(module, name_)
        wrapper = counted(name_, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("coalesce"):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, wrapper)
    for cls in (ExplicitCoupling, BlockCoupling):
        monkeypatch.setattr(cls, "support", counted("support", cls.support))
    mu = quarter_coupling if name == "quarter" else uniform_divisor_coupling(6, 2)
    code, _, _ = run_cli("k-number", _coupling_file(tmp_path, mu))
    assert code == 0
    assert calls == {"expand_support": 0, "support": 0, "_merge_steps": 1, "close": 1}


def test_coupling_file_faults_are_named(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({
        "n": 2, "partition": [[1, 2]], "block_perms": "uniform",
        "within": [{"x": {"1": "1"}}, {"1": {"1": "1"}}],
    }))
    code, _, err = run_cli("k-number", str(p))
    assert code == 2
    assert "within entry for state 1: block key must be one of 1..1, got 'x'" in err


def test_k_number_budget(quarter_file):
    code, _, err = run_cli("k-number", quarter_file, "--max-closure", "2")
    assert code == 3
    assert "error:" in err
    assert manifest_of(err)["exit_code"] == 3


def test_feasible_inline(ex10_file):
    code, out, _ = run_cli(
        "feasible", ex10_file, "--support", "123 231", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["feasible"] is True
    assert ["123", "1/2"] in doc["weights"]


def test_feasible_rejected(ex10_file):
    code, out, _ = run_cli(
        "feasible", ex10_file, "--support", "123 231 133", "--format", "json"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["feasible"] is False
    assert doc["reason"] == "zero-forced"


def test_long_inline_support_is_read_as_text(tmp_path):
    # the 12 rotations of 12 states, inline, are longer than a file name can
    # be; probing them as a path must not make a valid input exit 2
    matrix = tmp_path / "u12.txt"
    matrix.write_text(StochasticMatrix.uniform(12).to_text())
    rotations = " ".join(",".join(str((i + r) % 12 + 1) for i in range(12)) for r in range(12))
    assert len(rotations) == 323
    support = tmp_path / "rotations.txt"
    support.write_text(rotations)
    inline = run_cli("feasible", str(matrix), "--support", rotations)
    from_file = run_cli("feasible", str(matrix), "--support", str(support))
    assert inline[:2] == from_file[:2]
    assert from_file[0] == 0


def test_blocks_verified(tmp_path):
    u4 = tmp_path / "u4.txt"
    u4.write_text("1/4 1/4 1/4 1/4\n" * 4)
    code, out, _ = run_cli("blocks", str(u4), "--partition", "1,2|3,4")
    assert code == 0
    assert "lumpable: yes" in out
    assert "verified block measure: yes" in out


def test_blocks_on_large_cycle_is_decided_on_pairs(tmp_path):
    # 4,097 support functions on 12 states: the function closure of this
    # support did not finish in 100 s; the pair test takes about a second
    p = tmp_path / "cycle12.txt"
    p.write_text(
        "".join(
            " ".join("1/3" if (j - i) % 12 in (0, 1, 11) else "0" for j in range(12)) + "\n"
            for i in range(12)
        )
    )
    t0 = time.monotonic()
    code, out, err = run_cli(
        "blocks", str(p), "--partition", "1,3,5,7,9,11|2,4,6,8,10,12"
    )
    assert code == 0, err
    assert "verified block measure: yes" in out
    assert time.monotonic() - t0 < 30


def test_blocks_constructed_but_not_block_measure(ex11_file):
    code, out, _ = run_cli("blocks", ex11_file, "--partition", "1,3|2,4")
    assert code == 1
    assert "coupling constructed: yes" in out
    assert "verified block measure: no" in out


def test_blocks_not_lumpable(ex11_file):
    code, out, _ = run_cli("blocks", ex11_file, "--partition", "1,2|3,4")
    assert code == 1
    assert "lumpable: no" in out


@pytest.mark.parametrize(
    "rows, partition, lines",
    [
        (
            EX11_TEXT,
            "1,3|2,4",
            ["lumped matrix:", "1/2 1/2", "1/2 1/2", "block permutation law: 12: 1/2, 21: 1/2"],
        ),
        (EX11_TEXT, "1,2|3,4", ["lumpable: no"]),
        ("1/2 1/4 1/4\n1 0 0\n1 0 0\n", "1|2,3", ["1/2 1/2", "1 0", "coupling constructed: no"]),
    ],
    ids=["constructed", "not-lumpable", "not-doubly-stochastic"],
)
def test_blocks_lumps_once(tmp_path, monkeypatch, rows, partition, lines):
    # one check_lumpability call per run, whichever way the run ends; on
    # success the lumped matrix printed is the one the law carries
    from coalesce import blocks

    calls = []
    lump = blocks.check_lumpability
    monkeypatch.setattr(blocks, "check_lumpability", lambda *a: calls.append(a) or lump(*a))
    p = tmp_path / "P.txt"
    p.write_text(rows)
    code, out, _ = run_cli("blocks", str(p), "--partition", partition)
    assert code == 1
    assert len(calls) == 1
    start = out.splitlines().index(lines[0])
    assert out.splitlines()[start:start + len(lines)] == lines
    code, out, _ = run_cli("blocks", str(p), "--partition", partition, "--format", "json")
    assert len(calls) == 2
    assert json.loads(out)["lumpable"] is (partition != "1,2|3,4")


def test_birkhoff(ex10_file, tmp_path):
    code, out, _ = run_cli("birkhoff", ex10_file, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc["terms"]) == [["123", "1/2"], ["231", "1/2"]]
    nds = tmp_path / "nds.txt"
    nds.write_text("1 0\n1/2 1/2\n")
    code, _, err = run_cli("birkhoff", str(nds))
    assert code == 2


def test_kset_json(ex10_file):
    code, out, _ = run_cli("kset", ex10_file, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["values"] == [1, 3]
    assert doc["exact"] is True


def test_sample_default_coupling(ex10_file):
    code, out, _ = run_cli(
        "sample", ex10_file, "--n-samples", "300", "--seed", "8", "--format", "tsv"
    )
    assert code == 0
    assert "# failures: 0" in out


def test_sample_with_never_coalescing_coupling(ex11_file, quarter_file):
    code, out, _ = run_cli(
        "sample", ex11_file, "--coupling", quarter_file,
        "--n-samples", "10", "--seed", "3", "--t-max", "64",
    )
    assert code == 1
    assert "failures: 10" in out


def test_sample_rejects_reducible_before_drawing(tmp_path, monkeypatch):
    # the sampler once drew every sample and only then failed on the
    # invariant law; the matrix is now rejected before the first draw
    p = tmp_path / "red.txt"
    p.write_text("1 0\n1/2 1/2\n")
    drawn = []
    for cls in (coalesce.ExplicitCoupling, coalesce.BlockCoupling):
        draw = cls.sample_image
        monkeypatch.setattr(
            cls, "sample_image", lambda self, rng, draw=draw: drawn.append(1) or draw(self, rng)
        )
    code, out, err = run_cli("sample", str(p), "--n-samples", "1000", "--seed", "1")
    assert code == 2
    assert drawn == []
    assert out == ""
    assert "error: matrix is not irreducible" in err


def test_sample_coupling_matrix_mismatch(ex10_file, quarter_file):
    code, _, err = run_cli(
        "sample", ex10_file, "--coupling", quarter_file, "--n-samples", "5", "--seed", "1"
    )
    assert code == 2


def test_verify_equidist(doeblin_file, quarter_file):
    code, out, _ = run_cli("verify-equidist", doeblin_file, "--runs", "200", "--seed", "2")
    assert code == 0
    assert "verdict: pass" in out
    code, out, _ = run_cli(
        "verify-equidist", quarter_file, "--runs", "20", "--seed", "2", "--t-max", "64"
    )
    assert code == 1
    assert "verdict: fail" in out


def test_non_positive_counts_rejected(ex10_file, doeblin_file):
    for option, argv in (
        ("--n-samples", ("sample", ex10_file, "--n-samples", "-5")),
        ("--n-samples", ("sample", ex10_file, "--n-samples", "0")),
        ("--t-max", ("sample", ex10_file, "--n-samples", "10", "--t-max", "0")),
        ("--runs", ("verify-equidist", doeblin_file, "--runs", "-3")),
    ):
        code, out, err = run_cli(*argv, "--seed", "1")
        assert code == 2, argv
        assert out == ""
        assert option in err.splitlines()[0]
        assert manifest_of(err)["exit_code"] == 2


def test_max_closure_below_one_rejected(ex10_file, quarter_file):
    # a cap below 1 is bad input, not an exceeded budget
    for argv in (
        ("kset", ex10_file, "--max-closure", "-1"),
        ("kset", ex10_file, "--max-closure", "0"),
        ("k-number", quarter_file, "--max-closure", "0"),
    ):
        code, out, err = run_cli(*argv)
        assert code == 2, argv
        assert out == ""
        assert "--max-closure" in err.splitlines()[0]
        assert manifest_of(err)["exit_code"] == 2
    # 1 is valid input, and a budget the 3 state pairs of ex10 exceed
    code, _, err = run_cli("kset", ex10_file, "--max-closure", "1")
    assert code == 3
    assert "state pairs" in err.splitlines()[0]


def test_non_positive_tolerance_rejected(doeblin_file):
    # no gap is below a tolerance at or under 0, so such a run could only fail
    for value in ("0", "-1/20", "-0.5", "-1e5000"):
        code, out, err = run_cli(
            "verify-equidist", doeblin_file, "--runs", "5", f"--tolerance={value}", "--seed", "1"
        )
        assert code == 2, value
        assert out == ""
        assert "--tolerance" in err.splitlines()[0]
        assert manifest_of(err)["exit_code"] == 2


def test_tolerance_above_one_rejected(doeblin_file):
    # a CDF gap is at most 1, so a tolerance above 1 passes every run; 1e309
    # overflowed float() and exited 4, an internal error; 1e5000 has more
    # digits than str() of an int allows, so the message must not use it
    for value in ("2", "1e309", "1e5000"):
        code, out, err = run_cli(
            "verify-equidist", doeblin_file, "--runs", "5", f"--tolerance={value}", "--seed", "1"
        )
        assert (code, out) == (2, ""), value
        assert "--tolerance" in err.splitlines()[0]
        assert manifest_of(err)["exit_code"] == 2
    code, _, _ = run_cli("verify-equidist", doeblin_file, "--runs", "5", "--tolerance=1", "--seed", "1")
    assert code == 0


def test_runs_too_few_for_the_default_tolerance_rejected(tmp_path):
    # at 16 runs the default bound is 1.018, above any CDF gap, so every
    # coupling would pass; at 17 it is 0.988
    assert equidistribution_tolerance(16) >= 1 > equidistribution_tolerance(17)
    p = tmp_path / "c.json"
    p.write_text(serialize_coupling(uniform_divisor_coupling(4, 1)))
    code, out, err = run_cli("verify-equidist", str(p), "--runs", "16", "--seed", "1")
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == (
        "error: --runs 16 is too few without --tolerance: the default tolerance 1.018212 "
        "is at least 1, so no run could fail; use more runs or pass --tolerance"
    )
    assert manifest_of(err)["exit_code"] == 2
    for extra in (["--runs", "17"], ["--runs", "5", "--tolerance", "1/2"]):
        code, out, _ = run_cli("verify-equidist", str(p), *extra, "--seed", "1")
        assert code in (0, 1), extra
        assert "verdict: " in out


def test_exact_cap_below_zero_rejected(ex10_file):
    code, out, err = run_cli("kset", ex10_file, "--exact-cap", "-1")
    assert code == 2
    assert out == ""
    assert "--exact-cap" in err.splitlines()[0]
    assert manifest_of(err)["exit_code"] == 2
    # zero keeps meaning "certificates only", which settle the 3-state walk
    code, out, _ = run_cli("kset", ex10_file, "--exact-cap", "0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] is True and doc["values"] == [1, 3]
    assert doc["stats"]["subsets_enumerated"] == 0


def test_bad_option_is_a_typed_error(ex10_file):
    # a bad option is a CoalesceError, not a bare ValueError, with the same
    # message and exit code as before
    args = build_parser().parse_args(["kset", ex10_file, "--exact-cap", "-1"])
    with pytest.raises(coalesce.InvalidOption) as info:
        check_options(args)
    assert isinstance(info.value, coalesce.CoalesceError)
    assert not isinstance(info.value, ValueError)
    code, out, err = run_cli("kset", ex10_file, "--exact-cap", "-1")
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == "error: --exact-cap must be at least 0, got -1"
    assert manifest_of(err)["exit_code"] == 2


# (argv, error class, message): input faults that the command handlers find
HANDLER_FAULTS = [
    (["kset", "{reducible}"], "NotIrreducible", "matrix is not irreducible"),
    (
        ["coupling-check", "{quarter}", "{ex10}"],
        "DimensionMismatch",
        "coupling is on 4 states, matrix on 3",
    ),
    (
        ["sample", "{ex10}", "--coupling", "{quarter}", "--n-samples", "5"],
        "DimensionMismatch",
        "coupling is on 4 states, matrix on 3",
    ),
    (
        ["sample", "{rotated}", "--coupling", "{doeblin}", "--n-samples", "5"],
        "InvalidOption",
        "the coupling does not resum to the matrix",
    ),
    (
        ["blocks", "{ex10}", "--partition", "1,2|3,4"],
        "DimensionMismatch",
        "partition covers 4 states, matrix has 3",
    ),
    (["examples", "--override", "ex10"], "InvalidOption", "--override wants id=path, got 'ex10'"),
    (["feasible", "{ex10}", "--support", ""], "NotationError", "empty support"),
    # the first file does not exist: the repeat is found before any is read
    (
        ["examples", "--only", "ex10", "--override", "ex10={absent}", "--override", "ex10={ex10}"],
        "InvalidOption",
        "--override names 'ex10' more than once",
    ),
]
# argv[0]-error, with the row number added to an id an earlier row has
_FAULT_IDS = [f"{a[0]}-{e}" for a, e, _ in HANDLER_FAULTS]
_FAULT_IDS = [x if _FAULT_IDS.index(x) == k else f"{x}-{k}" for k, x in enumerate(_FAULT_IDS)]


@pytest.mark.parametrize("argv, error, message", HANDLER_FAULTS, ids=_FAULT_IDS)
def test_handler_faults_are_typed_errors(
    tmp_path, ex10_file, quarter_file, doeblin_file, argv, error, message
):
    # each is a CoalesceError, not a bare ValueError, with the same message
    # and exit code as before
    reducible = tmp_path / "red.txt"
    reducible.write_text("1 0\n1/2 1/2\n")
    rotated = tmp_path / "rotated.txt"
    rotated.write_text(ROTATED_TEXT)
    files = {
        "ex10": ex10_file,
        "quarter": quarter_file,
        "doeblin": doeblin_file,
        "reducible": str(reducible),
        "rotated": str(rotated),
        "absent": str(tmp_path / "absent.txt"),
    }
    argv = [a.format(**files) for a in argv]
    args = build_parser().parse_args(argv)
    with pytest.raises(getattr(coalesce, error)) as info:
        args.handler(args, _Run())
    assert str(info.value) == message
    assert isinstance(info.value, coalesce.CoalesceError)
    assert not isinstance(info.value, ValueError)
    code, out, err = run_cli(*argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == f"error: {message}"


@pytest.mark.parametrize("fmt", ["tsv", "xml"])
def test_unsupported_format_is_bad_input(ex10_file, fmt):
    # main checks the format against the ones the command writes, so one
    # another command writes (tsv) and one none writes (xml) both exit 2
    # with the manifest
    code, out, err = run_cli("kset", ex10_file, "--format", fmt)
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == f"error: format {fmt!r} not supported here; use one of text, json"
    assert manifest_of(err)["exit_code"] == 2


# (argv, message): bad input that the library, not a handler check, finds
LIBRARY_FAULTS = [
    (
        ["examples", "--only", "bogus"],
        "unknown example id 'bogus'; know "
        "['certgap', 'dichotomy', 'divisors', 'ex10', 'ex11', 'ex7', 'exclusion']",
    ),
    (["examples", "--only", "ex7,ex7"], "example id 'ex7' is named more than once"),
    (["examples", "--override", "ex7={ex10}"], "example 'ex7' does not take a replacement matrix"),
    (
        ["examples", "--only", "ex7", "--override", "ex10={ex10}"],
        "--override for 'ex10' which did not run",
    ),
    (["analyze", "{latin1}"], "{latin1} is not UTF-8 text: invalid start byte at byte 0"),
]


@pytest.mark.parametrize(
    "argv, message",
    LIBRARY_FAULTS,
    ids=["unknown-example", "repeated-example", "override-no-matrix", "override-not-run", "not-utf8"],
)
def test_library_faults_are_typed_errors(tmp_path, ex10_file, argv, message):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"\xff 1\n")
    files = {"ex10": ex10_file, "latin1": str(latin1)}
    argv = [a.format(**files) for a in argv]
    message = message.format(**files)
    args = build_parser().parse_args(argv)
    with pytest.raises(coalesce.CoalesceError) as info:
        args.handler(args, _Run())
    assert str(info.value) == message
    assert not isinstance(info.value, ValueError)
    code, out, err = run_cli(*argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == f"error: {message}"
    assert manifest_of(err)["exit_code"] == 2


# one valid argv per subcommand, and every format that subcommand accepts
HANDLER_RUNS = [
    (["analyze", "{ex10}"], ("text", "json")),
    (["coupling-check", "{doeblin}", "{ex10}"], ("text", "json")),
    (["k-number", "{quarter}"], ("text", "json")),
    (["feasible", "{ex10}", "--support", "123 231"], ("text", "json")),
    (["blocks", "{ex11}", "--partition", "1,3|2,4"], ("text", "json")),
    (["birkhoff", "{ex10}"], ("text", "json")),
    (["kset", "{ex10}"], ("text", "json")),
    (["sample", "{ex10}", "--n-samples", "20", "--seed", "1"], ("text", "json", "tsv")),
    (["verify-equidist", "{doeblin}", "--runs", "20", "--seed", "1"], ("text", "json")),
    (["examples", "--only", "ex7"], ("text", "json", "tsv")),
    (["diagram", "{doeblin}", "--seed", "1"], ("text", "dot")),
]


@pytest.mark.parametrize(
    "argv, fmt",
    [(argv, fmt) for argv, formats in HANDLER_RUNS for fmt in formats],
    ids=[f"{argv[0]}-{fmt}" for argv, formats in HANDLER_RUNS for fmt in formats],
)
def test_handlers_return_code_and_output(
    capsys, ex10_file, ex11_file, quarter_file, doeblin_file, argv, fmt
):
    # a handler writes nothing; main alone renders what it returns
    files = {"ex10": ex10_file, "ex11": ex11_file, "quarter": quarter_file, "doeblin": doeblin_file}
    argv = [a.format(**files) for a in argv] + ["--format", fmt]
    args = build_parser().parse_args(argv)
    code, output = args.handler(args, _Run())
    assert capsys.readouterr().out == ""
    assert isinstance(code, int)
    if fmt == "json":
        assert isinstance(output, dict)
        rendered = json.dumps(output, indent=2)
    else:
        assert isinstance(output, list) and all(isinstance(line, str) for line in output)
        rendered = "\n".join(output)
    assert run_cli(*argv)[:2] == (code, rendered + "\n")


def test_internal_error_exits_4(monkeypatch, ex10_file):
    # a ValueError is a fault of the program, not bad input: exit 4, and the
    # manifest is still written
    from coalesce import cli

    def broken(args, run):
        raise ValueError("injected fault")

    monkeypatch.setattr(cli, "_cmd_birkhoff", broken)
    code, out, err = run_cli("birkhoff", ex10_file)
    assert (code, out) == (4, "")
    assert err.splitlines()[0] == "error: internal error: ValueError: injected fault"
    assert "Traceback" in err.splitlines()[1]
    assert manifest_of(err)["exit_code"] == 4


def test_kset_budget_on_large_cycle_falls_back(tmp_path):
    # 3^9 = 19,683 allowed functions: the budget message used to format
    # 2^19683 - 1 and die on the integer string conversion limit (exit 2)
    p = tmp_path / "cycle9.txt"
    p.write_text(
        "".join(
            " ".join("1/3" if (j - i) % 9 in (0, 1, 8) else "0" for j in range(9)) + "\n"
            for i in range(9)
        )
    )
    code, out, err = run_cli("kset", str(p))
    assert code == 0, err
    assert "coalescence numbers: 1 9 (not exhaustive)" in out
    assert "note: 2^19683 - 1 candidate supports exceed the budget of 1048576" in out


def test_kset_certificates_search_every_partition_of_the_ten_cycle(tmp_path):
    # the set-partition scan stopped after 20,000 of Bell(10) partitions
    # here; the lumpable-partition search ends, so the only note is the
    # subset budget's
    p = tmp_path / "cycle10.txt"
    p.write_text("".join(" ".join("1" if j == (i + 1) % 10 else "0" for j in range(10)) + "\n"
                         for i in range(10)))
    code, out, err = run_cli("kset", str(p), "--exact-cap", "0")
    assert code == 0, err
    assert [line for line in out.splitlines() if "note:" in line] == [
        "  note: 2^1 - 1 candidate supports exceed the budget of 0; use the certificate route instead"
    ]


def test_verify_equidist_tolerance_is_exact(tmp_path):
    # the verdict needs the gap strictly below the tolerance, compared
    # exactly: a tolerance equal to the gap fails, one just above it passes
    p = tmp_path / "divisor.json"
    p.write_text(serialize_coupling(uniform_divisor_coupling(4, 1)))
    argv = ("verify-equidist", str(p), "--runs", "300", "--seed", "7")
    _, out, _ = run_cli(*argv, "--format", "json")
    gap = Fraction(json.loads(out)["max_cdf_gap"])
    assert gap > 0
    code, out, _ = run_cli(*argv, "--tolerance", f"{gap.numerator}/{gap.denominator}")
    assert code == 1
    assert f"max CDF gap: {float(gap):.6f} ({gap})" in out
    assert f"tolerance: {float(gap):.6f} = {gap}\n" in out
    assert "verdict: fail" in out
    code, out, _ = run_cli(*argv, "--tolerance", str(gap + Fraction(1, 10**6)), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["max_cdf_gap"] == str(gap) and doc["tolerance"] == str(gap + Fraction(1, 10**6))
    assert doc["passed"] is True and doc["alpha"] is None
    # the tolerance is written exactly, also where a float would read 0
    code, out, _ = run_cli(*argv, "--tolerance", "1e-400", "--format", "json")
    assert code == 1
    assert json.loads(out)["tolerance"] == f"1/{10**400}"
    _, out, _ = run_cli(*argv, "--tolerance", "1e-400")
    assert f"tolerance: 0.000000 = 1/{10**400}\n" in out
    # and where str() of its denominator, past 4300 digits, would raise
    code, out, _ = run_cli(*argv, "--tolerance", "1e-5000", "--format", "json")
    assert code == 1
    assert json.loads(out)["tolerance"] == "1/1" + "0" * 5000
    code, out, _ = run_cli(*argv, "--tolerance", "1e-5000")
    assert code == 1
    assert "tolerance: 0.000000 = 1/1" + "0" * 5000 + "\n" in out
    # read as a float, 0.05 is slightly above 1/20 and a gap of 1/20 passed
    args = build_parser().parse_args(["verify-equidist", str(p), "--runs", "1", "--tolerance", "0.05"])
    report = EquidistributionReport(1, (), (), 0, 0, Fraction(1, 20))
    assert not report.passed(args.tolerance)


def test_verify_equidist_default_tolerance_follows_runs(doeblin_file):
    tolerances = []
    for runs in ("200", "800"):
        code, out, _ = run_cli(
            "verify-equidist", doeblin_file, "--runs", runs, "--seed", "3", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha"] == 0.001
        assert doc["tolerance"] == str(equidistribution_tolerance(int(runs)))
        tolerances.append(float(Fraction(doc["tolerance"])))
    # four times the runs halve the tolerance
    assert tolerances[1] == pytest.approx(tolerances[0] / 2)
    _, out, _ = run_cli("verify-equidist", doeblin_file, "--runs", "200", "--seed", "3")
    exact = equidistribution_tolerance(200)
    assert f"tolerance: 0.287994 = {exact} (false-fail rate 0.001, DKW-Massart)" in out


def test_examples_subcommand():
    code, out, _ = run_cli("examples", "--only", "ex7", "--format", "tsv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "example\tcheck\texpected\tcomputed\tpassed"
    assert all(line.endswith("True") for line in lines[1:])


def test_examples_alias():
    code, out, _ = run_cli("paper-examples", "--only", "ex7")
    assert code == 0


def test_examples_override_negative_control(tmp_path):
    rotated = tmp_path / "rot.txt"
    rotated.write_text(ROTATED_TEXT)
    code, out, _ = run_cli(
        "examples", "--only", "ex10", "--override", f"ex10={rotated}"
    )
    assert code == 1
    code, _, err = run_cli(
        "examples", "--only", "divisors", "--override", f"divisors={rotated}"
    )
    assert code == 2


@pytest.mark.parametrize("only", ["", ","], ids=["empty", "comma"])
def test_examples_only_must_name_an_example(only):
    # selecting no example is bad input, not 0/0 checks passed
    code, out, err = run_cli("examples", "--only", only)
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == "error: --only names no example id"


def test_diagram(doeblin_file):
    code, out, _ = run_cli("diagram", doeblin_file, "--seed", "6")
    assert code == 0
    assert out.startswith("time")
    code, out, _ = run_cli("diagram", doeblin_file, "--seed", "6", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")


def test_seeded_outputs_are_pinned(doeblin_file):
    # rng_layout 3 fixes these outputs; a change to how draws read the
    # generator must change RNG_LAYOUT and these pins together
    code, out, _ = run_cli(
        "verify-equidist", doeblin_file, "--runs", "1000", "--seed", "1", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {
        "seed": 1,
        "runs": 1000,
        "backward_failures": 0,
        "forward_failures": 0,
        "max_cdf_gap": "27/1000",
        "tolerance": str(equidistribution_tolerance(1000)),
        "alpha": 0.001,
        "passed": True,
    }
    code, out, _ = run_cli("diagram", doeblin_file, "--seed", "6")
    assert code == 0
    assert out == (
        "time     0   1   2   3   4\n"
        "from  1   1   1   1   1   1\n"
        "from  2   2   3   3   3   1\n"
        "from  3   3   1   1   1   1\n"
        "classes  3   2   2   2   1\n"
        "coalesced at t=4\n"
    )


def test_seeded_outputs_of_each_draw_path_are_pinned(tmp_path):
    # the draw paths the pins above miss: sample through an explicit
    # coupling, and diagrams of block couplings under the uniform law and
    # under an explicit law of two terms (each state with its own tables)
    path5 = "1/2 1/2 0 0 0\n1/2 0 1/2 0 0\n0 1/2 0 1/2 0\n0 0 1/2 0 1/2\n0 0 0 1/2 1/2\n"
    matrix, coupling = tmp_path / "path5.txt", tmp_path / "path5.json"
    matrix.write_text(path5)
    coupling.write_text(serialize_coupling(to_explicit(doeblin_coupling(parse_matrix(path5)))))
    code, out, _ = run_cli(
        "sample", str(matrix), "--coupling", str(coupling), "--n-samples", "300", "--seed", "5",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {
        "seed": 5,
        "samples": 300,
        "failures": 0,
        "counts": {"1": 67, "2": 51, "3": 62, "4": 59, "5": 61},
        "tv_to_invariant": "1/30",
    }
    uniform = tmp_path / "uniform.json"
    uniform.write_text(serialize_coupling(uniform_divisor_coupling(4, 2)))
    code, out, _ = run_cli("diagram", str(uniform), "--seed", "2", "--t-max", "5")
    assert code == 0
    assert out == (
        "time     0   1   2   3   4   5\n"
        "from  1   1   2   4   3   2   3\n"
        "from  2   2   1   4   3   2   3\n"
        "from  3   3   3   1   1   4   1\n"
        "from  4   4   4   2   2   4   1\n"
        "classes  4   4   3   3   2   2\n"
        "not coalesced by t=5\n"
    )
    F = Fraction
    within = (
        ((0, ((0, F(1, 2)), (1, F(1, 2)))), (1, ((2, F(1, 4)), (3, F(3, 4))))),
        ((0, ((0, F(2, 3)), (1, F(1, 3)))), (1, ((3, F(1)),))),
        ((0, ((0, F(1)),)), (1, ((2, F(3, 5)), (3, F(2, 5))))),
        ((0, ((0, F(1, 6)), (1, F(5, 6)))), (1, ((2, F(1, 2)), (3, F(1, 2))))),
    )
    law = ExplicitPermLaw((((0, 1), F(1, 3)), ((1, 0), F(2, 3))))
    two_terms = tmp_path / "two_terms.json"
    two_terms.write_text(
        serialize_coupling(BlockCoupling(Partition.from_blocks([[0, 1], [2, 3]]), law, within))
    )
    code, out, _ = run_cli("diagram", str(two_terms), "--seed", "4", "--t-max", "6")
    assert code == 0
    assert out == (
        "time     0   1   2   3   4   5   6\n"
        "from  1   1   4   2   4   2   2   4\n"
        "from  2   2   4   2   4   2   2   4\n"
        "from  3   3   1   4   2   4   3   1\n"
        "from  4   4   2   4   2   4   3   1\n"
        "classes  4   3   2   2   2   2   2\n"
        "not coalesced by t=6\n"
    )


def test_missing_file_and_bad_subcommand(tmp_path):
    code, _, err = run_cli("analyze", str(tmp_path / "nope.txt"))
    assert code == 2
    code, _, _ = run_cli("frobnicate")
    assert code == 2


def test_seed_autogenerated(ex10_file):
    # a drawing command given no --seed records the seed it drew, and that
    # seed replays the run
    code, out, err = run_cli("sample", ex10_file, "--n-samples", "50")
    m = manifest_of(err)
    assert isinstance(m["seed"], int)
    assert 0 <= m["seed"] < 2**32
    assert run_cli("sample", ex10_file, "--n-samples", "50", "--seed", str(m["seed"]))[:2] == (code, out)


def test_python_m_coalesce_runs_the_cli():
    src = str(Path(coalesce.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "coalesce", "--help"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage: coalesce" in proc.stdout


@pytest.mark.parametrize(
    "command, name",
    [(argv[0], argv[0]) for argv, _ in HANDLER_RUNS] + [("paper-examples", "examples")],
    ids=[argv[0] for argv, _ in HANDLER_RUNS] + ["paper-examples"],
)
def test_subcommand_help(command, name):
    # an alias prints the usage of the subcommand it names
    code, out, _ = run_cli(command, "--help")
    assert code == 0
    assert out.startswith(f"usage: coalesce {name} ")


def _subcommands() -> dict:
    """Each subcommand's parser, by name (aliases included)."""
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _option_strings(command: str) -> set[str]:
    return {o for a in _subcommands()[command]._actions for o in a.option_strings}


def _args_read(handler) -> set[str]:
    """The args.<name> attributes a handler's source reads."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(handler)))
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args"
    }


def test_each_subcommand_takes_only_the_options_its_handler_reads():
    # an option a handler never reads would parse, reach the manifest and
    # change nothing; -h is read by argparse
    subcommands = _subcommands()
    assert len(subcommands) == len(HANDLER_RUNS) + 1  # and the paper-examples alias
    for name, sub in subcommands.items():
        declared = {a.dest for a in sub._actions}
        assert declared == _args_read(sub.get_default("handler")) | {"help"}, name
    for argv, formats in HANDLER_RUNS:
        assert subcommands[argv[0]].get_default("formats") == formats, argv[0]


def test_an_option_the_command_does_not_take_is_a_usage_error(ex10_file):
    # a usage error exits before the manifest is written
    for argv, option in (
        (("birkhoff", ex10_file, "--max-closure", "5"), "--max-closure"),
        (("kset", ex10_file, "--seed", "1"), "--seed"),
    ):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, ""), argv
        assert option in err
        assert '"command"' not in err


def test_manifest_caps_record_the_budgets_in_effect(ex10_file, doeblin_file):
    # a budget the command does not take is null; one it takes reads the
    # value in effect, given or default
    def caps(*argv):
        recorded = manifest_of(run_cli(*argv)[2])["caps"]
        return (
            recorded["exact_cap"], recorded["max_closure"], recorded["t_max"], recorded["support_cap"]
        )

    assert caps("birkhoff", ex10_file) == (None, None, None, None)
    assert caps("sample", ex10_file, "--n-samples", "5") == (None, None, 1048576, None)
    assert caps("diagram", doeblin_file) == (None, None, 30, None)
    assert caps("kset", ex10_file, "--exact-cap", "7") == (7, 250_000, None, None)
    # only examples expands a support (to_explicit), under the library's cap
    assert caps("examples", "--only", "ex7") == (None, None, None, 1_000_000)


_GARBLE = "0123456789/|,. -x\n{}[]\":"


def _maybe_garbled(draw, text: str) -> str:
    """text, or text with one slice replaced by a few characters, or short
    arbitrary text."""
    how = draw(st.integers(0, 7))
    if how == 7:
        return draw(st.text(max_size=12))
    if how == 6:
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 4)))
        return text[:i] + draw(st.text(_GARBLE, max_size=4)) + text[j:]
    return text


@st.composite
def _cli_runs(draw):
    """(argv, files): one subcommand on a matrix of at most four states, a
    coupling, a partition and a support made from it, any of them garbled,
    with small sample counts and caps that may be out of range."""
    n = draw(st.integers(1, 4))
    raw = [draw(st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(any)) for _ in range(n)]
    P = StochasticMatrix.from_rows([[Fraction(v, sum(r)) for v in r] for r in raw])
    couplings = [doeblin_coupling(P), to_explicit(doeblin_coupling(P))]
    couplings += [uniform_divisor_coupling(n, l) for l in range(1, n + 1) if n % l == 0]
    if is_doubly_stochastic(P):
        couplings.append(permutation_coupling(P))
    labels = [draw(st.integers(0, n - 1)) for _ in range(n)]
    partition = "|".join(
        ",".join(str(i + 1) for i in range(n) if labels[i] == b) for b in sorted(set(labels))
    )
    maps = draw(st.lists(st.lists(st.integers(1, n), min_size=n, max_size=n), min_size=1, max_size=4))
    files = {
        "M": _maybe_garbled(draw, P.to_text()),
        "C": _maybe_garbled(draw, serialize_coupling(draw(st.sampled_from(couplings)))),
    }
    Q = _maybe_garbled(draw, partition)
    S = _maybe_garbled(draw, " ".join("".join(map(str, m)) for m in maps))
    example = draw(st.sampled_from(["ex7", "ex10", "ex11", "bogus"]))
    argv = draw(st.sampled_from([
        ["analyze", "M"],
        ["coupling-check", "C", "M"],
        ["k-number", "C"],
        ["feasible", "M", "--support", S],
        ["blocks", "M", "--partition", Q],
        ["birkhoff", "M"],
        ["kset", "M"],
        ["sample", "M", "--n-samples", str(draw(st.integers(-1, 20)))],
        ["sample", "M", "--coupling", "C", "--n-samples", str(draw(st.integers(1, 20)))],
        ["verify-equidist", "C", "--runs", str(draw(st.integers(-1, 20)))]
        + draw(st.sampled_from([[], ["--tolerance", "1/2"], ["--tolerance", "0"], ["--tolerance", "x"]])),
        ["examples", "--only", example],
        ["examples", "--only", example, "--override", "ex10=M"],
        ["diagram", "C"],
    ]))
    takes = _option_strings(argv[0])
    seed = str(draw(st.integers(0, 3)))  # drawn for every command, so later draws do not hang on it
    if "--seed" in takes:
        argv += ["--seed", seed]
    argv += ["--format", draw(st.sampled_from(["text", "json", "text", "json", "tsv", "dot"]))]
    options = [o for o in (["--max-closure", "2"], ["--exact-cap", "0"], ["--t-max", "2"],
                           ["--max-closure", "0"], ["--exact-cap", "-1"], ["--t-max", "0"])
               if o[0] in takes]
    if options and draw(st.integers(0, 9)) >= 4:  # none, a small cap, or one out of range
        argv += draw(st.sampled_from(options))
    return argv, files


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(_cli_runs())
def test_any_input_exits_with_a_reported_code(run):
    # whatever the matrix, coupling, partition or support text, every
    # subcommand exits 0-3 with a message, never with an internal error
    argv, files = run
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            (Path(tmp) / name).write_text(text)
        argv = [str(Path(tmp) / a) if a in files else a.replace("=M", f"={tmp}/M") for a in argv]
        code, _, err = run_cli(*argv)
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err and "internal error" not in err, err


def test_repeated_in_process_calls_stay_independent(
    monkeypatch, tmp_path, ex10_file, ex11_file, quarter_file, doeblin_file
):
    # main builds its parser once per process; what each call prints, its
    # exit code, its manifest, its seed and the handler it runs stay its own
    from coalesce import cli

    files = {"ex10": ex10_file, "ex11": ex11_file, "quarter": quarter_file, "doeblin": doeblin_file}
    argvs = [
        [a.format(**files) for a in argv] + ["--format", fmt]
        for argv, formats in HANDLER_RUNS
        for fmt in formats
    ]
    usage_error, help_, foreign_option, missing = (
        ["sample", ex10_file],  # --n-samples is required
        ["birkhoff", "--help"],
        ["birkhoff", ex10_file, "--seed", "1"],
        ["birkhoff", str(tmp_path / "missing.txt")],
    )
    argvs += [usage_error, help_, foreign_option, missing]

    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(1) or init(self, *a, **kw))

    def masked(argv):
        code, out, err = run_cli(*argv)
        lines = err.splitlines()
        if lines and lines[-1].startswith("{"):
            lines[-1] = json.loads(lines[-1])
            lines[-1]["wall_clock_seconds"] = None
        return code, out, lines

    cli._parser.cache_clear()  # so the first pass builds it, whatever ran before
    first = [masked(argv) for argv in argvs]
    assert built
    built.clear()
    assert [masked(argv) for argv in argvs] == first
    assert built == []

    results = dict(zip(map(tuple, argvs), first))
    code, _, err = results[tuple(usage_error)]
    assert code == 2 and not isinstance(err[-1], dict)
    assert results[tuple(help_)][0] == 0
    assert results[tuple(foreign_option)][0] == 2
    code, _, err = results[tuple(missing)]
    assert code == 2 and err[-1]["exit_code"] == 2

    unseeded = [manifest_of(run_cli("sample", ex10_file, "--n-samples", "2")[2])["seed"] for _ in range(2)]
    assert unseeded[0] != unseeded[1]

    monkeypatch.setattr(cli, "_cmd_birkhoff", lambda args, run: (0, ["patched"]))
    assert run_cli("birkhoff", ex10_file)[:2] == (0, "patched\n")


def test_a_handler_patched_before_the_parser_is_built(monkeypatch, ex10_file):
    # the parser records each handler's name, not the function bound to it
    # when it was built, so a patch in place at that moment still comes off
    from coalesce import cli

    expected = run_cli("birkhoff", ex10_file)[:2]
    cli._parser.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_cmd_birkhoff", lambda args, run: (0, ["patched"]))
        assert run_cli("birkhoff", ex10_file)[:2] == (0, "patched\n")
    assert run_cli("birkhoff", ex10_file)[:2] == expected
