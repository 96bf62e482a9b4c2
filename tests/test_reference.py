import pytest

from coalesce import InvalidOption, example_ids, parse_matrix, run_all

from conftest import EX11_TEXT


def test_example_ids():
    assert example_ids() == [
        "ex7", "ex10", "ex11", "certgap", "divisors", "exclusion", "dichotomy"
    ]


def test_fast_examples_all_pass():
    rows = run_all(only=["ex7", "ex10", "divisors", "exclusion"])
    assert rows
    assert all(r.passed for r in rows)
    assert {r.example for r in rows} == {"ex7", "ex10", "divisors", "exclusion"}


def test_override_detects_mismatch():
    # a rotated 3-state walk still has K = {1, 3} but different mixture parts
    rotated = parse_matrix("1/2 0 1/2\n1/2 1/2 0\n0 1/2 1/2\n")
    rows = run_all(["ex10"], {"ex10": rotated})
    assert any(not r.passed for r in rows)


def test_certgap_pins_the_certificate_gap():
    rows = run_all(["certgap"])
    assert len(rows) == 7 and all(r.passed for r in rows)
    # on the lazy 4-cycle walk K(P) = {1, 2, 4}, so the same checks fail
    rows = run_all(["certgap"], {"certgap": parse_matrix(EX11_TEXT)})
    assert any(not r.passed for r in rows)


def test_unknown_example_rejected():
    with pytest.raises(InvalidOption, match="unknown example id 'ex99'"):
        run_all(["ex99"])


def test_override_on_derived_example_rejected():
    rotated = parse_matrix("0 1\n1 0\n")
    with pytest.raises(InvalidOption, match="does not take a replacement matrix"):
        run_all(["divisors"], {"divisors": rotated})


def test_run_all_rejects_unused_override():
    rotated = parse_matrix("1/2 0 1/2\n1/2 1/2 0\n0 1/2 1/2\n")
    with pytest.raises(InvalidOption, match="did not run"):
        run_all(only=["ex7"], overrides={"ex10": rotated})



@pytest.mark.parametrize(
    "only, override_for, message",
    [
        (["first", "ex99"], None, "unknown example id"),
        (["first", "second"], "second", "does not take a replacement matrix"),
        (["first", "second", "first"], None, "example id 'first' is named more than once"),
    ],
)
def test_run_all_checks_every_argument_before_running(monkeypatch, only, override_for, message):
    from coalesce import reference

    ran = []

    def recorder(example_id):
        def run(override):
            ran.append(example_id)
            return []

        return run

    for example_id in ("first", "second"):
        example = reference.Example(example_id, False, recorder(example_id))
        monkeypatch.setitem(reference.REGISTRY, example_id, example)
    overrides = {override_for: parse_matrix("0 1\n1 0\n")} if override_for else {}
    with pytest.raises(InvalidOption, match=message):
        run_all(only=only, overrides=overrides)
    assert ran == []
