import pytest

from coalesce import MapFunction, NotationError, Partition, Support, compose


def test_notation_roundtrip():
    f = MapFunction.from_notation("3434")
    assert f.image == (2, 3, 2, 3)
    assert f.to_notation() == "3434"


def test_notation_commas():
    f = MapFunction.from_notation("3,4,3,4")
    assert f.image == (2, 3, 2, 3)
    g = MapFunction(tuple([9] * 10))
    assert g.to_notation() == "10,10,10,10,10,10,10,10,10,10"
    assert MapFunction.from_notation(g.to_notation()) == g


@pytest.mark.parametrize("bad", ["", "04", "45", "5231", "a12"])
def test_notation_rejects(bad):
    with pytest.raises(NotationError):
        MapFunction.from_notation(bad)


def test_out_of_range_image():
    with pytest.raises(NotationError):
        MapFunction((0, 4, 1, 2))


def test_compose_rightmost_first():
    # f(g(i)) with f=3434, g=4334: g sends 1 to 4, then f sends 4 to 4
    f = MapFunction.from_notation("3434")
    g = MapFunction.from_notation("4334")
    assert compose(f, g).to_notation() == "4334"
    assert compose(g, f).to_notation() == "3434"


def test_compose_identity():
    f = MapFunction.from_notation("2311")
    e = MapFunction.identity(4)
    assert compose(f, e) == f
    assert compose(e, f) == f


def test_image_size_and_permutation():
    assert MapFunction.from_notation("3434").image_size() == 2
    assert MapFunction.constant(5, 2).image_size() == 1
    assert MapFunction.from_notation("2341").is_permutation()
    assert not MapFunction.from_notation("2344").is_permutation()


def test_kernel():
    f = MapFunction.from_notation("3434")
    assert f.kernel() == Partition.parse("1,3|2,4")
    assert MapFunction.constant(3, 0).kernel() == Partition.single_block(3)
    assert MapFunction.identity(3).kernel() == Partition.singletons(3)


def test_partition_parse_format():
    p = Partition.parse("1,3|2,4")
    assert p.blocks == (frozenset({0, 2}), frozenset({1, 3}))
    assert p.format_onebased() == "1,3|2,4"
    assert p.size == 2 and p.n == 4


def test_partition_normalizes_block_order():
    p = Partition.from_blocks([[3, 1], [0, 2]])
    assert p.format_onebased() == "1,3|2,4"


@pytest.mark.parametrize("bad", ["1,2|2,3", "1|3", "1,2|", "x|y"])
def test_partition_rejects(bad):
    with pytest.raises(NotationError):
        Partition.parse(bad)


def test_partition_rejects_repeated_state():
    # a repeated state used to collapse silently, reading "1,1|2,3" as "1|2,3"
    with pytest.raises(NotationError, match="state 1 appears twice"):
        Partition.parse("1,1|2,3")
    with pytest.raises(NotationError, match="state 3 appears twice"):
        Partition.parse("1,3|2,3,4")


def test_partition_block_of():
    p = Partition.parse("1,4|2|3")
    assert p.block_of() == (0, 1, 2, 0)


def test_support_dedup_and_order():
    fs = [MapFunction.from_notation(s) for s in ("21", "12", "21")]
    sup = Support.of(fs)
    assert len(sup) == 2
    assert [f.to_notation() for f in sup] == ["12", "21"]
    assert MapFunction.from_notation("21") in sup


def test_support_rejects_mixed_sizes():
    from coalesce import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        Support.of([MapFunction.identity(2), MapFunction.identity(3)])
