import pytest

from coalesce import (
    RngStream,
    doeblin_coupling,
    emit_trajectory_diagram,
    permutation_coupling,
    to_explicit,
    uniform_divisor_coupling,
)
from coalesce.errors import TooManyStates


def test_text_diagram_coalesces(ex10):
    mu = to_explicit(doeblin_coupling(ex10))
    txt = emit_trajectory_diagram(mu, RngStream(3), t_max=30)
    assert "from  1" in txt and "from  3" in txt
    assert "coalesced at t=" in txt
    assert "classes" in txt
    # deterministic under the same stream
    assert txt == emit_trajectory_diagram(mu, RngStream(3), t_max=30)


def test_text_diagram_failure(ex10):
    mu = permutation_coupling(ex10)
    txt = emit_trajectory_diagram(mu, RngStream(4), t_max=8)
    assert "not coalesced by t=8" in txt


def test_dot_diagram(ex10):
    dot = emit_trajectory_diagram(to_explicit(doeblin_coupling(ex10)), RngStream(3), t_max=30, fmt="dot")
    assert dot.startswith("digraph")
    assert "rankdir=LR" in dot


def test_state_limit():
    with pytest.raises(TooManyStates):
        emit_trajectory_diagram(uniform_divisor_coupling(51, 1), RngStream(1), t_max=5)


def test_unknown_format(ex10):
    with pytest.raises(ValueError):
        emit_trajectory_diagram(doeblin_coupling(ex10), RngStream(1), t_max=5, fmt="svg")
