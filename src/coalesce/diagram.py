"""Text renderings of coupled trajectories merging over time.

One forward simulation of the coupling drives all n trajectories at once;
the diagram shows, for each start state, the state occupied at every step.
Rows that become equal have merged and stay merged, so coalescence is
visible as identical row suffixes (text) or shared nodes (DOT).
"""
from __future__ import annotations

from .cftp import RngStream, _walk
from .coupling import GrandCoupling
from .errors import TooManyStates

MAX_DIAGRAM_STATES = 50


def _simulate(mu: GrandCoupling, stream: RngStream, t_max: int):
    """Trajectory table: rows[i][t] is the state of trajectory i at time t.

    Column t is the forward composite after t draws, read from the same
    one-step walk (and so the same draws) as cftp.forward_record. Stops
    once all trajectories occupy one state; returns (rows, coalesced_at or
    None).
    """
    columns = [list(range(mu.n))]
    hit = _walk(mu, stream.substream(0), t_max, False, columns)
    return list(zip(*columns)), None if hit is None else hit[0]


def emit_trajectory_diagram(
    mu: GrandCoupling,
    stream: RngStream,
    t_max: int,
    fmt: str = "text",
) -> str:
    """Render one seeded run of all trajectories as text or DOT.

    fmt 'text' gives a states-by-time lattice with a class-count footer;
    fmt 'dot' gives a Graphviz digraph whose nodes are the occupied
    (state, time) points, so merged trajectories share nodes.
    """
    n = mu.n
    if n > MAX_DIAGRAM_STATES:
        raise TooManyStates(f"{n} states exceed the diagram limit of {MAX_DIAGRAM_STATES}")
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    if fmt not in ("text", "dot"):
        raise ValueError(f"unknown diagram format: {fmt!r}")
    rows, coalesced_at = _simulate(mu, stream, t_max)
    steps = len(rows[0]) - 1
    if fmt == "dot":
        return _render_dot(rows, steps, coalesced_at)
    return _render_text(rows, steps, coalesced_at, t_max)


def _render_text(rows, steps: int, coalesced_at, t_max: int) -> str:
    n = len(rows)
    width = max(2, len(str(n)))
    head = "time    " + "  ".join(f"{t:>{width}}" for t in range(steps + 1))
    lines = [head]
    for i in range(n):
        cells = "  ".join(f"{v + 1:>{width}}" for v in rows[i])
        lines.append(f"from {i + 1:>2}  {cells}")
    classes = [len({rows[i][t] for i in range(n)}) for t in range(steps + 1)]
    lines.append("classes " + "  ".join(f"{c:>{width}}" for c in classes))
    if coalesced_at is not None:
        lines.append(f"coalesced at t={coalesced_at}")
    else:
        lines.append(f"not coalesced by t={t_max}")
    return "\n".join(lines) + "\n"


def _render_dot(rows, steps: int, coalesced_at) -> str:
    n = len(rows)
    occupied = [sorted({rows[i][t] for i in range(n)}) for t in range(steps + 1)]
    edges = sorted(
        {(rows[i][t], t, rows[i][t + 1]) for i in range(n) for t in range(steps)}
    )
    out = ["digraph trajectories {", "  rankdir=LR;", "  node [shape=circle];"]
    for t, states in enumerate(occupied):
        names = " ".join(f"s{v}t{t}" for v in states)
        out.append(f"  {{ rank=same; {names} }}")
        for v in states:
            out.append(f'  s{v}t{t} [label="{v + 1}"];')
    for v, t, w in edges:
        out.append(f"  s{v}t{t} -> s{w}t{t + 1};")
    note = (
        f"coalesced at t={coalesced_at}" if coalesced_at is not None else "not coalesced"
    )
    out.append(f'  label="{note}";')
    out.append("}")
    return "\n".join(out) + "\n"
