"""Which coalescence numbers can a coupling of a given chain achieve?

Run from the repo root after `pip install -e .`:

    python3 demos/achievable_k_walkthrough.py
"""

from coalesce import (
    Infeasible,
    MapFunction,
    Support,
    allowed_functions,
    coalescence_number,
    feasible_weights,
    is_consistent,
    k_set_exact,
    limiting_partitions,
    parse_matrix,
)

# A 3-state walk: stay put or step around a one-way cycle, a fair coin each.
P = parse_matrix("""
1/2 1/2 0
0   1/2 1/2
1/2 0   1/2
""")

print("matrix:")
print(P.to_text())

# Any coupling must pick, for each state, a move along a positive entry.
# With two choices per row that is 2*2*2 = 8 candidate functions.
funcs = allowed_functions(P)
print("allowed functions:", " ".join(f.to_notation() for f in funcs))

# Enumerate all 255 non-empty subsets and solve an exact LP for each one.
report = k_set_exact(P, prune=False, collect_feasible=True)
print("achievable coalescence numbers:", sorted(report.values))
print("subsets tried:", report.subsets_enumerated, "feasible:", len(report.feasible))

# k = 2 is missing. Every coupling of this chain either merges everything
# (k = 1) or keeps all three trajectories apart forever (k = 3).
for m in report.members:
    print(f"k={m.k} via {m.how}:")
    for f, w in m.coupling.iter_terms():
        print(f"   {f.to_notation()}  weight {w}")

# The same game on a 4-state walk around a cycle with holding 1/2.
Q = parse_matrix("""
1/2 1/2 0   0
0   1/2 1/2 0
0   0   1/2 1/2
1/2 0   0   1/2
""")
report4 = k_set_exact(Q, collect_feasible=True)
print("4-state walk achieves:", sorted(report4.values))   # 3 is impossible

# One particular coupling with k = 2: four functions, weight 1/4 each.
quarter = Support.of(
    MapFunction.from_notation(s) for s in ("1234", "1331", "2244", "2341")
)
res = feasible_weights(Q, quarter)
assert not isinstance(res, Infeasible)
print("quarter coupling weights:", [(f.to_notation(), str(w)) for f, w in res.weights])

mu = res.as_coupling()
assert is_consistent(mu, Q)
print("its coalescence number:", coalescence_number(mu))
print("limiting partitions:")
for part in sorted(limiting_partitions(mu), key=lambda p: p.format_onebased()):
    print("  ", part.format_onebased())
# Two trajectories survive, and which pair survives is read off from the
# partition the run gets absorbed into: 1,2|3,4 or 1,4|2,3.
