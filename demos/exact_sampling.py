"""Coupling from the past: exact stationary samples, and when it fails.

    python3 demos/exact_sampling.py
"""

from coalesce import (
    DidNotCoalesce,
    RngStream,
    backward_record,
    cftp_sample,
    doeblin_coupling,
    invariant_distribution,
    parse_matrix,
    permutation_coupling,
    provably_never_coalesces,
    sample_counts,
    to_explicit,
    total_variation,
)

P = parse_matrix("""
1/2 1/2 0
0   1/2 1/2
1/2 0   1/2
""")

# The product coupling draws each state's move independently. All 8
# function combinations appear, so trajectories can actually merge.
mu = to_explicit(doeblin_coupling(P))
print("doeblin coupling has", len(list(mu.iter_terms())), "terms")

rng = RngStream(12345)
rec = backward_record(mu, rng.fork("one-run"), collect_trace=True)
print("one run: coalesced at depth", rec.time, "to state", rec.state + 1)
print("image sizes going back in time:", rec.trace)

# 20000 exact samples. The empirical law should sit on top of the
# stationary distribution, which here is uniform.
counts, failures = sample_counts(mu, rng.fork("batch"), 20_000)
assert failures == 0
pi = invariant_distribution(P)
print("counts:", {s + 1: c for s, c in sorted(counts.items())})
print("TV distance to stationary:", float(total_variation(counts, pi)))

# Now a coupling that is consistent with the same P but useless for
# sampling: advance every trajectory with one shared permutation.
perm = permutation_coupling(P)
print("permutation coupling terms:",
      [(f.to_notation(), str(w)) for f, w in perm.iter_terms()])
print("can it ever coalesce?", not provably_never_coalesces(perm))

out = cftp_sample(perm, rng.fork("doomed"), t_max=4096)
assert isinstance(out, DidNotCoalesce)
print("gave up:", out)
# Permutations never glue states together, so the walk back in time
# makes no progress no matter how far it goes. Consistency with P is
# not enough; the support has to reach a constant function eventually.
