"""Couplings that act on blocks of states, and where they come from.

    python3 demos/block_structures.py
"""

from coalesce import (
    BlockConditionsFail,
    NotLumpable,
    Partition,
    birkhoff_decomposition,
    check_lumpability,
    coalescence_number,
    construct_block_measure,
    is_block_measure,
    StochasticMatrix,
    parse_matrix,
    uniform_divisor_coupling,
)

Q = parse_matrix("""
1/2 1/2 0   0
0   1/2 1/2 0
0   0   1/2 1/2
1/2 0   0   1/2
""")

# Group the states into blocks and ask whether the chain projects to a
# chain on the blocks. Adjacent pairs fail: from state 1 the mass into
# block {3,4} is 0 but from state 2 it is 1/2.
for text in ("1,2|3,4", "1,3|2,4"):
    part = Partition.parse(text)
    R = check_lumpability(Q, part)
    if isinstance(R, NotLumpable):
        print(text, "does not lump:", R.describe())
    else:
        print(text, "lumps to:")
        print(R.to_text())

# The odd/even split also passes the stronger block conditions: blocks of
# equal size, and the block-to-block mass moves by a permutation law.
# construct_block_measure raises BlockConditionsFail when they fail.
part = Partition.parse("1,3|2,4")
try:
    mu = construct_block_measure(Q, part)
except BlockConditionsFail:
    mu = None
print("block conditions hold:", mu is not None)

# So a coupling can be assembled that moves whole blocks at once.
print("constructed coupling:",
      [(f.to_notation(), str(w)) for f, w in mu.iter_terms()])
print("k =", coalescence_number(mu))
print("is it a block measure for 1,3|2,4?", is_block_measure(mu, part))
# Not one. Each row of Q has a single positive entry per target block, so
# the within-block moves are forced and both support functions come out as
# permutations: trajectories inside a block never merge, k stays 4 instead
# of dropping to the block count 2. The recipe needs denser rows to work.

# A cleaner family on the uniform chain: pick any divisor l of n,
# tile the states into l blocks, and move blocks by a uniform random
# rotation while shuffling uniformly inside. Coalescence number is l.
U6 = StochasticMatrix.uniform(6)
for l in (1, 2, 3, 6):
    nu = uniform_divisor_coupling(6, l)
    print(f"n=6, l={l}: {nu.support_size()} functions, k = {coalescence_number(nu)}")

# Doubly stochastic matrices are exactly the mixtures of permutations.
# The decomposition writes U6's transition matrix as such a mixture.
dec = birkhoff_decomposition(U6)
print("uniform(6) as a mixture of", len(dec), "permutations:")
for f, w in dec.terms[:3]:
    print("  ", f.to_notation(), "weight", w)
print("   ...")
assert dec.resum() == U6
print("resums to the matrix exactly")

# Mixtures of permutations are couplings with k = n. Here that means a
# 6-state chain admits a coupling where no two trajectories ever meet.
print("all terms are permutations:",
      all(f.is_permutation() for f, _ in dec.terms))
