"""Define a custom hidden-state source and analyze a sampled realization.

Any process given as labeled transition matrices (one nonnegative matrix
per symbol, summing to a row-stochastic matrix) plugs into the same
pipeline: simulate, count, infer, and estimate the entropy rate -- here
from an actual sampled sequence rather than exact average counts.
"""

import numpy as np

from bayesmc import (
    Alphabet,
    LabeledHMM,
    count_words,
    energy_moments,
    load_hmm,
    posterior,
    posterior_mean,
    sample_sequence,
    true_entropy_rate,
    uniform_hyper,
)

# A lazy two-state cycler: tends to repeat its symbol, switching state
# (and preferred symbol) about one step in five.
process = load_hmm({
    "alphabet": ["a", "b"],
    "matrices": {
        "a": [[0.7, 0.1], [0.1, 0.1]],
        "b": [[0.1, 0.1], [0.1, 0.7]],
    },
    "name": "sticky",
})

seq = sample_sequence(process, 50_000, seed=42)
print(f"sampled {len(seq.data)} symbols; first 60: {seq.to_string()[:60]}")

k = 1
counts = count_words(seq, k)
prior = uniform_hyper(k, process.alphabet, 1.0)
post = posterior(counts, prior)
mean = posterior_mean(post)
print("\nposterior-mean transition probabilities (order 1):")
for w, row in enumerate(mean):
    word = process.alphabet.symbols[w]
    cells = ", ".join(
        f"p({s}|{word}) = {p:.4f}" for s, p in zip(process.alphabet.symbols, row)
    )
    print(f"  {cells}")

estimate = energy_moments(counts, prior).mean
print(f"\nentropy-rate estimate at k={k}: {estimate:.5f} bits/symbol")
if process.is_unifilar():
    print(f"closed-form truth:            {true_entropy_rate(process):.5f}")
else:
    print("(nondeterministic presentation: no closed-form reference)")
