"""Estimate entropy rates through the posterior energy.

The expected "energy" E = D[Q||P] + h_mu[Q] is the first derivative of the
negative log partition function (the negative log evidence) in the total
posterior mass beta_k.  It upper-bounds the true entropy rate and converges
to it as the data grows, provided the order k can capture the source.
"""

import math

from bayesmc import (
    SNS_ENTROPY_RATE,
    asymptotic_energy,
    average_counts,
    energy_variance,
    even_process,
    expected_energy,
    golden_mean,
    sns,
    true_entropy_rate,
    uniform_hyper,
)

print("Golden mean at k = 1 (true rate = 2/3 bits/symbol):")
source = golden_mean()
for N in (100, 1_000, 10_000, 100_000):
    data = average_counts(source, N, 1), uniform_hyper(1, source.alphabet, 1.0)
    e, var, asym = expected_energy(*data), energy_variance(*data), asymptotic_energy(*data)
    print(f"  N={N:>7}  E={e:.5f} +/- {math.sqrt(var):.5f}   large-beta approx {asym:.5f}")
print(f"  truth: {true_entropy_rate(source):.5f}\n")

print("Even process: no finite k suffices, but higher k closes the gap:")
source = even_process()
for k in (1, 2, 4, 6):
    e = expected_energy(average_counts(source, 100_000, k), uniform_hyper(k, source.alphabet, 1.0))
    print(f"  k={k}  E={e:.5f}   (truth 2/3 = 0.66667)")
print()

print("Nondeterministic source: no closed-form rate, but the estimator")
print("still converges to the reference value 0.677867:")
source = sns()
for k in (2, 3, 4):
    e = expected_energy(average_counts(source, 100_000, k), uniform_hyper(k, source.alphabet, 1.0))
    print(f"  k={k}  E={e:.6f}   gap {e - SNS_ENTROPY_RATE:+.6f}")
