"""Estimate entropy rates through the posterior energy.

The expected "energy" E = D[Q||P] + h_mu[Q] is the first derivative of the
negative log partition function (the negative log evidence) in the total
posterior mass beta_k.  It upper-bounds the true entropy rate and converges
to it as the data grows, provided the order k can capture the source.
"""

import math

from bayesmc import (
    SNS_ENTROPY_RATE,
    average_counts,
    energy_moments,
    even_process,
    golden_mean,
    sns,
    true_entropy_rate,
    uniform_hyper,
)

print("Golden mean at k = 1 (true rate = 2/3 bits/symbol):")
source = golden_mean()
sizes = (100, 1_000, 10_000, 100_000)  # one stack of count tables, a value per N
m = energy_moments(average_counts(source, sizes, 1), uniform_hyper(1, source.alphabet, 1.0))
for N, mean, variance, asymptotic in zip(sizes, m.mean, m.variance, m.asymptotic):
    print(f"  N={N:>7}  E={mean:.5f} +/- {math.sqrt(variance):.5f}   "
          f"large-beta approx {asymptotic:.5f}")
print(f"  truth: {true_entropy_rate(source):.5f}\n")

print("Even process: no finite k suffices, but higher k closes the gap:")
source = even_process()
for k in (1, 2, 4, 6):
    e = energy_moments(average_counts(source, 100_000, k),
                       uniform_hyper(k, source.alphabet, 1.0)).mean
    print(f"  k={k}  E={e:.5f}   (truth 2/3 = 0.66667)")
print()

print("Nondeterministic source: no closed-form rate, but the estimator")
print(f"still converges to the reference value {SNS_ENTROPY_RATE:.12g}:")
source = sns()
for k in (2, 3, 4):
    e = energy_moments(average_counts(source, 100_000, k),
                       uniform_hyper(k, source.alphabet, 1.0)).mean
    print(f"  k={k}  E={e:.6f}   gap {e - SNS_ENTROPY_RATE:+.6f}")
