"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single PASS/FAIL line (on the real terminal, bypassing
capture) before asserting, so a scan of the output gives the scorecard.
"""

import itertools
import math
import time

import numpy as np
import pytest

from bayesmc import (
    Alphabet,
    CountTable,
    SNS_ENTROPY_RATE,
    SymbolSequence,
    average_counts,
    compare_penalized,
    compare_uniform,
    count_words,
    digamma,
    energy_moments,
    even_process,
    golden_mean,
    hmu_of,
    inv_reg_inc_beta,
    log_evidence,
    log_gamma,
    log_predictive,
    map_order,
    markov_approximation,
    posterior,
    posterior_mean,
    reg_inc_beta,
    sample_sequence,
    sns,
    stationary,
    trigamma,
    uniform_hyper,
    word_distribution,
    word_probability,
)
from bayesmc.cli import main as cli_main
from bayesmc.special import BetaParams
from scipy.special import softmax

from util import (
    average_log_evidence,
    biased_chain,
    block_entropy,
    even_runs_ok,
    even_word_probs,
    golden_mean_word_probs,
    quad_evidence_binary,
    random_tables,
    sns_word_probs,
)

BINARY = Alphabet.binary()


def report(capsys, label, ok):
    with capsys.disabled():
        print(f"\n[acceptance] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, label


def test_01_evidence_matches_quadrature(capsys):
    start = time.monotonic()
    worst = 0.0
    for L in range(2, 9):
        for bits in itertools.product((0, 1), repeat=L):
            seq = SymbolSequence(BINARY, np.array(bits))
            for k in (1, 2):
                if L < k + 1:
                    continue
                counts = count_words(seq, k)
                closed = math.exp(log_evidence(counts, uniform_hyper(k, BINARY, 1.0)))
                oracle = quad_evidence_binary(counts)
                worst = max(worst, abs(closed - oracle) / oracle)
    ok = worst < 1e-6 and time.monotonic() - start < 60.0
    report(capsys, f"01 evidence vs simplex quadrature (worst rel err {worst:.2e})", ok)


def test_02_predictive_evidence_identity(capsys):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for c1, h in random_tables(rng, 1000):
        c2 = CountTable(
            c1.order, c1.alphabet,
            rng.integers(0, 21, size=c1.table.shape).astype(float),
        )
        lhs = log_predictive(c1, c2, h)
        rhs = log_evidence(CountTable(c1.order, c1.alphabet, c1.table + c2.table), h) \
            - log_evidence(c1, h)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    ok = worst < 1e-12
    report(capsys, f"02 predictive/evidence identity (worst {worst:.2e})", ok)


def test_03_posterior_mean_decomposition(capsys):
    rng = np.random.default_rng(3)
    worst_row = worst_mix = 0.0
    for counts, hyper in random_tables(rng, 1000):
        mean = posterior_mean(posterior(counts, hyper))
        worst_row = max(worst_row, float(np.max(np.abs(mean.sum(axis=1) - 1.0))))
        n_w, a_w = counts.word_totals, hyper.word_totals
        prior_mean = hyper.table / a_w[:, None]
        with np.errstate(invalid="ignore"):
            mle = np.where(n_w[:, None] > 0, counts.table / n_w[:, None], 0.0)
        mix = (n_w[:, None] * mle + a_w[:, None] * prior_mean) / (n_w + a_w)[:, None]
        worst_mix = max(worst_mix, float(np.max(np.abs(mean - mix))))
    ok = worst_row < 1e-12 and worst_mix < 1e-12
    report(capsys, f"03 mean = count/prior mixture (row err {worst_row:.1e}, "
                   f"mix err {worst_mix:.1e})", ok)


def _order_posteriors(hmm, N, orders, penalized=False, alpha=1.0):
    evs = {
        k: log_evidence(average_counts(hmm, N, k), uniform_hyper(k, hmm.alphabet, alpha))
        for k in orders
    }
    return compare_penalized(evs, 2) if penalized else compare_uniform(evs)


def test_04_first_source_order_selection(capsys):
    # Order 2 only splits context 1 into 01 and 11, both fair coins, so the
    # flat prior's Occam factor for order 1 grows as sqrt(N) and
    # 1 - P(k=1) falls as N^(-1/2): P(k=1) > 0.9 needs N near 2000 at
    # alpha = 1, but holds from N = 200 at alpha = 0.1.
    gm = golden_mean()
    orders = range(1, 5)
    grid = range(200, 1001, 25)
    flat = {N: _order_posteriors(gm, N, orders) for N in (*grid, 1500, 2500, 10_000, 100_000)}
    sharp = {N: _order_posteriors(gm, N, orders, alpha=0.1) for N in grid}
    # independent oracle: hand-coded word probabilities and scipy's gammaln
    worst_dev = 0.0
    for alpha, ops in ((1.0, flat), (0.1, sharp)):
        for N, op in ops.items():
            ref = np.array([
                average_log_evidence(golden_mean_word_probs(k + 1), N, k, alpha)
                for k in op.orders
            ])
            ref_p1 = softmax(ref)[op.orders.index(1)]
            worst_dev = max(worst_dev, *np.abs(op.log_evidence / ref - 1.0),
                            abs(op.probability(1) / ref_p1 - 1.0))
    oracle_ok = worst_dev < 1e-10
    p1 = [flat[N].probability(1) for N in grid]
    select_ok = all(map_order(flat[N]) == 1 for N in grid) \
        and all(b > a for a, b in zip(p1, p1[1:]))
    min_sharp = min(sharp[N].probability(1) for N in grid)
    threshold_ok = flat[1500].probability(1) <= 0.9 \
        and all(flat[N].probability(1) > 0.9 for N in (2500, 10_000, 100_000)) \
        and min_sharp > 0.9
    # first N with P(k=1) > 0.9 at alpha = 1, bisected inside (1500, 2500]
    lo, hi = 1500, 2500
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _order_posteriors(gm, mid, orders).probability(1) > 0.9:
            hi = mid
        else:
            lo = mid
    max_high = max(
        _order_posteriors(gm, N, orders, penalized=True).probability(k)
        for N in range(10, 101, 10)
        for k in (2, 3, 4)
    )
    penalty_ok = max_high <= 0.5
    ok = oracle_ok and select_ok and threshold_ok and penalty_ok
    report(capsys, f"04 order-1 source selection (alpha=1: MAP k=1 {select_ok}, "
                   f"min P(k=1)={min(p1):.3f}, first >0.9 at N={hi}; "
                   f"alpha=0.1: min P(k=1)={min_sharp:.3f} need >0.9; "
                   f"oracle dev {worst_dev:.1e} < 1e-10; "
                   f"max penalized P(k>=2)={max_high:.3f} need <=0.5)", ok)


def test_05_even_process_parity_signature(capsys):
    ev = even_process()
    ns = sorted({int(v) for v in np.logspace(2, 4, 25)})
    parity_from = None
    for i, N in enumerate(ns):
        if all(
            (op := _order_posteriors(ev, M, range(1, 5))).probability(2) > op.probability(1)
            and op.probability(4) > op.probability(3)
            for M in ns[i:]
        ):
            parity_from = N
            break
    op4 = _order_posteriors(ev, 10_000, range(1, 5))
    k4_max = op4.probability(4) == pytest.approx(max(op4.probabilities), abs=1e-12)
    ok = parity_from is not None and parity_from <= 10_000 and k4_max
    report(capsys, f"05 parity preference from N={parity_from}, "
                   f"P(k=4) maximal at N=1e4: {k4_max}", ok)


def test_06_entropy_convergence_first_source(capsys):
    gm = golden_mean()
    h1 = uniform_hyper(1, BINARY, 1.0)
    e4 = energy_moments(average_counts(gm, 10_000, 1), h1).mean
    close = abs(e4 - 2.0 / 3.0) < 0.01
    tail = [
        energy_moments(average_counts(gm, N, 1), h1).mean
        for N in sorted({int(v) for v in np.logspace(3, 5, 21)})
    ]
    monotone = all(b < a for a, b in zip(tail, tail[1:]))
    ok = close and monotone
    report(capsys, f"06 energy -> 2/3 (gap {abs(e4 - 2/3):.4f} < 0.01, "
                   f"monotone tail: {monotone})", ok)


def test_07_large_beta_remainder_scaling(capsys):
    chain = biased_chain()
    h1 = uniform_hyper(1, BINARY, 1.0)
    scaled = []
    for beta in (1e3, 1e4, 1e5):
        counts = average_counts(chain, beta - 4.0 + 1.0, 1)
        m = energy_moments(counts, h1)
        scaled.append(abs(m.mean - m.asymptotic) * m.beta**2)
    ratios = [a / b for a, b in zip(scaled, scaled[1:])]
    ok = all(0.5 <= r <= 2.0 for r in ratios)
    report(capsys, f"07 remainder ~ 1/beta^2 (decade ratios {ratios[0]:.2f}, "
                   f"{ratios[1]:.2f} in [0.5, 2])", ok)


def test_08_nondeterministic_source_entropy(capsys):
    start = time.monotonic()
    source = sns()
    e = energy_moments(average_counts(source, 100_000, 4), uniform_hyper(4, BINARY, 1.0)).mean
    gap = abs(e - SNS_ENTROPY_RATE)
    # independent oracle: exact conditional entropy of the best order-4 chain
    h4 = hmu_of(markov_approximation(source, 4))
    oracle_ok = abs(h4 - SNS_ENTROPY_RATE) < 0.02 and abs(e - h4) < 0.02
    ok = gap < 0.02 and oracle_ok and time.monotonic() - start < 60.0
    report(capsys, f"08 nondeterministic source energy {e:.5f} vs 0.677867 "
                   f"(gap {gap:.4f} < 0.02; order-4 oracle h={h4:.5f})", ok)


def test_09a_even_process_low_order_bias(capsys):
    excess = energy_moments(average_counts(even_process(), 100_000, 6),
                            uniform_hyper(6, BINARY, 1.0)).mean - 2.0 / 3.0
    ok = excess > 0.005
    report(capsys, f"09a even-block source k=6 bias {excess:.4f} > 0.005", ok)


def test_09b_even_process_high_order_convergence(capsys):
    # The best order-10 chain already overshoots 2/3 by the block-entropy
    # gap H(11) - H(10) - 2/3; the finite-N remainder on top of it must
    # halve each time N doubles.
    ev = even_process()
    bias = block_entropy(even_word_probs(11)) - block_entropy(even_word_probs(10)) - 2.0 / 3.0
    bias_ok = abs(hmu_of(markov_approximation(ev, 10)) - 2.0 / 3.0 - bias) < 1e-12
    h10 = uniform_hyper(10, BINARY, 1.0)
    ns = (1_000_000, 2_000_000, 4_000_000)
    gaps = [energy_moments(average_counts(ev, N, 10), h10).mean - 2.0 / 3.0 for N in ns]
    rest = [g - bias for g in gaps]
    ratios = [a / b for a, b in zip(rest, rest[1:])]
    ok = bias_ok and all(r > 0 for r in rest) \
        and all(1.5 <= r <= 2.5 for r in ratios) and all(g < 0.01 for g in gaps[1:])
    report(capsys, f"09b even-block source k=10 gap {gaps[0]:.5f}, {gaps[1]:.5f}, "
                   f"{gaps[2]:.5f} at N=1e6, 2e6, 4e6 (< 0.01 from 2e6); bias {bias:.6f}, "
                   f"remainder halving ratios {ratios[0]:.2f}, {ratios[1]:.2f} in [1.5, 2.5]", ok)


def test_10_special_function_suite(capsys):
    xs = np.linspace(0.5, 40.0, 200)
    h = 1e-6
    fd_psi = (log_gamma(xs + h) - log_gamma(xs - h)) / (2 * h)
    psi_ok = float(np.max(np.abs(digamma(xs) - fd_psi))) < 1e-5
    h2 = 1e-4
    fd_tri = (digamma(xs + h2) - digamma(xs - h2)) / (2 * h2)
    tri_ok = float(np.max(np.abs(trigamma(xs) - fd_tri))) < 1e-5
    # parameters kept <= 5: beyond that the far tail's CDF is within a few
    # ulps of 1.0 and double precision cannot carry a 1e-9 roundtrip
    worst_rt = 0.0
    for a in (0.5, 1.0, 2.0, 5.0):
        for b in (0.5, 1.0, 2.0, 5.0):
            p = BetaParams(a, b)
            for x in np.linspace(0.05, 0.95, 19):
                worst_rt = max(worst_rt, abs(inv_reg_inc_beta(p, reg_inc_beta(p, x)) - x))
    # high-precision series references for the two classic constants
    euler = sum(1.0 / i for i in range(1, 10_000_000)) - math.log(10_000_000 - 0.5)
    basel = sum(1.0 / i**2 for i in range(1, 200_000)) + 1.0 / 200_000
    const_ok = abs(digamma(1.0) + euler) < 1e-9 and abs(trigamma(1.0) - basel) < 1e-9
    ok = psi_ok and tri_ok and worst_rt < 1e-9 and const_ok
    report(capsys, f"10 special functions (fd ok {psi_ok and tri_ok}, "
                   f"inverse roundtrip {worst_rt:.1e} < 1e-9, constants {const_ok})", ok)


def test_11_process_suite(capsys):
    pis = [stationary(golden_mean()), stationary(even_process()), stationary(sns())]
    refs = [(2 / 3, 1 / 3), (2 / 3, 1 / 3), (0.5, 0.5)]
    pi_ok = all(np.max(np.abs(pi - np.array(r))) < 1e-12 for pi, r in zip(pis, refs))
    forbidden_ok = word_probability(golden_mean(), "00") < 1e-15
    sample_ok = even_runs_ok(sample_sequence(even_process(), 100_000, seed=11).to_string())
    norm_ok = all(
        abs(word_distribution(hmm, L).sum() - 1.0) < 1e-10
        for hmm in (golden_mean(), even_process(), sns())
        for L in range(1, 9)
    )
    ok = pi_ok and forbidden_ok and sample_ok and norm_ok
    report(capsys, f"11 processes (stationary {pi_ok}, forbidden word {forbidden_ok}, "
                   f"run parity {sample_ok}, normalization {norm_ok})", ok)


def test_12_reproduction_determinism(capsys, tmp_path):
    runs = {}
    for tag, jobs in (("a", 1), ("b", 1), ("c", 8)):
        out = tmp_path / tag
        assert cli_main(["reproduce", "--figure", "4", "--jobs", str(jobs),
                         "--out", str(out)]) == 0
        runs[tag] = (out / "fig4" / "entropy.csv").read_bytes()
    ok = runs["a"] == runs["b"] == runs["c"]
    report(capsys, f"12 byte-identical reproduction across runs and --jobs: {ok}", ok)


def _crossovers(probs, scan, ks):
    """Order crossovers on a source's average counts at alpha = 1.

    `probs[k]` holds the probabilities of all length-(k+1) words.  Returns
    `ahead[k]`, where order k + 1's log evidence beats order k's on `scan`,
    for every k with a next order; c(k -> k+1), the N past which order k + 1
    stays ahead, bisected in log N from the last scanned N where order k
    leads, for each k in `ks`; and the evidence's worst relative deviation
    from `average_log_evidence`."""
    hypers = {k: uniform_hyper(k, BINARY, 1.0) for k in probs}
    worst_dev = 0.0

    def evidence(k, ns):
        nonlocal worst_dev
        ns = np.atleast_1d(ns)
        counts = CountTable(k, BINARY, (ns - k)[:, None, None] * probs[k].reshape(2**k, 2))
        values = log_evidence(counts, hypers[k])  # one value per N of the stack
        ref = np.array([average_log_evidence(probs[k], N, k, 1.0) for N in ns])
        worst_dev = max(worst_dev, *np.abs(values - ref) / np.maximum(1.0, np.abs(ref)))
        return values

    ahead = {k: evidence(k + 1, scan) - evidence(k, scan) > 0 for k in probs if k + 1 in probs}
    c = {}  # c[k] = c(k -> k+1)
    for k in ks:
        i = int(np.flatnonzero(~ahead[k])[-1])  # the last scanned N where order k leads
        lo, hi = math.log(scan[i]), math.log(scan[i + 1])
        while hi - lo > 1e-9:
            mid = np.exp(0.5 * (lo + hi))
            if evidence(k + 1, mid)[0] > evidence(k, mid)[0]:
                hi = math.log(mid)
            else:
                lo = math.log(mid)
        c[k] = math.exp(hi)
    return ahead, c, worst_dev


def test_13_even_process_order_crossovers(capsys):
    # Each crossover c(k -> k+1) is the N past which order k + 1's log
    # evidence stays above order k's, on the average counts at alpha = 1.
    # The even process's 1-blocks have even length, so the orders gain in
    # pairs and each pair's crossovers come swapped.  Below N ~ 15-32 order
    # k + 1 also wins, as each order is scored on its own N - k windows; the
    # scan starts at N = 40 to leave that artifact out.
    probs = {k: even_word_probs(k + 1) for k in range(1, 8)}
    scan = np.logspace(math.log10(40.0), 6.0, 301)
    ahead, c, worst_dev = _crossovers(probs, scan, range(2, 7))
    oracle_ok = worst_dev < 1e-12
    first_ok = bool(np.all(ahead[1]))
    swapped_ok = c[3] < c[2] and c[5] < c[4]
    growth = (min(c[4], c[5]) / max(c[2], c[3]), c[6] / max(c[4], c[5]))
    growth_ok = min(growth) > 5.0
    ok = oracle_ok and first_ok and swapped_ok and growth_ok
    report(capsys, f"13 even-process crossovers (order 2 over 1 on N=40..1e6: {first_ok}; "
                   f"c(2->3..6->7) = {', '.join(f'{c[k]:.0f}' for k in range(2, 7))}, "
                   f"pairs swapped {swapped_ok}, growth {growth[0]:.1f}x, {growth[1]:.1f}x "
                   f"need >5x; oracle dev {worst_dev:.1e} < 1e-12)", ok)


def test_14_sns_order_crossovers(capsys):
    # Criterion 13's crossovers on the simple nondeterministic source, with
    # exact word probabilities from the forward recursion over its two
    # hidden states.  Its orders gain one at a time, each crossover c(k ->
    # k+1) for k = 2..6 more than 5x beyond the one before; the values
    # themselves (about 7.8e3 to 1.3e7) are printed, not asserted.
    probs = {k: sns_word_probs(k + 1) for k in range(2, 8)}
    scan = np.logspace(math.log10(40.0), 8.0, 441)
    _, c, worst_dev = _crossovers(probs, scan, range(2, 7))
    oracle_ok = worst_dev < 1e-12
    growth = [c[k + 1] / c[k] for k in range(2, 6)]
    growth_ok = min(growth) > 5.0
    report(capsys, f"14 sns crossovers (c(2->3..6->7) = "
                   f"{', '.join(f'{c[k]:.0f}' for k in range(2, 7))}, growth "
                   f"{', '.join(f'{g:.1f}x' for g in growth)} need >5x; "
                   f"oracle dev {worst_dev:.1e} < 1e-12)", oracle_ok and growth_ok)
