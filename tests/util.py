"""Shared independent oracles and validators for the test suite."""

import functools
import math
from fractions import Fraction

import mpmath
import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gammaln

from bayesmc import Alphabet, BetaParams, LabeledHMM, log_gamma_diff, posterior, reg_inc_beta
from bayesmc.special import NumericDomainError, _moment_terms


def quad_evidence_binary(counts, alpha=1.0, nodes=40):
    """Evidence by brute-force quadrature of likelihood x prior over the
    product of binary simplices, one per conditioning word.

    Each word's 1-simplex is parametrized by x = p(1|word); the flat prior
    (alpha=1) has density 1 and general alpha a Beta(alpha, alpha) density.
    Gauss-Legendre with `nodes` points is exact for the polynomial
    integrands that small integer counts produce.  No Gamma-function
    identities are used.
    """
    x, w = leggauss(nodes)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    total = 1.0
    for n0, n1 in counts.table[:, [0, 1]]:
        f = x ** (n1 + alpha - 1.0) * (1.0 - x) ** (n0 + alpha - 1.0)
        norm = np.sum(w * x ** (alpha - 1.0) * (1.0 - x) ** (alpha - 1.0))
        total *= np.sum(w * f) / norm
    return total


def quad_evidence_binary_k1_tensor(counts, nodes=24):
    """Same evidence for binary k=1, alpha=1, but as a genuine 2-D tensor
    quadrature over [0,1]^2 without factorizing the integrand."""
    assert counts.order == 1 and counts.alphabet.size == 2
    x, w = leggauss(nodes)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    n = counts.table
    x0, x1 = np.meshgrid(x, x, indexing="ij")
    integrand = (
        x0 ** n[0, 1] * (1.0 - x0) ** n[0, 0]
        * x1 ** n[1, 1] * (1.0 - x1) ** n[1, 0]
    )
    return float(w @ integrand @ w)


def golden_mean_word_probs(L):
    """Stationary probabilities of all binary words of length L under the
    golden-mean source, in lexicographic order, built by hand as the
    order-1 chain p(0) = 1/3, T = [[0, 1], [1/2, 1/2]] (no 00), without
    bayesmc.processes."""
    T = np.array([[0.0, 1.0], [0.5, 0.5]])
    p = np.array([1.0 / 3.0, 2.0 / 3.0])
    for _ in range(L - 1):
        p = (p[:, None] * T[np.arange(p.size) % 2]).ravel()
    return p


def even_word_probs(L):
    """Stationary probabilities of all binary words of length L under the
    even process, in lexicographic order, by the forward recursion over its
    two hidden states written out by hand: state A emits 0 (stay) or 1
    (go to B) with probability 1/2 each, B emits 1 and returns to A;
    the stationary state distribution is (2/3, 1/3)."""
    moves = np.array([[[0.5, 0.0], [0.0, 0.0]],   # symbol 0
                      [[0.0, 0.5], [1.0, 0.0]]])  # symbol 1
    f = np.array([[2.0 / 3.0, 1.0 / 3.0]])
    for _ in range(L):
        f = np.einsum("wi,sij->wsj", f, moves).reshape(-1, 2)
    return f.sum(axis=1)


def sns_word_probs(L):
    """Stationary probabilities of all binary words of length L under the
    simple nondeterministic source, in lexicographic order, by the forward
    recursion over its two hidden states in exact fractions: state A emits
    1 and stays or emits 1 and goes to B, B emits 0 and returns to A or
    emits 1 and stays, each with probability 1/2; the stationary state
    distribution is (1/2, 1/2).  Every probability is dyadic, so the
    floats returned are exact."""
    h = Fraction(1, 2)
    moves = ([[0, 0], [h, 0]],   # symbol 0: B -> A
             [[h, h], [0, h]])   # symbol 1: A -> A, A -> B, B -> B
    f = [(h, h)]
    for _ in range(L):
        f = [tuple(v[0] * m[0][j] + v[1] * m[1][j] for j in (0, 1)) for v in f for m in moves]
    return np.array([float(sum(v)) for v in f])


def block_entropy(p):
    """Shannon entropy in bits of a word distribution."""
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def average_log_evidence(word_probs, N, k, alpha):
    """Log evidence of the binary average counts (N - k) p(word symbol)
    under a uniform Dirichlet(alpha) prior, by scipy's gammaln.
    `word_probs` holds the probabilities of all length-(k+1) words."""
    n = (N - k) * np.asarray(word_probs).reshape(2**k, 2)
    return float(
        np.sum(gammaln(2 * alpha) - gammaln(n.sum(axis=1) + 2 * alpha))
        + np.sum(gammaln(n + alpha) - gammaln(alpha))
    )


def window_count_oracle(symbols, k, alphabet_size=2):
    """Count length-(k+1) windows by explicit enumeration into a dict."""
    out = {}
    for i in range(len(symbols) - k):
        window = tuple(symbols[i : i + k + 1])
        out[window] = out.get(window, 0) + 1
    return out


def even_runs_ok(text):
    """True when every maximal 1-run bounded by 0s on both sides has even
    length.  Leading/trailing runs are unconstrained (truncated blocks)."""
    runs = text.split("0")
    return all(len(run) % 2 == 0 for run in runs[1:-1])


def biased_chain(p10=0.7, p11=0.4):
    """Full-support order-1 binary chain as a labeled process; the hidden
    state is simply the last emitted symbol."""
    t0 = [[1.0 - p10, 0.0], [1.0 - p11, 0.0]]
    t1 = [[0.0, p10], [0.0, p11]]
    return LabeledHMM(Alphabet.binary(), np.array([t0, t1]), name="biased")


def random_tables(rng, n_tables, max_k=2, max_count=20, alphabets=(2, 3)):
    """Random (CountTable, HyperTable) pairs for identity checks."""
    from bayesmc import Alphabet, CountTable, HyperTable

    out = []
    for _ in range(n_tables):
        A = int(rng.choice(alphabets))
        k = int(rng.integers(1, max_k + 1))
        alphabet = Alphabet(tuple("0123456789"[:A]))
        shape = (A**k, A)
        counts = CountTable(k, alphabet, rng.integers(0, max_count + 1, size=shape).astype(float))
        hyper = HyperTable(k, alphabet, rng.uniform(0.2, 3.0, size=shape))
        out.append((counts, hyper))
    return out


def per_word_evidence(prior, counts):
    """The log evidence of `counts` under the Dirichlet `prior`, each a (W, A) table or a
    (G, W, A) stack, restated word by word from log_gamma_diff on every entry and word
    total, each total added left to right over its row.  A word with counts gives its
    entries' terms, added left to right, less its total's; a table sums those words in
    code order as np.add.reduceat sums one run: the first, plus np.sum of the rest."""
    def left_to_right(x):
        return functools.reduce(np.add, np.moveaxis(x, -1, 0))

    prior, counts = np.broadcast_arrays(prior, counts)
    totals = [left_to_right(x) for x in (prior, counts)]
    per_word = left_to_right(log_gamma_diff(prior, counts)) - log_gamma_diff(*totals)
    W = per_word.shape[-1]
    sums = [v[0] + v[1:].sum() if v.size else 0.0
            for v in map(np.compress, (totals[1] > 0).reshape(-1, W), per_word.reshape(-1, W))]
    return sums[0] if per_word.ndim == 1 else np.array(sums)


def mp_energy(counts, hyper, dps=40):
    """energy_moments' beta, mean, variance and h_mu summed in mpmath at `dps` digits,
    each with its cancelling scale, one dict name -> (value, scale) per table of
    `counts` (a lone table gives one).  The inputs are the float posterior, its entries
    t = n + alpha and word totals t(w), and the polygamma kernel's float terms
    f(t) = (t psi(t), t^2 psi'(t) - t) of each, as special._moment_terms gives them: the
    series behind them is accurate to about 1e-12 relative near t = 6 (TestTrigamma),
    which would hide every summation error, so this checks how the terms are summed.
    beta is the exact sum of the t(w), and h_mu the exact -sum t log2(t / t(w)) / beta.
    A scale is the sum of the absolute values of the terms that the closed form adds
    up over every entry and word: beta itself; sum |f_0| / (beta ln 2) for the mean,
    sum |f_1| / (beta ln 2)^2 for the variance, and (sum |t log2 t| +
    sum |t(w) log2 t(w)|) / beta for h_mu, whose closed form is the mean's with log in
    place of psi."""
    post = posterior(counts, hyper)
    shape = (-1,) + post.table.shape[-2:]
    entries, words = (np.reshape(_moment_terms(x), (2,) + y)
                      for x, y in ((post.table, shape), (post.word_totals, shape[:2])))
    out = []
    with mpmath.workdps(dps):
        for g, (table, totals) in enumerate(zip(post.table.reshape(shape),
                                                post.word_totals.reshape(shape[:2]))):
            beta = mpmath.fsum(totals.tolist())
            scale = beta * mpmath.log(2)
            moments = [(mpmath.fsum(words[m, g].tolist())
                        - mpmath.fsum(entries[m, g].ravel().tolist()),
                        mpmath.fsum(np.abs(words[m, g]).tolist())
                        + mpmath.fsum(np.abs(entries[m, g]).ravel().tolist()))
                       for m in (0, 1)]
            rows, totals = [[mpmath.mpf(t) for t in row] for row in table.tolist()], totals.tolist()
            rates = [t * mpmath.log(t / total, 2) for row, total in zip(rows, totals) for t in row]
            logs = [abs(t * mpmath.log(t, 2)) for t in [*sum(rows, []), *map(mpmath.mpf, totals)]]
            out.append({"beta": (beta, beta),
                        "mean": (moments[0][0] / scale, moments[0][1] / scale),
                        "variance": (-moments[1][0] / scale**2, moments[1][1] / scale**2),
                        "hmu": (-mpmath.fsum(rates) / beta, mpmath.fsum(logs) / beta)})
    return out


#: The bound on an energy statistic's error, in ulps (float eps) of its cancelling scale.
ENERGY_ULPS = 64


def energy_errors(moments, counts, hyper):
    """Each statistic's error against mp_energy, in eps times its cancelling scale: one
    dict name -> error per table."""
    eps = np.finfo(float).eps
    errors = []
    for g, reference in enumerate(mp_energy(counts, hyper)):
        error = {}
        for name, (value, scale) in reference.items():
            diff = abs(np.ravel(getattr(moments, name))[g] - value)
            error[name] = float(diff / (eps * scale)) if scale else math.inf if diff else 0.0
        errors.append(error)
    return errors


def density_grid(post, points=512):
    """Every entry's exact Beta marginal density on the uniform open grid x in (0, 1) of
    `points` values: x, and densities of shape (A**k, A, points), or (G, A**k, A, points)
    for a stack, from one BetaParams over the whole table.  infer_table's reference."""
    x, a = (np.arange(points) + 0.5) / points, post.table[..., None]
    return x, BetaParams(a, post.word_totals[..., None, None] - a).pdf(x)


def region_mass(m, region):
    """The Beta mass that a ConfidenceRegion holds, by two incomplete Beta evaluations."""
    return reg_inc_beta(m, region.upper) - reg_inc_beta(m, region.lower)


def beta_cf_loop(a, b, x):
    """special._beta_cf as it was written with an inner loop over the even and odd
    coefficients and abs() tests: the reference the unrolled fraction must equal bit for
    bit."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300 + math.isqrt(int(max(a, b)))):
        m2 = 2 * m
        # one Lentz step for the even and one for the odd coefficient
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise NumericDomainError(f"incomplete Beta continued fraction failed for a={a}, b={b}, x={x}")
