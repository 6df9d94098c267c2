"""Independent oracles for the CSV files the bayesmc CLI writes.

Expected values are recomputed from the sources' labeled transition
matrices, or from the benchmark's own input sequence, with scipy.special
for the Gamma-family functions and the incomplete Beta.  Nothing here calls
into bayesmc.  Every output record (one checked quantity of one CSV row; a
whole density curve counts as one record) is counted by a `Checker`.
"""

from __future__ import annotations

import fnmatch
import math
from collections import Counter
from pathlib import Path

import numpy as np
from scipy import special as sp

LN2 = math.log(2.0)

#: The CSVs carry 12 significant digits; this leaves three digits of headroom.
RTOL = 1e-9
#: Tolerance on the probability mass in each tail of a confidence region.
TAIL_RTOL = 1e-6
#: Relative rounding of a value printed with 12 significant digits.
PRINT_ROUNDING = 5e-12
#: The CLI's sns reference entropy rate is printed to six decimals.
SNS_TRUTH_ATOL = 5e-7

#: Labeled transition matrices T[s][i][j] of the builtin sources, written out
#: from their definitions (binary alphabet "0", "1").
SOURCES = {
    "golden_mean": np.array([[[0.0, 0.5], [0.0, 0.0]], [[0.5, 0.0], [1.0, 0.0]]]),
    "even": np.array([[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.5], [1.0, 0.0]]]),
    "sns": np.array([[[0.0, 0.0], [0.5, 0.0]], [[0.5, 0.5], [0.0, 0.5]]]),
}
ALPHABET_SIZE = 2


class Checker:
    """Counts checked records and the failures per record label.

    Labels read `<invocation>:<quantity>`; `known` holds fnmatch patterns of
    labels whose failures are known defects of the program.
    """

    def __init__(self, known=()):
        self.known = tuple(known)
        self.attempted = 0
        self.failures: Counter[str] = Counter()

    def record(self, label: str, ok) -> None:
        self.attempted += 1
        if not ok:
            self.failures[label] += 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def unexpected(self) -> dict[str, int]:
        return {label: n for label, n in self.failures.items()
                if not any(fnmatch.fnmatchcase(label, p) for p in self.known)}


def _stationary(mats: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eig(mats.sum(axis=0).T)
    pi = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
    return pi / pi.sum()


def _word_state_vectors(mats: np.ndarray, length: int) -> np.ndarray:
    """Row w: pi . T^(s_0) ... T^(s_L-1) for the word with code w."""
    vec = _stationary(mats)[None, :]
    for _ in range(length):
        vec = np.stack([vec @ m for m in mats], axis=1).reshape(-1, mats.shape[1])
    return vec


def joint_table(source: str, k: int) -> np.ndarray:
    """p(word, next symbol) over all words of length k, shape (A**k, A)."""
    A = ALPHABET_SIZE
    return _word_state_vectors(SOURCES[source], k + 1).sum(axis=1).reshape(A**k, A)


def entropy_rate(source: str) -> float:
    """Entropy rate in bits: closed form for unifilar sources, else the
    block-entropy difference H(17) - H(16), converged to ~1e-9 for sns."""
    mats = SOURCES[source]
    if np.all((mats > 0).sum(axis=2) <= 1):
        p_sym = mats.sum(axis=2).T
        logs = np.log2(np.where(p_sym > 0, p_sym, 1.0))
        return float(-np.sum(_stationary(mats)[:, None] * p_sym * logs))
    h = []
    for length in (16, 17):
        p = _word_state_vectors(mats, length).sum(axis=1)
        p = p[p > 0]
        h.append(-np.sum(p * np.log2(p)))
    return float(h[1] - h[0])


class AverageCounts:
    """Exact average counts (N - k) p(word, symbol) of a builtin source."""

    def __init__(self, source: str):
        self.source = source
        self._joint: dict[int, np.ndarray] = {}

    def __call__(self, N: int, k: int) -> np.ndarray:
        if k not in self._joint:
            self._joint[k] = joint_table(self.source, k)
        return (N - k) * self._joint[k]


class SequenceCounts:
    """Counts of (word, symbol) windows in prefixes of a symbol sequence,
    recounted with np.unique once per order."""

    def __init__(self, data: np.ndarray):
        self.data = np.asarray(data, dtype=np.int64)
        self._unique: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def __call__(self, N: int, k: int) -> np.ndarray:
        A = ALPHABET_SIZE
        if k not in self._unique:
            n = self.data.size - k
            codes = np.zeros(n, dtype=np.int64)
            for offset in range(k + 1):
                codes = codes * A + self.data[offset:offset + n]
            self._unique[k] = np.unique(codes, return_inverse=True)
        uniq, inverse = self._unique[k]
        table = np.zeros(A ** (k + 1))
        table[uniq] = np.bincount(inverse[:N - k], minlength=uniq.size)
        return table.reshape(A**k, A)


def read_csv(path) -> dict[str, list[str]]:
    """Columns of a CSV written by the CLI, as strings."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    columns = list(zip(*(line.split(",") for line in lines[1:]))) or [()] * len(header)
    return {name: list(col) for name, col in zip(header, columns)}


def _floats(col) -> np.ndarray:
    return np.array([float(v) if v else math.nan for v in col])


def _close(value: float, expected: float, atol: float = 0.0) -> bool:
    if math.isinf(expected) or math.isinf(value):
        return value == expected
    return abs(value - expected) <= RTOL * abs(expected) + atol


def _word_code(word: str) -> int:
    return int(word, ALPHABET_SIZE)


def _record_grid(checker: Checker, label: str, pairs, grid) -> None:
    checker.record(f"{label}:rows", sorted(set(pairs)) == sorted(grid)
                   and len(pairs) == len(set(pairs)))


def check_summary(checker, label, path, counts, alpha, level, grid) -> None:
    """infer_summary.csv: one `moments` and one `region` record per row."""
    t = read_csv(path)
    Ns, ks = [int(v) for v in t["N"]], [int(v) for v in t["k"]]
    checker.record(f"{label}:rows", {(N, k) for N, k in zip(Ns, ks)} == set(grid)
                   and len(Ns) == sum(ALPHABET_SIZE ** (k + 1) for _, k in grid))
    cols = {c: _floats(t[c]) for c in ("count", "alpha", "mean", "variance",
                                       "ci_low", "ci_high")}
    tail = (1.0 - level) / 2.0
    for i, (N, k) in enumerate(zip(Ns, ks)):
        table = counts(N, k)
        w, s = _word_code(t["word"][i]), int(t["symbol"][i])
        post = table[w] + alpha
        a, total = post[s], post.sum()
        b = total - a
        moments = (
            _close(cols["count"][i], table[w, s], atol=1e-12 * N)
            and _close(cols["alpha"][i], alpha)
            and _close(cols["mean"][i], a / total)
            and _close(cols["variance"][i], a * b / (total**2 * (total + 1.0)))
        )
        checker.record(f"{label}:moments", moments)
        lo, hi = cols["ci_low"][i], cols["ci_high"][i]
        masses = (sp.betainc(a, b, lo), sp.betaincc(a, b, hi))
        ok = True
        for x, mass in zip((lo, hi), masses):
            # slack for the 12-digit rounding of x itself
            slack = 0.0
            if 0.0 < x < 1.0:
                with np.errstate(over="ignore"):
                    slack = np.exp((a - 1) * np.log(x) + (b - 1) * np.log1p(-x)
                                   - sp.betaln(a, b)) * x * PRINT_ROUNDING
            ok = ok and abs(mass - tail) <= TAIL_RTOL * tail + slack
        checker.record(f"{label}:region", bool(ok))


def check_density(checker, label, path, counts, alpha, points, grid) -> None:
    """infer_density.csv: one `density` record per (N, k, word, symbol) curve."""
    t = read_csv(path)
    n_rows = len(t["N"])
    expected_curves = sum(ALPHABET_SIZE ** (k + 1) for _, k in grid)
    checker.record(f"{label}:rows", n_rows == expected_curves * points)
    if n_rows != expected_curves * points:
        return
    keys = [np.array(t[c]).reshape(-1, points) for c in ("N", "k", "word", "symbol")]
    x = _floats(t["x"]).reshape(-1, points)
    dens = _floats(t["density"]).reshape(-1, points)
    grid_x = (np.arange(points) + 0.5) / points
    for c in range(expected_curves):
        if not all(np.all(key[c] == key[c, 0]) for key in keys):
            checker.record(f"{label}:density", False)
            continue
        N, k = int(keys[0][c, 0]), int(keys[1][c, 0])
        w, s = _word_code(str(keys[2][c, 0])), int(keys[3][c, 0])
        post = counts(N, k)[w] + alpha
        a, b = post[s], post.sum() - post[s]
        expected = np.exp((a - 1) * np.log(grid_x) + (b - 1) * np.log1p(-grid_x)
                          - sp.betaln(a, b))
        ok = (np.allclose(x[c], grid_x, rtol=RTOL, atol=0.0)
              and np.allclose(dens[c], expected, rtol=RTOL, atol=1e-300))
        checker.record(f"{label}:density", ok)


def _log_evidence(table: np.ndarray, alpha: float) -> tuple[float, float]:
    """Closed-form log evidence and the magnitude of its summed terms."""
    post = table + alpha
    terms = (
        sp.gammaln(np.full(table.shape[0], alpha * table.shape[1])),
        -sp.gammaln(post.sum(axis=1)),
        sp.gammaln(post).ravel(),
        -sp.gammaln(np.full(post.size, alpha)),
    )
    return (float(sum(np.sum(v) for v in terms)),
            float(sum(np.sum(np.abs(v)) for v in terms)))


def _normalized(scores: np.ndarray) -> np.ndarray:
    w = np.exp(scores - scores.max())
    return w / w.sum()


def check_compare(checker, label, path, counts, alpha, grid) -> None:
    """compare.csv: per row `log_evidence`, `prob_uniform`, `prob_penalized`;
    per N one `sum_uniform` and one `sum_penalized` record."""
    t = read_csv(path)
    Ns, ks = [int(v) for v in t["N"]], [int(v) for v in t["k"]]
    _record_grid(checker, label, list(zip(Ns, ks)), grid)
    cols = {c: _floats(t[c]) for c in ("log_evidence_nats", "prob_uniform",
                                       "prob_penalized")}
    A = ALPHABET_SIZE
    for N in sorted(set(Ns)):
        rows = [i for i, n in enumerate(Ns) if n == N]
        evidence = [_log_evidence(counts(N, ks[i]), alpha) for i in rows]
        for i, (ev, scale) in zip(rows, evidence):
            checker.record(f"{label}:log_evidence",
                           _close(cols["log_evidence_nats"][i], ev, atol=1e-12 * scale))
        ev = np.array([e for e, _ in evidence])
        penalty = np.array([float(A ** ks[i] * (A - 1)) for i in rows])
        for col, expected in (("prob_uniform", _normalized(ev)),
                              ("prob_penalized", _normalized(ev - penalty))):
            got = cols[col][rows]
            for g, e in zip(got, expected):
                checker.record(f"{label}:{col}", abs(g - e) <= RTOL)
            checker.record(f"{label}:sum_{col[5:]}", abs(got.sum() - 1.0) <= RTOL)


def check_entropy(checker, label, path, counts, alpha, source, grid) -> None:
    """entropy.csv: one record per row for each of `beta_k`,
    `energy_mean_bits`, `energy_var` (bits^2), `hmu_Q_bits`,
    `kl_bits_if_truth_known`, `asymptotic_bits` and `truth_bits`."""
    t = read_csv(path)
    Ns, ks = [int(v) for v in t["N"]], [int(v) for v in t["k"]]
    _record_grid(checker, label, list(zip(Ns, ks)), grid)
    A = ALPHABET_SIZE
    truth = entropy_rate(source) if source else None
    for i, (N, k) in enumerate(zip(Ns, ks)):
        post = counts(N, k) + alpha
        beta = post.sum()
        qw = post.sum(axis=1) / beta
        qc = post / post.sum(axis=1)[:, None]
        joint = qw[:, None] * qc
        word_mean, pair_mean = qw * sp.digamma(beta * qw), joint * sp.digamma(beta * joint)
        word_var = qw**2 * sp.polygamma(1, beta * qw)
        pair_var = joint**2 * sp.polygamma(1, beta * joint)
        hmu = float(-np.sum(joint * np.log2(qc)))
        expected = {
            "beta_k": (beta, 0.0),
            "energy_mean_bits": ((word_mean.sum() - pair_mean.sum()) / LN2,
                                 1e-12 * (np.abs(word_mean).sum() + np.abs(pair_mean).sum())),
            "energy_var": ((pair_var.sum() - word_var.sum()) / LN2**2,
                           1e-12 * (pair_var.sum() + word_var.sum())),
            "hmu_Q_bits": (hmu, 1e-12),
            "asymptotic_bits": (hmu + A**k * (A - 1) / (2.0 * beta * LN2), 1e-12),
        }
        for col, (value, atol) in expected.items():
            checker.record(f"{label}:{col}", _close(float(t[col][i]), float(value), atol))
        kl_text, truth_text = t["kl_bits_if_truth_known"][i], t["truth_bits"][i]
        if source is None:
            checker.record(f"{label}:kl_bits_if_truth_known", kl_text == "")
            checker.record(f"{label}:truth_bits", truth_text == "")
            continue
        p_joint = joint_table(source, k)
        pw = p_joint.sum(axis=1)
        pc = np.full_like(p_joint, 1.0 / A)
        pc[pw > 0] = p_joint[pw > 0] / pw[pw > 0, None]
        if np.any((joint > 0) & (pc <= 0)):
            kl = math.inf
        else:
            kl = float(np.sum(joint * np.log2(qc / pc)))
        checker.record(f"{label}:kl_bits_if_truth_known",
                       kl_text != "" and _close(float(kl_text), kl, 1e-12))
        truth_atol = SNS_TRUTH_ATOL if source == "sns" else 0.0
        checker.record(f"{label}:truth_bits",
                       truth_text != "" and _close(float(truth_text), truth, truth_atol))
