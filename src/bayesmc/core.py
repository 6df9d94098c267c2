"""Alphabets, symbol sequences, word strings, count tables, and Dirichlet
hyperparameter tables.

Words of length k over an alphabet of size A are stored by their base-A
integer code (earliest symbol most significant), so a table over all
(word, next symbol) pairs is a dense (A**k, A) array.  Dense storage costs
A**(k+1) entries; table-building functions refuse orders whose table would
exceed TABLE_CAP.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, field

import numpy as np

from .special import dirichlet_log_norm

#: Largest dense table (in entries) that table-building functions will allocate.
TABLE_CAP = 2**26


class TableTooLargeError(ValueError):
    """Requested order would allocate a table beyond TABLE_CAP."""


class InvalidSymbolError(ValueError):
    """A symbol index or token is not part of the alphabet."""


class ShapeMismatchError(ValueError):
    """Two tables do not share the same order and alphabet."""


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of distinct single-character symbols; index = position in
    `symbols`.  Words are their symbols joined with no separator, so a
    symbol of any other length would make them ambiguous, and CSV rows are
    not quoted, so no symbol may be a comma, double quote or line break."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if len(self.symbols) < 2:
            raise ValueError("alphabet needs at least 2 symbols")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")
        wrong = [s for s in self.symbols if not (isinstance(s, str) and len(s) == 1)]
        if wrong:
            raise ValueError(f"alphabet symbols must be single characters, not {wrong}")
        unsafe = sorted(set(self.symbols) & set(',"\n\r'))
        if unsafe:
            raise ValueError(f"alphabet symbols cannot be a comma, quote or line break, "
                             f"not {unsafe}")

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, token: str) -> int:
        try:
            return self.symbols.index(token)
        except ValueError:
            raise InvalidSymbolError(f"unknown symbol {token!r}") from None

    @classmethod
    def binary(cls) -> "Alphabet":
        return cls(("0", "1"))

    @classmethod
    def from_text(cls, text: str) -> "Alphabet":
        """Infer an alphabet from the distinct characters of `text`.

        Index assignment is deterministic: characters are sorted.
        """
        return cls(tuple(sorted(set(text))))


@dataclass(frozen=True)
class SymbolSequence:
    """A finite sequence of symbol indices over a fixed alphabet."""

    alphabet: Alphabet
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("sequence data must be one-dimensional")
        if arr.size and (arr.min() < 0 or arr.max() >= self.alphabet.size):
            raise InvalidSymbolError("symbol index out of range for alphabet")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    def __len__(self) -> int:
        return int(self.data.size)

    @classmethod
    def from_string(cls, text: str, alphabet: Alphabet | None = None) -> "SymbolSequence":
        if alphabet is None:
            alphabet = Alphabet.from_text(text)
        # one code point per character, looked up among the symbols' sorted code points
        points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
        codes = np.array([ord(s) for s in alphabet.symbols], dtype=np.uint32)
        order = np.argsort(codes)
        pos = np.minimum(np.searchsorted(codes[order], points), alphabet.size - 1)
        unknown = codes[order][pos] != points
        if unknown.any():
            raise InvalidSymbolError(f"unknown symbol {text[int(np.argmax(unknown))]!r}")
        return cls(alphabet, order[pos])

    def to_string(self) -> str:
        return "".join(self.alphabet.symbols[i] for i in self.data)


def check_table_size(alphabet: Alphabet, k: int) -> None:
    """Reject orders whose dense (A**k, A) table would exceed TABLE_CAP entries."""
    if alphabet.size ** (k + 1) > TABLE_CAP:
        raise TableTooLargeError(
            f"order k={k} over {alphabet.size} symbols needs "
            f"{alphabet.size ** (k + 1)} entries (cap {TABLE_CAP})"
        )


def word_strings(k: int, alphabet: Alphabet) -> list[str]:
    """Every length-k word as a string, listed in code order: a word's index
    is its base-A code, earliest symbol most significant."""
    words = [""]
    for _ in range(k):
        words = [w + s for w in words for s in alphabet.symbols]
    return words


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class CountTable:
    """Counts n(word, next symbol), dense over all A**k words.

    Entries are nonnegative reals so that exact average counts
    (N - k) * p(word, symbol) share one representation with integer
    empirical counts.
    """

    order: int
    alphabet: Alphabet
    table: np.ndarray = field(repr=False)

    def __post_init__(self):
        expected = (self.alphabet.size**self.order, self.alphabet.size)
        arr = np.asarray(self.table, dtype=float)
        if arr.shape != expected:
            raise ShapeMismatchError(f"count table shape {arr.shape}, expected {expected}")
        if np.any(arr < 0):
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "table", _frozen(arr))

    @property
    def word_totals(self) -> np.ndarray:
        """n(word) = sum over next symbols."""
        return self.table.sum(axis=1)

    @property
    def total(self) -> float:
        return float(self.table.sum())


@dataclass(frozen=True)
class HyperTable:
    """Dirichlet parameters alpha(word, next symbol), all strictly positive:
    a prior's hyperparameters, or a posterior's counts + hyperparameters."""

    order: int
    alphabet: Alphabet
    table: np.ndarray = field(repr=False)

    def __post_init__(self):
        expected = (self.alphabet.size**self.order, self.alphabet.size)
        arr = np.asarray(self.table, dtype=float)
        if arr.shape != expected:
            raise ShapeMismatchError(f"hyper table shape {arr.shape}, expected {expected}")
        if np.any(arr <= 0):
            raise ValueError("hyperparameters must be strictly positive")
        object.__setattr__(self, "table", _frozen(arr))

    @property
    def word_totals(self) -> np.ndarray:
        """alpha(word) = sum over next symbols."""
        return self.table.sum(axis=1)

    @property
    def total(self) -> float:
        """alpha_k = sum over all (word, symbol) entries."""
        return float(self.table.sum())

    @functools.cached_property
    def log_norm(self):
        """The Dirichlet normaliser dirichlet_log_norm(table), computed once per
        table."""
        return dirichlet_log_norm(self.table)


def require_same_shape(*tables) -> None:
    first = tables[0]
    for t in tables[1:]:
        if t.order != first.order or t.alphabet != first.alphabet:
            raise ShapeMismatchError("tables must share order and alphabet")


def count_words(seq: SymbolSequence, k: int) -> CountTable:
    """Count all sliding windows of length k+1 in `seq`.

    The first k symbols only condition the first window and contribute no
    counts of their own, so the total count mass is exactly N - k.
    """
    if k < 1:
        raise ValueError("order k must be >= 1")
    A = seq.alphabet.size
    check_table_size(seq.alphabet, k)
    n = len(seq)
    if n < k + 1:
        raise ValueError(f"sequence of length {n} too short for order k={k}")
    powers = A ** np.arange(k, -1, -1, dtype=np.int64)
    windows = np.lib.stride_tricks.sliding_window_view(seq.data, k + 1)
    codes = windows @ powers  # combined (word, symbol) code
    flat = np.bincount(codes, minlength=A ** (k + 1)).astype(float)
    return CountTable(k, seq.alphabet, flat.reshape(A**k, A))


def lower_order_counts(top: CountTable, seq: SymbolSequence, k: int) -> CountTable:
    """count_words(seq, k), derived from top = count_words(seq, K) for K >= k.

    The last k+1 symbols of the K+1-windows are the k+1-windows that start at
    K - k or later, so summing out the leading K - k symbols of `top` counts
    them; the first K - k windows are counted directly.  Counts are integers
    held exactly in floats, so the table is identical to count_words'.
    """
    K, A = top.order, top.alphabet.size
    if k == K:
        return top
    if not 1 <= k < K:
        raise ValueError(f"order k={k} must lie in 1..{K}")
    tail = top.table.reshape(A ** (K - k), A ** (k + 1)).sum(axis=0)
    head = count_words(SymbolSequence(seq.alphabet, seq.data[:K]), k).table
    return CountTable(k, top.alphabet, tail.reshape(A**k, A) + head)


def uniform_hyper(k: int, alphabet: Alphabet, value: float = 1.0) -> HyperTable:
    """All hyperparameters equal to `value`; value 1 is the flat prior."""
    if not value > 0:
        raise ValueError("hyperparameter value must be positive")
    check_table_size(alphabet, k)
    A = alphabet.size
    return HyperTable(k, alphabet, np.full((A**k, A), float(value)))


def hyper_from_fake_counts(fake: CountTable) -> HyperTable:
    """alpha(word, symbol) = fake_count + 1."""
    return HyperTable(fake.order, fake.alphabet, fake.table + 1.0)


def read_sequence(path, alphabet: Alphabet | None = None,
                  column: str | None = None) -> SymbolSequence:
    """Read a symbol sequence from a text file (no separators; line breaks are
    dropped, so the sequence may be wrapped) or, when `column` is given, from
    that column of a CSV file."""
    with open(path, "r", encoding="utf-8") as fh:
        if column is None:
            # universal newlines have already turned every \r into \n
            text = fh.read().strip().replace("\n", "")
        else:
            reader = csv.DictReader(fh, restval="")  # a short row's missing cell is empty
            if reader.fieldnames is None or column not in reader.fieldnames:
                raise ValueError(f"column {column!r} not found in {path}")
            text = "".join(row[column].strip() for row in reader)
    if not text:
        raise ValueError(f"no symbols found in {path}")
    return SymbolSequence.from_string(text, alphabet)


def write_sequence(path, seq: SymbolSequence) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(seq.to_string() + "\n")
