"""Alphabets, symbol sequences, word strings, count tables, and Dirichlet
hyperparameter tables.

Words of length k over an alphabet of size A are stored by their base-A
integer code (earliest symbol most significant), so a table over all
(word, next symbol) pairs is a dense (A**k, A) array.  Dense storage costs
A**(k+1) entries; table-building functions refuse orders whose table would
exceed TABLE_CAP.  A count or hyper table may also hold a (G, A**k, A) stack
of G tables of one order, such as prefix_counts' one per prefix of a sequence.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .special import _moment_terms, _per_table, _row_rates, _row_sum, _table_sum

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

        Index assignment is deterministic: characters are sorted (by code point).
        """
        return cls(_symbols(_code_points(text)))


def _code_points(text: str) -> np.ndarray:
    """One code point per character of `text`: a byte each (uint8) when the text
    encodes as Latin-1, else uint32, a lone surrogate included."""
    try:
        return np.frombuffer(text.encode("latin-1"), dtype=np.uint8)
    except UnicodeEncodeError:
        return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)


def _symbols(points: np.ndarray) -> tuple[str, ...]:
    """The distinct characters of `points`, sorted by code point.  Bytes are not
    counted: each value from the least byte to the greatest is looked for by one `in`
    (a memchr over the bytes).  Wider code points are counted."""
    if points.dtype != np.uint8:
        return tuple(map(chr, np.flatnonzero(np.bincount(points))))
    raw = points.tobytes()
    # an empty range when there are no points
    lo, hi = int(points.min(initial=255)), int(points.max(initial=0))
    return tuple(chr(c) for c in range(lo, hi + 1) if bytes((c,)) in raw)


def _frozen(arr, dtype=float) -> np.ndarray:
    """`arr` as a C-contiguous, read-only array of `dtype`.  A writeable array
    is copied, so that no view of it can change the result and the caller's
    array stays writeable; a read-only one is taken as it is."""
    out = np.ascontiguousarray(arr, dtype=dtype)
    if out is arr and out.flags.writeable:
        out = out.copy()
    out.flags.writeable = False
    return out


# Like every frozen type of the package that holds arrays, compared by
# identity (eq=False): a generated == would compare the arrays, whose truth
# value is ambiguous.
@dataclass(frozen=True, eq=False)
class SymbolSequence:
    """A finite sequence of symbol indices over a fixed alphabet."""

    alphabet: Alphabet
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        raw = np.asarray(self.data)
        if raw.size and raw.dtype.kind not in "iu":  # a cast would truncate 1.9 to 1
            raise InvalidSymbolError(f"symbol indices must be integers, not {raw.dtype}")
        arr = _frozen(raw, np.int64)
        if arr.ndim != 1:
            raise ValueError("sequence data must be one-dimensional")
        # both ends in one pass: read as uint64, a negative index is at least 2**63
        if arr.view(np.uint64).max(initial=0) >= self.alphabet.size:
            raise InvalidSymbolError("symbol index out of range for alphabet")
        object.__setattr__(self, "data", arr)

    def __len__(self) -> int:
        return int(self.data.size)

    @classmethod
    def from_string(cls, text: str, alphabet: Alphabet | None = None) -> "SymbolSequence":
        """`text`'s characters as symbols of `alphabet`, by default of the alphabet of its
        distinct characters (Alphabet.from_text)."""
        points = _code_points(text)
        if alphabet is None:
            alphabet = Alphabet(_symbols(points))
        codes = [ord(s) for s in alphabet.symbols]
        if points.dtype == np.uint8 and alphabet.size < 255:
            # each byte's symbol index through one 256-entry table, 255 (above every
            # index) for a byte outside the alphabet
            table = bytearray(b"\xff" * 256)
            for i, c in enumerate(codes):
                if c < 256:
                    table[c] = i
            indices = points.tobytes().translate(table)
            first = indices.find(255)
            data = np.frombuffer(indices, dtype=np.uint8).astype(np.int64)
        else:
            # each code point's symbol index, -1 for a character outside the alphabet
            lookup = np.full(max(max(codes), int(points.max(initial=0))) + 1, -1, dtype=np.int64)
            lookup[codes] = np.arange(alphabet.size)
            data = lookup[points]
            unknown = data < 0
            first = int(np.argmax(unknown)) if unknown.any() else -1
        if first >= 0:
            raise InvalidSymbolError(f"unknown symbol {text[first]!r}")
        data.flags.writeable = False  # fresh, so _frozen need not copy it
        return cls(alphabet, data)

    def to_string(self) -> str:
        """The symbols joined, through one gather of their code points (a lone
        surrogate included)."""
        codes = np.array([ord(s) for s in self.alphabet.symbols], dtype="<u4")
        return codes[self.data].tobytes().decode("utf-32-le", "surrogatepass")


def _check_integer(value, name: str, least: int) -> None:
    """A one-line ValueError naming the argument unless it is one integer >= least."""
    if not isinstance(value, (int, np.integer)) or value < least:
        shown = (f"an array of shape {np.shape(value)}" if np.ndim(value)
                 else repr(value.item() if isinstance(value, np.generic) else value))
        raise ValueError(f"{name} must be one integer >= {least}, not {shown}")


def _check_shape(kind: str, shape: tuple, order, alphabet: Alphabet) -> None:
    """A one-line ShapeMismatchError unless `shape` is (A**k, A) or a (G, A**k, A) stack,
    at one integer order k >= 0 (_check_integer): the shape rule of every table type."""
    _check_integer(order, "order k", 0)
    expected = (alphabet.size**order, alphabet.size)
    if len(shape) not in (2, 3) or shape[-2:] != expected:
        raise ShapeMismatchError(f"{kind} shape {shape}, expected {expected} "
                                 f"or a stack (G, {expected[0]}, {expected[1]})")


def check_table_size(alphabet: Alphabet, k: int) -> None:
    """Reject orders whose dense (A**k, A) table would exceed TABLE_CAP entries.  k may be
    -1: word_distribution sizes its length-L table as order L - 1's."""
    _check_integer(k, "order k", -1)
    if alphabet.size ** (k + 1) > TABLE_CAP:
        raise TableTooLargeError(
            f"order k={k} over {alphabet.size} symbols needs "
            f"{alphabet.size ** (k + 1)} entries (cap {TABLE_CAP})"
        )


def word_strings(k: int, alphabet: Alphabet) -> list[str]:
    """Every length-k word as a string, listed in code order: a word's index
    is its base-A code, earliest symbol most significant."""
    _check_integer(k, "order k", 0)
    words = [""]
    for _ in range(k):
        words = [w + s for w in words for s in alphabet.symbols]
    return words


@dataclass(frozen=True, eq=False)
class _Table:
    """A dense (A**k, A) table over (word, next symbol) pairs, or a
    (G, A**k, A) stack of G such tables, whose totals then have one value per
    table.  Every entry must be finite; a subclass names its `_kind` and checks
    its other constraints on the least entry in `_check`."""

    order: int
    alphabet: Alphabet
    table: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.table, dtype=float)
        _check_shape(f"{self._kind} table", arr.shape, self.order, self.alphabet)
        if arr.size:  # a (0, A**k, A) stack has no entries to check
            # a NaN anywhere is the min's and the max's, an infinity one of them
            least, greatest = arr.min(), arr.max()
            if not (math.isfinite(least) and math.isfinite(greatest)):
                raise ValueError(f"{self._kind} table entries must be finite")
            self._check(least)
        object.__setattr__(self, "table", _frozen(arr))

    @functools.cached_property
    def word_totals(self) -> np.ndarray:
        """Each word's total over its next symbols: n(word) or alpha(word),
        added once per table and read-only."""
        totals = _row_sum(self.table)
        totals.flags.writeable = False  # fresh, so _frozen need not copy it
        return _frozen(totals)

    @functools.cached_property
    def total(self):
        """The sum over all (word, symbol) entries: n or alpha_k, added once per table."""
        total = _per_table(_table_sum(self.table))
        if np.ndim(total):  # a stack's, one value per table, read-only
            total.flags.writeable = False
        return total


class CountTable(_Table):
    """Counts n(word, next symbol), dense over all A**k words.

    Entries are nonnegative reals so that exact average counts
    (N - k) * p(word, symbol) share one representation with integer
    empirical counts.
    """

    _kind = "count"

    @staticmethod
    def _check(least):
        if least < 0:
            raise ValueError("counts must be nonnegative")


class HyperTable(_Table):
    """Dirichlet parameters alpha(word, next symbol), all strictly positive:
    a prior's hyperparameters, or a posterior's counts + hyperparameters."""

    _kind = "hyper"

    @staticmethod
    def _check(least):
        if least <= 0:
            raise ValueError("hyperparameters must be strictly positive")

    @functools.cached_property
    def _prior_terms(self) -> tuple:
        """This prior's share of the energy moments and the entropy rate of one table: the
        posterior wherever the counts are zero.  Returns (entries, words, moments, rate):
        the sorted distinct entries and word totals; per moment, its _moment_terms at
        each, from one call on both, and sum_w f(alpha(w)) - sum_(w,s) f(alpha) over the
        whole table, the distinct values' terms times their counts; and
        sum_w sum_s alpha log2(alpha / alpha(w)).  Every array is read-only."""
        (entries, per_entry), (words, per_word) = (np.unique(x, return_counts=True)
                                                   for x in (self.table, self.word_totals))
        moments = []
        for m in _moment_terms(np.concatenate([entries, words])):
            at_entries, at_words = np.split(m, [entries.size])
            moments.append((at_entries, at_words,
                            np.sum(per_word * at_words) - np.sum(per_entry * at_entries)))
        for fresh in (entries, words, *(a for m in moments for a in m[:2])):
            fresh.flags.writeable = False  # fresh, so no other view can write it
        return entries, words, tuple(moments), float(_row_rates(self.table, self.word_totals).sum())


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
    _check_integer(k, "order k", 1)
    A = seq.alphabet.size
    check_table_size(seq.alphabet, k)
    n = len(seq)
    if n < k + 1:
        raise ValueError(f"sequence of length {n} too short for order k={k}")
    # Each window's combined (word, symbol) code, by doubling: the codes of the windows
    # of length 2L combine those of length L, and a set bit of k + 1 appends one
    # symbol.  Codes stay below A**(k + 1) <= TABLE_CAP < 2**31, so int32 holds them.
    symbols = seq.data.astype(np.int32)
    codes, length = symbols, 1
    for bit in bin(k + 1)[3:]:
        codes = codes[:-length] * A**length + codes[length:]
        length *= 2
        if bit == "1":
            codes = codes[:-1] * A + symbols[length:]
            length += 1
    table = np.bincount(codes, minlength=A ** (k + 1)).astype(float).reshape(A**k, A)
    table.flags.writeable = False  # fresh, so _frozen need not copy it
    return CountTable(k, seq.alphabet, table)


def prefix_counts(seq: SymbolSequence, grid, k_min: int, K: int,
                  counted: CountTable | None = None) -> dict[int, CountTable]:
    """Each order k from k_min to K to its (G, A**k, A) stack of count_words(seq[:N], k)
    over the G sizes N of the ascending `grid`, bit for bit.  `counted`, an order-K table
    or stack of an earlier call on seq, carries its last table on, so each window is
    counted once, by count_words at order K.  Order k's windows are order k + 1's
    without their leading symbol, and the first window of length k + 1."""
    _check_integer(k_min, "order k", 1)
    _check_integer(K, "top order K", k_min)
    A, G = seq.alphabet.size, len(grid)
    _check_integer(G, "number of data sizes", 1)
    check_table_size(seq.alphabet, K)
    if counted is not None and (counted.order != K or counted.alphabet != seq.alphabet):
        raise ValueError(f"counted must be an order-{K} table over the sequence's alphabet")
    tops = np.empty((G, A**K, A))
    prev = np.zeros((A**K, A)) if counted is None else counted.table.reshape(-1, A**K, A)[-1]
    last = K + int(prev.sum())  # prev counts seq[:last], whose total is last - K
    for g, N in enumerate(grid):
        _check_integer(N, "data size N", last + 1)  # ascending, past the counted prefix
        if N > len(seq):
            raise ValueError(f"data size N={N} exceeds the sequence's {len(seq)} symbols")
        added = count_words(SymbolSequence(seq.alphabet, seq.data[last - K:N]), K)
        prev = np.add(prev, added.table, out=tops[g])
        last = N
    tops.flags.writeable = False  # fresh, so _frozen need not copy it
    stacks = {K: CountTable(K, seq.alphabet, tops)}
    for k in range(K - 1, k_min - 1, -1):
        lower = stacks[k + 1].table.reshape(G, A, A**k, A).sum(axis=1)
        lower[:, np.ravel_multi_index(seq.data[:k], [A] * k), seq.data[k]] += 1.0
        lower.flags.writeable = False  # fresh, so _frozen need not copy it
        stacks[k] = CountTable(k, seq.alphabet, lower)
    return stacks


def uniform_hyper(k: int, alphabet: Alphabet, value: float = 1.0) -> HyperTable:
    """All hyperparameters equal to `value`; value 1 is the flat prior."""
    _check_integer(k, "order k", 1)
    if not value > 0:
        raise ValueError("hyperparameter value must be positive")
    check_table_size(alphabet, k)
    A = alphabet.size
    table = np.full((A**k, A), float(value))
    table.flags.writeable = False  # fresh, so _frozen need not copy it
    return HyperTable(k, alphabet, table)


def hyper_from_fake_counts(fake: CountTable) -> HyperTable:
    """alpha(word, symbol) = fake_count + 1."""
    table = fake.table + 1.0
    table.flags.writeable = False  # fresh, so _frozen need not copy it
    return HyperTable(fake.order, fake.alphabet, table)


def read_sequence(path, alphabet: Alphabet | None = None,
                  column: str | None = None) -> SymbolSequence:
    """Read a symbol sequence from a text file (no separators; each line's
    leading and trailing whitespace is dropped, so the sequence may be
    wrapped) or, when `column` is given, from that column of a CSV file."""
    if column is None:
        with open(path, "rb") as fh:  # decoded once, dropping a leading byte-order mark
            text = fh.read().decode("utf-8-sig")
        # lines end at \n, \r\n or \r, as in text mode (str.splitlines ends them at more);
        # a \r\n leaves an empty line between its two ends, which strips to nothing
        text = "".join(map(str.strip, text.replace("\r", "\n").split("\n")))
    else:
        import csv  # here, so that importing the package does not load it
        with open(path, "r", encoding="utf-8-sig") as fh:  # drops a leading byte-order mark
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
