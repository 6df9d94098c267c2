import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bayesmc import (
    Alphabet,
    CountTable,
    HyperTable,
    LabeledHMM,
    SymbolSequence,
    WordConditional,
    count_words,
    golden_mean,
    hyper_from_fake_counts,
    log_evidence,
    lower_order_counts,
    markov_approximation,
    r_from,
    read_sequence,
    sample_sequence,
    uniform_hyper,
    word_strings,
)
import bayesmc.core
import bayesmc.entropy
import bayesmc.processes
from bayesmc.core import (InvalidSymbolError, ShapeMismatchError, TableTooLargeError,
                          check_table_size, write_sequence)
from bayesmc.special import _row_sum, _table_sum

from util import window_count_oracle

BINARY = Alphabet.binary()
TERNARY = Alphabet(("0", "1", "2"))


class TestAlphabet:
    def test_too_small(self):
        with pytest.raises(ValueError):
            Alphabet(("0",))

    def test_duplicates(self):
        with pytest.raises(ValueError):
            Alphabet(("0", "0"))

    @pytest.mark.parametrize("symbols", [("ab", "c"), ("0", ""), (0, 1)])
    def test_symbols_are_single_characters(self, symbols):
        with pytest.raises(ValueError, match="single characters"):
            Alphabet(symbols)

    def test_from_text_sorted(self):
        assert Alphabet.from_text("bab ca").symbols == (" ", "a", "b", "c")
        # by code point, astral-plane symbols and a lone surrogate included
        text = "b\U0001F600a\ud800\u00e9b\U0001F600"
        assert Alphabet.from_text(text).symbols == tuple(sorted(set(text)))


class TestWordEncoding:
    def test_binary_01(self):
        assert word_strings(2, BINARY) == ["00", "01", "10", "11"]

    def test_empty(self):
        assert word_strings(0, BINARY) == [""]

    def test_ternary_21(self):
        assert word_strings(2, TERNARY)[7] == "21"

    def test_out_of_range(self):
        # a symbol outside the alphabet is in no word
        assert not any("2" in w for k in range(4) for w in word_strings(k, BINARY))

    @pytest.mark.parametrize("alphabet", [BINARY, TERNARY])
    def test_round_trip_all_words(self, alphabet):
        A = alphabet.size
        for k in range(7):
            words = word_strings(k, alphabet)
            assert len(words) == A**k
            for code, word in enumerate(words):
                # base-A digits of the code, earliest symbol most significant
                digits = [code // A ** (k - 1 - i) % A for i in range(k)]
                assert word == "".join(alphabet.symbols[d] for d in digits)


@st.composite
def windowed_sequences(draw):
    """(A, k, symbols): 2-5 symbols, every order k whose table holds at most 2**12 entries,
    and k+1 to 200 symbols as int64 or int32."""
    A = draw(st.integers(2, 5))
    k = draw(st.integers(1, max(k for k in range(1, 12) if A ** (k + 1) <= 2**12)))
    n = draw(st.integers(k + 1, 200))
    symbols = draw(st.lists(st.integers(0, A - 1), min_size=n, max_size=n))
    return A, k, np.array(symbols, dtype=draw(st.sampled_from([np.int64, np.int32])))


class TestCountWords:
    def test_0110_k1(self):
        seq = SymbolSequence.from_string("0110", BINARY)
        table = count_words(seq, 1).table
        assert table[0, 0] == 0 and table[0, 1] == 1  # 00, 01
        assert table[1, 0] == 1 and table[1, 1] == 1  # 10, 11

    def test_0101_k2(self):
        seq = SymbolSequence.from_string("0101", BINARY)
        table = count_words(seq, 2).table.ravel()
        expected = np.zeros(8)
        expected[0b010] = 1
        expected[0b101] = 1
        np.testing.assert_array_equal(table, expected)

    def test_too_short(self):
        with pytest.raises(ValueError):
            count_words(SymbolSequence.from_string("01", BINARY), 2)

    def test_table_cap(self):
        with pytest.raises(TableTooLargeError):
            check_table_size(BINARY, 30)
        with pytest.raises(TableTooLargeError):
            count_words(SymbolSequence.from_string("0" * 40 + "1", BINARY), 30)

    @given(st.lists(st.integers(0, 1), min_size=3, max_size=60), st.integers(1, 2))
    def test_total_mass_and_marginals(self, bits, k):
        seq = SymbolSequence(BINARY, np.array(bits))
        ct = count_words(seq, k)
        assert ct.total == len(bits) - k
        np.testing.assert_array_equal(ct.word_totals, ct.table.sum(axis=1))

    @given(st.lists(st.integers(0, 1), min_size=2, max_size=30),
           st.lists(st.integers(0, 1), min_size=2, max_size=30))
    def test_concatenation_vs_window_oracle(self, a, b):
        k = 1
        joined = a + b
        ct = count_words(SymbolSequence(BINARY, np.array(joined)), k)
        oracle = window_count_oracle(joined, k)
        for (w, s), n in oracle.items():
            assert ct.table[w, s] == n
        assert ct.total == sum(oracle.values())
        # concatenation adds only the k boundary windows to the two halves
        na = count_words(SymbolSequence(BINARY, np.array(a)), k).total
        nb = count_words(SymbolSequence(BINARY, np.array(b)), k).total
        assert ct.total == na + nb + k

    # one window whose length k + 1 is a power of two (8, 4) or the largest binary order's
    # (12: a doubling, an appended symbol and two more doublings), and 199 windows of two
    # symbols
    @given(windowed_sequences())
    @example((2, 7, np.array([1, 0, 1, 1, 0, 0, 1, 1], dtype=np.int32)))
    @example((3, 3, np.array([2, 0, 1, 2], dtype=np.int32)))
    @example((2, 11, np.arange(12, dtype=np.int32) % 2))
    @example((5, 1, np.arange(200) % 5))
    def test_every_window_vs_window_oracle(self, case):
        A, k, symbols = case
        table = count_words(SymbolSequence(Alphabet(tuple("01234"[:A])), symbols), k).table
        expected = np.zeros(A ** (k + 1))
        for window, n in window_count_oracle(symbols.tolist(), k).items():
            expected[functools.reduce(lambda code, s: code * A + s, window, 0)] = n
        np.testing.assert_array_equal(table.ravel(), expected)


class TestLowerOrderCounts:
    @settings(deadline=None)
    @given(st.data())
    def test_equals_count_words(self, data):
        A = data.draw(st.integers(2, 4), label="A")
        k_max = data.draw(st.integers(1, 8), label="k_max")
        symbols = data.draw(st.lists(st.integers(0, A - 1), min_size=k_max + 1,
                                     max_size=k_max + 200), label="symbols")
        seq = SymbolSequence(Alphabet(tuple("abcd"[:A])), np.array(symbols))
        top = count_words(seq, k_max)
        head = SymbolSequence(seq.alphabet, seq.data[:k_max])
        derived = top
        for k in range(k_max - 1, 0, -1):
            # from the top order, and step by step from order k + 1 with one head window
            for above in (top, derived):
                prefix = SymbolSequence(seq.alphabet, head.data[:above.order])
                derived = lower_order_counts(above, count_words(prefix, k))
                assert derived.order == k
                np.testing.assert_array_equal(derived.table, count_words(seq, k).table)

    def test_order_above_top(self):
        seq = SymbolSequence.from_string("0110", BINARY)
        with pytest.raises(ValueError):
            lower_order_counts(count_words(seq, 1), count_words(seq, 2))

    def test_alphabets_must_match(self):
        seq = SymbolSequence.from_string("0110", BINARY)
        other = SymbolSequence.from_string("0110", TERNARY)
        with pytest.raises(ShapeMismatchError):
            lower_order_counts(count_words(seq, 2), count_words(other, 1))

    def test_head_must_be_the_first_window_table(self):
        # the head is count_words(seq[:K], k): one table of total K - k.  The head of
        # seq[:50] gave a 200-symbol sequence's order-1 table a total of 246, not 199
        seq = sample_sequence(golden_mean(), 200, 3)
        top = count_words(seq, 3)
        assert lower_order_counts(top, count_words(SymbolSequence(BINARY, seq.data[:3]), 1)
                                  ).total == 199
        for head in (count_words(SymbolSequence(BINARY, seq.data[:50]), 1),
                     CountTable(1, BINARY, np.zeros((2, 2))),
                     CountTable(1, BINARY, np.ones((3, 2, 2)) / 2)):  # a stack, each of total 2
            with pytest.raises(ValueError, match=r"^head must be count_words\(seq\[:3\], 1\), "
                                                 r"one table of total 2$"):
                lower_order_counts(top, head)


class TestHyperTables:
    def test_uniform_binary_k1(self):
        h = uniform_hyper(1, BINARY, 1.0)
        np.testing.assert_array_equal(h.table, np.ones((2, 2)))
        np.testing.assert_array_equal(h.word_totals, [2.0, 2.0])
        assert h.total == 4.0

    def test_uniform_binary_k2_sums(self):
        h = uniform_hyper(2, BINARY, 1.0)
        np.testing.assert_array_equal(h.word_totals, np.full(4, 2.0))
        assert h.total == 8.0

    def test_nonpositive_value(self):
        with pytest.raises(ValueError):
            uniform_hyper(1, BINARY, 0.0)
        with pytest.raises(ValueError):
            HyperTable(1, BINARY, [[1, 0], [1, 1]])

    def test_fake_counts_zero_is_flat(self):
        fake = CountTable(1, BINARY, np.zeros((2, 2)))
        np.testing.assert_array_equal(
            hyper_from_fake_counts(fake).table, uniform_hyper(1, BINARY, 1.0).table
        )

    def test_fake_counts_offset(self):
        fake = CountTable(1, BINARY, np.array([[0.0, 3.0], [0.0, 0.0]]))
        np.testing.assert_array_equal(
            hyper_from_fake_counts(fake).table, [[1.0, 4.0], [1.0, 1.0]]
        )

    def test_fake_counts_negative(self):
        with pytest.raises(ValueError):
            CountTable(1, BINARY, np.array([[0.0, -1.0], [0.0, 0.0]]))


class TestTableBase:
    def test_kinds_of_one_array_compare_unequal(self):
        # compared by identity, so two equal-valued tables compare unequal
        # instead of raising on their arrays' ambiguous truth value
        table = np.ones((2, 2))
        count = CountTable(1, BINARY, table)
        assert count == count and count != CountTable(1, BINARY, table.copy())
        assert count != HyperTable(1, BINARY, table)

    @pytest.mark.parametrize("kind, name", [(CountTable, "count"), (HyperTable, "hyper")])
    def test_bad_shape_names_its_kind(self, kind, name):
        with pytest.raises(ShapeMismatchError,
                           match=rf"^{name} table shape \(3, 2\), expected \(2, 2\)"):
            kind(1, BINARY, np.ones((3, 2)))

    @pytest.mark.parametrize("kind, name", [(CountTable, "count"), (HyperTable, "hyper")])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("shape", [(2, 2), (3, 2, 2)])
    def test_rejects_non_finite_entries(self, kind, name, value, shape):
        # a NaN passes both `< 0` and `<= 0` and would read as a count of 0
        table = np.ones(shape)
        table[..., 1, 0] = value
        with pytest.raises(ValueError, match=rf"^{name} table entries must be finite"):
            kind(1, BINARY, table)

    @pytest.mark.parametrize("kind, entries, message", [
        (CountTable, (1.0, -1e-300), "counts must be nonnegative"),
        (HyperTable, (1.0, 0.0), "hyperparameters must be strictly positive"),
        (HyperTable, (1.0, -0.0), "hyperparameters must be strictly positive"),
        # a non-finite entry is named before a negative one
        (CountTable, (-1.0, math.nan), "count table entries must be finite"),
        (HyperTable, (-1.0, -math.inf), "hyper table entries must be finite")])
    @pytest.mark.parametrize("shape", [(2, 2), (3, 2, 2)])
    def test_rejects_an_entry_out_of_range(self, kind, entries, message, shape):
        table = np.ones(shape)
        table[..., 0, 0], table[..., 1, 1] = entries
        with pytest.raises(ValueError, match=rf"^{message}$"):
            kind(1, BINARY, table)

    def test_negative_zero_is_a_count_of_zero(self):
        assert CountTable(1, BINARY, np.array([[-0.0, 1.0], [2.0, 3.0]])).total == 6.0

    @pytest.mark.parametrize("kind", [CountTable, HyperTable])
    def test_empty_stack_accepted(self, kind):
        # a stack of no tables has no entries to check, nor a least one, and no totals
        stack = kind(2, BINARY, np.empty((0, 4, 2)))
        assert stack.table.shape == (0, 4, 2) and stack.word_totals.shape == (0, 4)
        assert stack.total.shape == (0,)
        counts = CountTable(2, BINARY, stack.table)
        assert log_evidence(counts, uniform_hyper(2, BINARY, 1.0)).shape == (0,)

    @pytest.mark.parametrize("kind", [CountTable, HyperTable])
    def test_total_float_for_a_table_array_for_a_stack(self, kind):
        assert type(kind(1, BINARY, np.ones((2, 2))).total) is float
        stack = kind(1, BINARY, np.ones((3, 2, 2)))
        assert isinstance(stack.total, np.ndarray) and stack.total.tolist() == [4.0] * 3
        assert stack.word_totals.tolist() == [[2.0, 2.0]] * 3

    @pytest.mark.parametrize("kind", [CountTable, HyperTable])
    def test_table_read_only(self, kind):
        t = kind(1, BINARY, np.asfortranarray([[1.0, 2.0], [3.0, 4.0]])).table
        assert not t.flags.writeable and t.flags.c_contiguous
        with pytest.raises(ValueError):
            t[0, 0] = 5.0

    @pytest.mark.parametrize("kind", [CountTable, HyperTable])
    @pytest.mark.parametrize("shape", [(9, 3), (4, 9, 3)])
    def test_word_totals_added_once_read_only(self, kind, shape):
        table = kind(2, TERNARY, np.random.default_rng(3).uniform(0.1, 1e6, size=shape))
        totals = table.word_totals
        assert table.word_totals is totals
        assert not totals.flags.writeable
        with pytest.raises(ValueError):
            totals[..., 0] = 5.0
        assert ([v.hex() for v in totals.ravel().tolist()]
                == [v.hex() for v in _row_sum(table.table).ravel().tolist()])

    @pytest.mark.parametrize("kind", [CountTable, HyperTable])
    @pytest.mark.parametrize("shape", [(9, 3), (4, 9, 3)])
    def test_total_added_once_read_only(self, kind, shape):
        table = kind(2, TERNARY, np.random.default_rng(3).uniform(0.1, 1e6, size=shape))
        total = table.total
        assert table.total is total
        if len(shape) == 3:
            assert not total.flags.writeable
            with pytest.raises(ValueError):
                total[0] = 5.0
        assert np.asarray(total).tobytes() == _table_sum(table.table).tobytes()


#: Each frozen type that holds an array: built from one array argument, an
#: example argument and the field that keeps the array.
FROZEN_KINDS = {
    "CountTable": (lambda a: CountTable(1, BINARY, a), np.ones((2, 2)), "table"),
    "HyperTable": (lambda a: HyperTable(1, BINARY, a), np.ones((2, 2)), "table"),
    "SymbolSequence": (lambda a: SymbolSequence(BINARY, a), np.array([0, 1, 1, 0]), "data"),
    "LabeledHMM": (lambda a: LabeledHMM(BINARY, a), golden_mean().matrices.copy(), "matrices"),
    "WordConditional": (lambda a: WordConditional(1, BINARY, np.array([0.5, 0.5]), a),
                        np.full((2, 2), 0.5), "cond_probs"),
}


@pytest.mark.parametrize("kind", sorted(FROZEN_KINDS))
class TestFrozenArrays:
    def test_view_of_a_writeable_array_is_copied(self, kind):
        make, arr, name = FROZEN_KINDS[kind]
        x = np.stack([arr, arr])
        kept = getattr(make(x[0]), name)
        x[0] += 1
        np.testing.assert_array_equal(kept, arr)
        assert not kept.flags.writeable

    def test_callers_array_stays_writeable(self, kind):
        make, arr, _ = FROZEN_KINDS[kind]
        mine = arr.copy()
        make(mine)
        mine += 1  # not made read-only behind the caller's back

    def test_equal_values_compare_without_raising(self, kind):
        make, arr, _ = FROZEN_KINDS[kind]
        one = make(arr.copy())
        assert one == one and one != make(arr.copy())


def test_fresh_arrays_frozen_as_they_are(monkeypatch):
    # the priors and the mean and Markov-approximation distributions are arrays their
    # functions make, marked read-only before they are wrapped: _frozen copies none
    hmm, fake = golden_mean(), np.zeros((2, 2))
    fake.flags.writeable = False
    frozen, copied = bayesmc.core._frozen, []

    def counted(arr, dtype=float):
        out = frozen(arr, dtype)
        if isinstance(arr, np.ndarray) and out.dtype == arr.dtype and out is not arr:
            copied.append(arr.shape)
        return out

    for module in (bayesmc.core, bayesmc.entropy, bayesmc.processes):
        monkeypatch.setattr(module, "_frozen", counted)
    prior = uniform_hyper(2, BINARY, 0.5)
    hyper_from_fake_counts(CountTable(1, BINARY, fake))
    r_from(prior)
    markov_approximation(hmm, 2)
    assert copied == []


#: Characters an alphabet may hold: ASCII, the rest of Latin-1 (both read a byte each), the
#: rest of the basic plane and the astral planes.
symbol_chars = st.one_of(st.characters(max_codepoint=0x7F),
                         st.characters(min_codepoint=0x80, max_codepoint=0xFF),
                         st.characters(min_codepoint=0x100, max_codepoint=0xFFFF),
                         st.characters(min_codepoint=0x10000)
                         ).filter(lambda c: c not in ',"\n\r')
#: A small alphabet, and one of 300 symbols whose Latin-1 ones have indices past a byte's.
LATIN1_ASTRAL = Alphabet(("0", "1", "\xe9", "\U0001f600"))
WIDE = Alphabet(tuple(map(chr, range(0x100, 0x100 + 296))) + LATIN1_ASTRAL.symbols)


class TestFromString:
    @given(st.lists(symbol_chars, min_size=2, max_size=8, unique=True), st.data())
    def test_matches_per_character_oracle(self, chars, data):
        # the alphabet, in drawn (not code-point) order, leaves out the characters after `cut`
        cut = data.draw(st.integers(2, len(chars)), label="cut")
        alphabet = Alphabet(tuple(chars[:cut]))
        text = "".join(data.draw(st.lists(st.sampled_from(chars), max_size=50), label="text"))
        unknown = [c for c in text if c not in alphabet.symbols]
        if unknown:
            with pytest.raises(InvalidSymbolError) as err:
                SymbolSequence.from_string(text, alphabet)
            assert str(err.value) == f"unknown symbol {unknown[0]!r}"
        else:
            seq = SymbolSequence.from_string(text, alphabet)
            assert seq.data.tolist() == [alphabet.symbols.index(c) for c in text]

    def test_first_unknown_named(self):
        with pytest.raises(InvalidSymbolError, match="^unknown symbol 'z'$"):
            SymbolSequence.from_string("01z2y", TERNARY)

    # Latin-1 text reads a byte per character, other text a uint32 code point each
    @pytest.mark.parametrize("text, dtype", [("0\xe91\xe9", np.uint8),
                                             ("0\xe91\U0001f600\xe9", np.uint32)])
    def test_latin1_symbols_on_either_dtype(self, text, dtype):
        assert bayesmc.core._code_points(text).dtype == dtype
        seq = SymbolSequence.from_string(text)
        assert seq.alphabet == Alphabet.from_text(text)
        assert seq.alphabet.symbols == tuple(sorted(set(text)))
        assert seq.data.tolist() == [seq.alphabet.symbols.index(c) for c in text]
        assert seq.to_string() == text

    @pytest.mark.parametrize("alphabet", [LATIN1_ASTRAL, WIDE])
    @pytest.mark.parametrize("text", ["\xe900\xe9", "\xe90\U0001f600"])
    def test_explicit_alphabet_with_absent_symbols(self, alphabet, text):
        seq = SymbolSequence.from_string(text, alphabet)
        assert seq.data.tolist() == [alphabet.symbols.index(c) for c in text]
        assert seq.to_string() == text

    @pytest.mark.parametrize("alphabet", [LATIN1_ASTRAL, WIDE])
    @pytest.mark.parametrize("text", ["0\xe91zy\xe9", "0\xe91zy\U0001f600"])
    def test_first_unknown_named_on_either_dtype(self, alphabet, text):
        with pytest.raises(InvalidSymbolError, match="^unknown symbol 'z'$"):
            SymbolSequence.from_string(text, alphabet)

    def test_data_read_only_int64(self):
        seq = SymbolSequence(BINARY, np.array([0, 1, 1], dtype=np.int32))
        assert seq.data.dtype == np.int64 and not seq.data.flags.writeable
        with pytest.raises(ValueError):
            seq.data[0] = 1

    @pytest.mark.parametrize("index", [2, -1, -2**63, 2**63 - 1])
    def test_index_out_of_range(self, index):
        with pytest.raises(InvalidSymbolError, match="^symbol index out of range for alphabet$"):
            SymbolSequence(BINARY, np.array([0, 1, index], dtype=np.int64))
        assert len(SymbolSequence(BINARY, np.array([], dtype=np.int64))) == 0

    def test_lone_surrogate_symbol(self):
        alphabet = Alphabet(("a", "\ud800"))
        seq = SymbolSequence.from_string("a\ud800a", alphabet)
        assert seq.data.tolist() == [0, 1, 0] and seq.to_string() == "a\ud800a"


class TestSequenceIO:
    def test_text_round_trip(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("011010\n")
        seq = read_sequence(path)
        assert seq.to_string() == "011010"
        assert seq.alphabet.symbols == ("0", "1")

    def test_explicit_alphabet(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("aab\n")
        seq = read_sequence(path, alphabet=Alphabet(("a", "b", "c")))
        assert list(seq.data) == [0, 0, 1]

    @pytest.mark.parametrize("text", ["0\xe91", "0\xe91\U0001f600"])
    def test_byte_order_mark_led_file_on_either_dtype(self, text, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("\ufeff" + text + "\n", encoding="utf-8")
        seq = read_sequence(path)
        assert seq.alphabet.symbols == tuple(sorted(text)) and seq.to_string() == text
        write_sequence(path, seq)
        assert read_sequence(path, alphabet=seq.alphabet).data.tolist() == seq.data.tolist()

    def test_csv_column(self, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("id,sym\n0,01\n1,10\n")
        seq = read_sequence(path, column="sym")
        assert seq.to_string() == "0110"

    def test_csv_short_row(self, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("id,sym\n0,01\n1\n2,10\n")
        assert read_sequence(path, column="sym").to_string() == "0110"

    @pytest.mark.parametrize("column", [None, "sym"])
    def test_only_a_leading_byte_order_mark_is_dropped(self, column, tmp_path):
        # U+FEFF opening the file is its byte-order mark; anywhere else it is a symbol
        path = tmp_path / "seq.txt"
        body = "0\ufeff1\n" if column is None else "sym,id\n0\ufeff1,0\n"
        for text in (body, "\ufeff" + body):
            path.write_text(text, encoding="utf-8")
            seq = read_sequence(path, column=column)
            assert seq.alphabet.symbols == ("0", "1", "\ufeff")
            assert seq.data.tolist() == [0, 2, 1]

    def test_missing_column(self, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("id,sym\n0,01\n")
        with pytest.raises(ValueError):
            read_sequence(path, column="nope")
