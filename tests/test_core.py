import numpy as np
import pytest
from hypothesis import given, strategies as st

from bayesmc import (
    Alphabet,
    CountTable,
    SymbolSequence,
    count_words,
    hyper_from_fake_counts,
    read_sequence,
    uniform_hyper,
    word_strings,
)
from bayesmc.core import TableTooLargeError, check_table_size

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

    def test_from_text_sorted(self):
        assert Alphabet.from_text("bab ca").symbols == (" ", "a", "b", "c")


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

    def test_csv_column(self, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("id,sym\n0,01\n1,10\n")
        seq = read_sequence(path, column="sym")
        assert seq.to_string() == "0110"

    def test_missing_column(self, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("id,sym\n0,01\n")
        with pytest.raises(ValueError):
            read_sequence(path, column="nope")
