import csv
import hashlib
import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import bayesmc.cli
import bayesmc.core
from bayesmc.cli import main

from util import even_runs_ok


def run_cli(args):
    return main(list(args))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestInfer:
    def test_summary_and_density(self, tmp_path):
        assert run_cli(["infer", "--source", "golden_mean", "--n-start", "400",
                        "--k-min", "1", "--k-max", "1", "--out", str(tmp_path),
                        "--density-points", "16"]) == 0
        rows = read_csv(tmp_path / "infer_summary.csv")
        assert len(rows) == 4
        r = next(r for r in rows if r["word"] == "0" and r["symbol"] == "1")
        assert float(r["mean"]) > 0.99
        assert 0.0 <= float(r["ci_low"]) < float(r["ci_high"]) <= 1.0
        dens = read_csv(tmp_path / "infer_density.csv")
        assert len(dens) == 4 * 16
        assert {d["word"] for d in dens} == {"0", "1"}

    def test_json_mirror(self, tmp_path):
        run_cli(["infer", "--source", "golden_mean", "--n-start", "100",
                 "--out", str(tmp_path), "--format", "json",
                 "--density-points", "4"])
        data = json.loads((tmp_path / "infer_summary.json").read_text())
        assert len(data) == 4
        assert all("mean" in row for row in data)

    def test_from_sequence_file(self, tmp_path):
        seq = tmp_path / "seq.txt"
        seq.write_text("0110110101101101" * 50 + "\n")
        assert run_cli(["infer", "--input", str(seq), "--n-start", "800",
                        "--out", str(tmp_path), "--density-points", "4"]) == 0
        rows = read_csv(tmp_path / "infer_summary.csv")
        assert len(rows) == 4

    def test_wrapped_sequence_file(self, tmp_path):
        text = "0110110101101101" * 50
        one, wrapped = tmp_path / "one.txt", tmp_path / "wrapped.txt"
        one.write_text(text + "\n")
        # 10-symbol lines, Unix and Windows line breaks mixed
        lines = [text[i:i + 10] for i in range(0, len(text), 10)]
        wrapped.write_bytes("".join(line + ("\r\n" if i % 2 else "\n")
                                    for i, line in enumerate(lines)).encode())
        for path in (one, wrapped):
            assert run_cli(["infer", "--input", str(path), "--n-start", "800",
                            "--out", str(tmp_path / path.stem), "--density-points", "4"]) == 0
        assert _digests(tmp_path / "one") == _digests(tmp_path / "wrapped")

    def test_fake_counts_prior(self, tmp_path):
        fake = tmp_path / "fake.csv"
        fake.write_text("word,symbol,count\n0,1,3\n")
        assert run_cli(["infer", "--source", "golden_mean", "--n-start", "100",
                        "--fake-counts", str(fake), "--out", str(tmp_path),
                        "--density-points", "4"]) == 0
        rows = read_csv(tmp_path / "infer_summary.csv")
        r = next(r for r in rows if r["word"] == "0" and r["symbol"] == "1")
        assert float(r["alpha"]) == 4.0

    def test_fake_counts_span_orders(self, tmp_path):
        fake = tmp_path / "fake.csv"
        fake.write_text("word,symbol,count\n0,1,3\n01,1,3\n")
        assert run_cli(["infer", "--source", "golden_mean", "--n-start", "100",
                        "--k-max", "2", "--fake-counts", str(fake), "--out", str(tmp_path),
                        "--density-points", "4"]) == 0
        alphas = {(r["k"], r["word"], r["symbol"]): float(r["alpha"])
                  for r in read_csv(tmp_path / "infer_summary.csv")}
        assert alphas[("1", "0", "1")] == 4.0 and alphas[("2", "01", "1")] == 4.0
        assert list(alphas.values()).count(4.0) == 2

    def test_streams_rows_in_bounded_memory(self, tmp_path):
        # 16,384 density rows: holding them all until the end peaked at
        # 8.1 MiB; written as they arrive, one (N, k) point's arrays remain.
        tracemalloc.start()
        try:
            assert run_cli(["infer", "--source", "even", "--n-start", "1000", "--k-min", "2",
                            "--k-max", "2", "--density-points", "2048", "--jobs", "1",
                            "--out", str(tmp_path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(read_csv(tmp_path / "infer_density.csv")) == 16_384
        assert peak < 2 * 2**20


class TestCompare:
    def test_columns_and_normalization(self, tmp_path):
        assert run_cli(["compare", "--source", "golden_mean", "--n-start", "200",
                        "--n-stop", "400", "--n-step", "100",
                        "--k-min", "1", "--k-max", "3", "--jobs", "1",
                        "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "compare.csv")
        assert [r["k"] for r in rows[:3]] == ["1", "2", "3"]
        for N in ("200", "300", "400"):
            block = [r for r in rows if r["N"] == N]
            assert sum(float(r["prob_uniform"]) for r in block) == pytest.approx(1.0, abs=1e-9)
            assert sum(float(r["prob_penalized"]) for r in block) == pytest.approx(1.0, abs=1e-9)

    def test_jobs_deterministic(self, tmp_path):
        common = ["compare", "--source", "even", "--n-start", "100",
                  "--n-stop", "300", "--n-step", "50", "--k-min", "1",
                  "--k-max", "2"]
        run_cli(common + ["--jobs", "1", "--out", str(tmp_path / "a")])
        run_cli(common + ["--jobs", "4", "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "compare.csv").read_text() == \
               (tmp_path / "b" / "compare.csv").read_text()


class TestEntropy:
    def test_columns(self, tmp_path):
        assert run_cli(["entropy", "--source", "golden_mean", "--n-start", "1000",
                        "--k-min", "1", "--k-max", "2", "--jobs", "1",
                        "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "entropy.csv")
        assert len(rows) == 2
        r1 = rows[0]
        assert float(r1["beta_k"]) == pytest.approx(1003.0)
        assert float(r1["truth_bits"]) == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert float(r1["energy_mean_bits"]) > float(r1["truth_bits"])
        # the prior smooths the forbidden transition, so KL vs truth is inf
        assert r1["kl_bits_if_truth_known"] == "inf"

    def test_sns_truth_constant(self, tmp_path):
        run_cli(["entropy", "--source", "sns", "--n-start", "500",
                 "--jobs", "1", "--out", str(tmp_path)])
        rows = read_csv(tmp_path / "entropy.csv")
        assert float(rows[0]["truth_bits"]) == pytest.approx(0.677867)

    def test_sns_truth_only_for_the_builtin(self, tmp_path):
        # a nondeterministic process read from a file has no known rate,
        # whatever name its JSON gives it
        matrices = bayesmc.processes.sns().matrices.tolist()
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"alphabet": ["0", "1"], "name": "sns",
                                    "matrices": {"0": matrices[0], "1": matrices[1]}}))
        assert run_cli(["entropy", "--source", str(path), "--n-start", "500",
                        "--jobs", "1", "--out", str(tmp_path / "out")]) == 0
        rows = read_csv(tmp_path / "out" / "entropy.csv")
        assert rows[0]["truth_bits"] == ""
        assert rows[0]["kl_bits_if_truth_known"] != ""

    def test_twelve_digit_format(self, tmp_path):
        run_cli(["entropy", "--source", "golden_mean", "--n-start", "777",
                 "--jobs", "1", "--out", str(tmp_path)])
        text = (tmp_path / "entropy.csv").read_text()
        val = text.splitlines()[1].split(",")[3]
        assert len(val.replace(".", "").replace("-", "").lstrip("0")) >= 10


class TestSimulate:
    def test_writes_sequence(self, tmp_path):
        assert run_cli(["simulate", "--source", "even", "--n-start", "5000",
                        "--seed", "7", "--out", str(tmp_path)]) == 0
        text = (tmp_path / "sequence.txt").read_text().strip()
        assert len(text) == 5000
        assert even_runs_ok(text)

    def test_requires_seed(self, tmp_path, capsys):
        assert run_cli(["simulate", "--source", "even", "--n-start", "100",
                        "--out", str(tmp_path)]) == 2

    def test_custom_hmm_json(self, tmp_path):
        spec = {"alphabet": ["0", "1"],
                "matrices": {"0": [[0.0, 0.5], [0.0, 0.0]],
                             "1": [[0.5, 0.0], [1.0, 0.0]]}}
        path = tmp_path / "gm.json"
        path.write_text(json.dumps(spec))
        assert run_cli(["simulate", "--source", str(path), "--n-start", "2000",
                        "--seed", "3", "--out", str(tmp_path)]) == 0
        assert "00" not in (tmp_path / "sequence.txt").read_text()


class TestReproduce:
    def test_bundle_dir_and_grid(self, tmp_path):
        assert run_cli(["reproduce", "--figure", "2", "--out", str(tmp_path),
                        "--density-points", "8"]) == 0
        rows = read_csv(tmp_path / "fig2" / "infer_summary.csv")
        assert sorted({int(r["N"]) for r in rows}) == [100, 400, 1600, 6400]

    def test_compare_bundle(self, tmp_path):
        assert run_cli(["reproduce", "--figure", "3", "--jobs", "4",
                        "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "fig3" / "compare.csv")
        ns = sorted({int(r["N"]) for r in rows})
        assert ns[0] == 100 and ns[-1] == 1000 and ns[1] - ns[0] == 5
        assert {int(r["k"]) for r in rows} == {1, 2, 3, 4}

    def test_unknown_figure(self, tmp_path):
        assert run_cli(["reproduce", "--figure", "99", "--out", str(tmp_path)]) == 2


class TestErrorHandling:
    def test_unknown_source(self, tmp_path):
        assert run_cli(["infer", "--source", "nope", "--n-start", "100",
                        "--out", str(tmp_path)]) == 2

    def test_missing_source_and_input(self, tmp_path):
        assert run_cli(["infer", "--n-start", "100", "--out", str(tmp_path)]) == 2

    def test_bad_order_range(self, tmp_path):
        assert run_cli(["infer", "--source", "even", "--k-min", "3",
                        "--k-max", "1", "--out", str(tmp_path)]) == 2

    def test_bad_alpha(self, tmp_path):
        assert run_cli(["infer", "--source", "even", "--alpha", "-1",
                        "--out", str(tmp_path)]) == 2

    def test_n_below_one(self, tmp_path):
        seq = tmp_path / "seq.txt"
        seq.write_text("01" * 500 + "\n")
        assert run_cli(["compare", "--input", str(seq), "--n-start", "-400", "--n-stop", "600",
                        "--n-step", "500", "--k-max", "2", "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_fake_count_word_outside_orders(self, tmp_path):
        fake = tmp_path / "fake.csv"
        fake.write_text("word,symbol,count\n011,1,3\n")
        assert run_cli(["infer", "--source", "golden_mean", "--n-start", "100",
                        "--k-max", "2", "--fake-counts", str(fake), "--out", str(tmp_path)]) == 2

    def test_fake_count_word_outside_alphabet(self, tmp_path, capsys):
        fake = tmp_path / "fake.csv"
        fake.write_text("word,symbol,count\n02,1,3\n")
        assert run_cli(["infer", "--source", "golden_mean", "--n-start", "100", "--k-max", "2",
                        "--fake-counts", str(fake), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error code=2 message=unknown symbol '2'\n"
        assert not (tmp_path / "out").exists()

    def test_fake_count_entry_listed_twice(self, tmp_path, capsys):
        fake = tmp_path / "fake.csv"
        fake.write_text("word,symbol,count\n0,1,3\n1,0,2\n0,1,5\n")
        assert run_cli(["infer", "--source", "golden_mean", "--n-start", "100",
                        "--fake-counts", str(fake), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == ("error code=2 message=fake-count entry word='0' "
                                           "symbol='1' is listed twice\n")
        assert not (tmp_path / "out").exists()

    def test_multi_character_symbol(self, tmp_path, capsys):
        # joined with no separator, the words of "ab" and "c" would be ambiguous
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"alphabet": ["ab", "c"],
                                    "matrices": {"ab": [[0.5]], "c": [[0.5]]}}))
        assert run_cli(["infer", "--source", str(path), "--n-start", "100",
                        "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error code=2 message=alphabet symbols must be single characters")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_fake_counts_missing_column(self, tmp_path, capsys):
        fake = tmp_path / "fake.csv"
        fake.write_text("word,symbol\n01,1\n")
        assert run_cli(["infer", "--source", "golden_mean", "--n-start", "100", "--k-max", "2",
                        "--fake-counts", str(fake), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (f"error code=2 message=fake-counts file {fake} "
                                           "has no column count\n")
        assert not (tmp_path / "out").exists()

    def test_fake_counts_short_row(self, tmp_path, capsys):
        fake = tmp_path / "fake.csv"
        fake.write_text("word,symbol,count\n01,1\n")
        assert run_cli(["infer", "--source", "golden_mean", "--n-start", "100", "--k-max", "2",
                        "--fake-counts", str(fake), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_comma_symbol_in_sequence_file(self, tmp_path, capsys):
        # the unquoted CSV rows could not carry a "," word or symbol
        seq = tmp_path / "seq.txt"
        seq.write_text("01,1,0110" * 20 + "\n")
        assert run_cli(["infer", "--input", str(seq), "--n-start", "100",
                        "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error code=2 message=alphabet symbols cannot be a comma")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_line_break_symbol_in_hmm(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"alphabet": ["0", "\n"],
                                    "matrices": {"0": [[0.5]], "\n": [[0.5]]}}))
        assert run_cli(["infer", "--source", str(path), "--n-start", "100",
                        "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == ("error code=2 message=alphabet symbols cannot be a comma, quote or "
                       "line break, not ['\\n']\n")
        assert not (tmp_path / "out").exists()

    def test_alpha_with_fake_counts(self, tmp_path, capsys):
        fake = tmp_path / "fake.csv"
        fake.write_text("word,symbol,count\n0,1,3\n")
        for alpha in ("1", "5"):
            assert run_cli(["infer", "--source", "golden_mean", "--n-start", "100",
                            "--alpha", alpha, "--fake-counts", str(fake),
                            "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.count("exclude each other") == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["reproduce", "--figure", "3", "--n-start", "1"],
        ["reproduce", "--figure", "3", "--source", "even"],
        ["simulate", "--source", "even", "--seed", "1", "--k-max", "2"],
        ["simulate", "--source", "even", "--seed", "1", "--n-stop", "1000"],
        ["simulate", "--source", "even", "--seed", "1", "--n-step", "7"],
        ["compare", "--source", "even", "--density-points", "8"],
        ["entropy", "--source", "even", "--confidence", "0.9"],
    ])
    def test_option_not_read_by_subcommand(self, argv, tmp_path, capsys):
        assert run_cli(argv + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error code=2 message=unrecognized arguments: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["infer", "compare", "entropy"])
    @pytest.mark.parametrize("options, message", [
        (["--source", "even", "--input", "{seq}"], "--source and --input exclude each other"),
        (["--input", "{seq}", "--mode", "sample", "--seed", "1"],
         "--mode sample samples a --source, not an --input"),
        (["--source", "even", "--seed", "1"], "--seed is read only with --mode sample"),
        (["--source", "even", "--csv-column", "x"], "--csv-column is read only with --input"),
    ])
    def test_data_option_not_read(self, command, options, message, tmp_path, capsys,
                                  monkeypatch):
        # rejected before any input is read or any source is built
        seq = tmp_path / "seq.txt"
        seq.write_text("0110" * 100 + "\n")
        monkeypatch.setattr(bayesmc.cli, "read_sequence", None)
        monkeypatch.setattr(bayesmc.cli, "_resolve_hmm", None)
        argv = [command, *(o.format(seq=seq) for o in options), "--n-start", "100"]
        assert run_cli(argv + ["--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error code=2 message={message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["entropy", "--source", "even", "--n-start", "100", "--n-stop", "200", "--n-step", "100",
         "--k-max", "3", "--jobs", "1"],
        ["infer", "--source", "even", "--n-start", "100", "--n-stop", "200", "--n-step", "100",
         "--k-max", "3", "--format", "json", "--jobs", "2"],
    ])
    def test_failed_sweep_leaves_no_output(self, argv, tmp_path, monkeypatch):
        # Every invalid configuration is rejected before the sweep starts, so
        # the failure is injected: at the first N = 200 row, after the N = 100
        # rows were written.
        grid_map = bayesmc.cli._grid_map

        def failing(point, sweep):
            for name, row in grid_map(point, sweep):
                if row[0] > sweep.cfg.n_grid[0]:
                    raise ValueError("injected failure")
                yield name, row

        monkeypatch.setattr(bayesmc.cli, "_grid_map", failing)
        assert run_cli(argv + ["--out", str(tmp_path)]) == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mode", ["average", "sample", "file"])
    def test_n_not_above_largest_order(self, mode, tmp_path, capsys):
        # one check, before any input is read or sampled, in every mode
        seq = tmp_path / "seq.txt"
        seq.write_text("0110" * 10 + "\n")
        data = {"average": ["--source", "even"],
                "sample": ["--source", "even", "--mode", "sample", "--seed", "1"],
                "file": ["--input", str(seq)]}[mode]
        assert run_cli(["compare", *data, "--n-start", "3", "--k-max", "5",
                        "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == ("error code=2 message=data size N=3 must exceed "
                                           "the largest order k=5\n")
        assert not (tmp_path / "out").exists()

    def test_n_exceeds_input(self, tmp_path):
        seq = tmp_path / "seq.txt"
        seq.write_text("0101\n")
        assert run_cli(["infer", "--input", str(seq), "--n-start", "100",
                        "--out", str(tmp_path)]) == 2

    def test_env_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BAYESMC_OUT", str(tmp_path / "envout"))
        assert run_cli(["entropy", "--source", "golden_mean", "--n-start", "100",
                        "--jobs", "1"]) == 0
        assert (tmp_path / "envout" / "entropy.csv").exists()

    def test_entry_point_process(self, tmp_path):
        out = subprocess.run(
            [sys.executable, "-m", "bayesmc.cli", "entropy", "--source",
             "golden_mean", "--n-start", "100", "--jobs", "1",
             "--out", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert out.returncode == 0
        assert (tmp_path / "entropy.csv").exists()

    def test_error_message_single_line(self, tmp_path):
        out = subprocess.run(
            [sys.executable, "-m", "bayesmc.cli", "infer", "--source", "nope",
             "--out", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert out.returncode == 2
        assert out.stderr.count("\n") == 1
        assert "code=2" in out.stderr

    @staticmethod
    def _run_process(*args):
        return subprocess.run([sys.executable, "-m", "bayesmc.cli", *args],
                              capture_output=True, text=True)

    def test_input_is_directory(self, tmp_path):
        out = self._run_process("infer", "--input", str(tmp_path), "--n-start", "100",
                                "--out", str(tmp_path / "out"))
        assert out.returncode == 2
        assert out.stderr.count("\n") == 1
        assert out.stderr.startswith("error code=2 ")

    def test_out_is_existing_file(self, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        out = self._run_process("entropy", "--source", "golden_mean", "--n-start", "100",
                                "--jobs", "1", "--out", str(taken))
        assert out.returncode == 2
        assert out.stderr.count("\n") == 1
        assert out.stderr.startswith("error code=2 ")

    @pytest.mark.parametrize("argv, message", [
        (["infer", "--source", "even", "--mode", "bogus"], "argument --mode: invalid choice"),
        (["reproduce"], "the following arguments are required: --figure"),
    ])
    def test_bad_command_line(self, argv, message, tmp_path):
        out = self._run_process(*argv, "--out", str(tmp_path / "out"))
        assert out.returncode == 2
        assert out.stderr.count("\n") == 1
        assert out.stderr.startswith(f"error code=2 message={message}")
        assert not (tmp_path / "out").exists()

    def test_table_cap_checked_before_any_table(self, tmp_path, monkeypatch):
        # With the cap lowered to 2**4 entries, k = 4 is over it; k = 1..3 are not.
        monkeypatch.setattr(bayesmc.core, "TABLE_CAP", 2**4)
        built = []
        monkeypatch.setattr(bayesmc.cli, "uniform_hyper", lambda *a: built.append(a))
        assert run_cli(["compare", "--source", "even", "--k-max", "4",
                        "--out", str(tmp_path)]) == 2
        assert built == []

    def test_order_beyond_table_cap(self, tmp_path):
        # k = 26 needs 2**27 entries, over the 2**26 cap; rejected before any table is built.
        out = self._run_process("compare", "--source", "even", "--k-min", "26", "--k-max", "26",
                                "--out", str(tmp_path / "out"))
        assert out.returncode == 2
        assert out.stderr == ("error code=2 message=order k=26 over 2 symbols needs "
                              "134217728 entries (cap 67108864)\n")
        assert not (tmp_path / "out").exists()


def _golden_sequence(n=4000):
    """A 3-symbol sequence from a fixed linear congruential generator, with
    memory: "a" is never followed by "a"."""
    x, prev, out = 7, "b", []
    for _ in range(n):
        x = (1103515245 * x + 12345) % 2**31
        choices = "bc" if prev == "a" else "abc"
        prev = choices[(x >> 16) % len(choices)]
        out.append(prev)
    return "".join(out)


#: Golden runs: name -> argv.  {seq} and {fake} are files the test writes.
GOLDEN = {
    **{f"fig{fig}": ["reproduce", "--figure", str(fig), "--density-points", "8"]
       for fig in range(2, 11)},
    "sample_entropy": ["entropy", "--source", "even", "--mode", "sample",
                       "--seed", "11", "--n-start", "500", "--n-stop", "2000",
                       "--n-step", "500", "--k-max", "3"],
    "sample_compare": ["compare", "--source", "sns", "--mode", "sample",
                       "--seed", "5", "--n-start", "300", "--n-stop", "1500",
                       "--n-step", "300", "--k-max", "3"],
    "sample_infer": ["infer", "--source", "golden_mean", "--mode", "sample",
                     "--seed", "3", "--n-start", "200", "--n-stop", "600",
                     "--n-step", "200", "--k-max", "2", "--density-points", "8"],
    "file_compare": ["compare", "--input", "{seq}", "--n-start", "1000",
                     "--n-stop", "4000", "--n-step", "1000", "--k-max", "4"],
    "file_entropy": ["entropy", "--input", "{seq}", "--n-start", "1000",
                     "--n-stop", "4000", "--n-step", "1500", "--k-max", "3"],
    "fake_counts_json": ["infer", "--source", "golden_mean", "--n-start", "100",
                         "--n-stop", "300", "--n-step", "100", "--k-min", "2",
                         "--k-max", "2", "--fake-counts", "{fake}", "--format",
                         "json", "--density-points", "8"],
}


#: sha256 of every output file of each golden run, by path relative to
#: --out.  Recorded before the CLI resolved its data once per invocation;
#: every change since must reproduce them byte for byte, at any --jobs.
#: The five entropy.csv digests were re-pinned when energy_var took its
#: bits^2 units, the only column that moved.  The fake_counts_json
#: infer_summary.json digest was re-pinned when the Beta quantile became a
#: bisection over float bit patterns: its full-repr ci_low/ci_high values
#: moved by 1-15 ulps, within the CDF's own rounding.
GOLDEN_DIGESTS = {
    "fake_counts_json": {
        "infer_density.csv": "f85116709d91a957d8d56e652d6bd8b32b0f9eaf40a618cab56c770eb1978501",
        "infer_density.json": "565a7bc973a842f5542bfa8a3f684686efac52f5df5b4eb5040d3dd6f789de3a",
        "infer_summary.csv": "f1774c2c822783fc26d1ed3f6bd19bc385033e25dcc325f8a99e94c3bc25089e",
        "infer_summary.json": "c0c06804f3b241f1b35fcb02d62c06c7a792cc172c7b6cbcea882000bf4b1c19",
    },
    "fig10": {
        "fig10/entropy.csv": "b2879a6b53604328fc1526ef26ea94681b189e7e5bc66d81558243db0247d8f0",
    },
    "fig2": {
        "fig2/infer_density.csv": "01551f9e751c5a890b75dced8a981532121338ba609beabb46b32a96f1a11b53",
        "fig2/infer_summary.csv": "e92cf1dad96ddb99d8115e4af05d574a840f680d8396493a41c011d135868355",
    },
    "fig3": {
        "fig3/compare.csv": "4dbe0e7939dfa76f8a72feb624474d71f2aea17c2a896d8a50d3d58c58fb86ca",
    },
    "fig4": {
        "fig4/entropy.csv": "fe2b74458784acfdd84087a3a78bde2ff9467982176ea6f446deb281d2aa3bd0",
    },
    "fig5": {
        "fig5/infer_density.csv": "1128ae94eb90a7a7c1ca4c05667c8896e9d35870ae5315427cbe4d450b0482f9",
        "fig5/infer_summary.csv": "cde6a3e5d2f64279cda0d1c9a4a096a04eb9f0244b9a5c88d3c2b6e83b601184",
    },
    "fig6": {
        "fig6/compare.csv": "a255687e9708d23b672121de858108655b9f97c25821dd5e23cf2a8ddf8c43b0",
    },
    "fig7": {
        "fig7/entropy.csv": "38ba4da8c69df8d33298a2dc8ea6e7c7cc74d9fd0bd5abe514107c4d352c5329",
    },
    "fig8": {
        "fig8/infer_density.csv": "7eda1287a6c49093dc2c621c650c5d0a825bc88966940272721d9e017993cab9",
        "fig8/infer_summary.csv": "976174b2c5cde41c359582ac5f63d5eec4fac248d3fe0a0411271e2ff049eda8",
    },
    "fig9": {
        "fig9/compare.csv": "b382c09d9fd2528bf190b1ba273e598ede1a5553a53bd5bfc874abce6b18469a",
    },
    "file_compare": {
        "compare.csv": "0c5c28ea26ff61db259eea3789dcba3d04c21dd75fc9d58252d79a403dc979ad",
    },
    "file_entropy": {
        "entropy.csv": "ba0f72f33c4cd8507086d98d6d8236dbc4bf3842b881992c5a7afea5436c27d2",
    },
    "sample_compare": {
        "compare.csv": "81928abd3b196910c8570cb7aec56067b2b2af5dffd4878150dfb7206cb0a816",
    },
    "sample_entropy": {
        "entropy.csv": "1833b20d4958c537f9c60aa23872a4055a4376984ace96bdfce4099a9dd1e559",
    },
    "sample_infer": {
        "infer_density.csv": "3048b1596941f09c34566e49f7b5595fa7c5abcdf5ecb3f25e3b76938eadcb34",
        "infer_summary.csv": "d565fb4c4f672252828eae58cb575c66d2834032c51697b491031968286eaf23",
    },
}


def _digests(out):
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def _run_golden(name, jobs, tmp_path):
    seq, fake = tmp_path / "seq.txt", tmp_path / "fake.csv"
    seq.write_text(_golden_sequence() + "\n")
    fake.write_text("word,symbol,count\n01,1,3\n10,0,2\n11,1,0.5\n")
    argv = [a.format(seq=seq, fake=fake) for a in GOLDEN[name]]
    out = tmp_path / "out"
    assert run_cli(argv + ["--jobs", str(jobs), "--out", str(out)]) == 0
    return _digests(out)


class TestGolden:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_outputs_match_recorded_digests(self, name, jobs, tmp_path):
        assert _run_golden(name, jobs, tmp_path) == GOLDEN_DIGESTS[name]
