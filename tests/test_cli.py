import argparse
import csv
import hashlib
import importlib.util
import itertools
import json
import math
import subprocess
import sys
import tempfile
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bayesmc.cli
import bayesmc.core
import bayesmc.entropy
import bayesmc.processes
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
        one, wrapped, padded = (tmp_path / f"{n}.txt" for n in ("one", "wrapped", "padded"))
        one.write_text(text + "\n")
        # 10-symbol lines, Unix and Windows line breaks mixed
        lines = [text[i:i + 10] for i in range(0, len(text), 10)]
        wrapped.write_bytes("".join(line + ("\r\n" if i % 2 else "\n")
                                    for i, line in enumerate(lines)).encode())
        # the same lines with trailing spaces and tabs
        padded.write_text("".join(line + (" \t" if i % 2 else "  ") + "\n"
                                  for i, line in enumerate(lines)))
        for path in (one, wrapped, padded):
            assert run_cli(["infer", "--input", str(path), "--n-start", "800",
                            "--out", str(tmp_path / path.stem), "--density-points", "4"]) == 0
        assert _digests(tmp_path / "one") == _digests(tmp_path / "wrapped")
        assert _digests(tmp_path / "one") == _digests(tmp_path / "padded")

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

    def test_density_blocks_hold_one_entry(self, tmp_path):
        # a block is formatted whole, so the density file's blocks are one
        # entry's --density-points rows each, whatever k is; a block's rows are
        # those of its last column (ci_high, or density), a list or shared column
        argv = ["infer", "--source", "even", "--n-start", "100", "--n-stop", "300",
                "--n-step", "100", "--k-max", "3", "--density-points", "16"]
        assert run_cli(argv + ["--out", str(tmp_path)]) == 0
        sweep = bayesmc.cli._resolve(bayesmc.cli._config_from(
            bayesmc.cli._build_parser().parse_args(argv)))
        rows = {"infer_summary.csv": [], "infer_density.csv": []}
        for chunk, orders in sweep.points():
            for name, block in bayesmc.cli._infer_point(sweep, chunk, orders):
                rows[name].append(len(block[-1]))
        assert max(rows["infer_density.csv"]) <= 16
        for name, sizes in rows.items():
            assert sum(sizes) == len(read_csv(tmp_path / name))
        assert len(rows["infer_density.csv"]) == 3 * (4 + 8 + 16)  # N x entries

    def test_streams_rows_in_bounded_memory(self, tmp_path):
        # 131,072 density rows, 16,384 per N: written as they arrive, only
        # one (N, k) point's arrays remain, whatever --jobs says.
        for jobs in ("1", "2"):
            out = tmp_path / jobs
            tracemalloc.start()
            try:
                assert run_cli(["infer", "--source", "even", "--n-start", "1000",
                                "--n-stop", "1700", "--n-step", "100", "--k-min", "2",
                                "--k-max", "2", "--density-points", "2048", "--jobs", jobs,
                                "--out", str(out)]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(read_csv(out / "infer_density.csv")) == 131_072
            assert peak < 2 * 2**20, f"--jobs {jobs}: peak {peak} B"

    def test_repeated_calls_share_no_text(self, tmp_path, monkeypatch):
        # each distinct density row of a table gets its text once per side, and a second
        # call in the same process makes it again: no text outlives its (N, k) table
        made, grids = [], []

        class Counted(dict):
            def __init__(self, row):
                super().__init__()
                self.row = row

            def __setitem__(self, side, value):  # a grid's template, or a row's lines
                if self.row:
                    made.append(side)
                super().__setitem__(side, value)

        class Shared(bayesmc.cli._Shared):
            def __init__(self, values):  # the grid is the _Shared of its table's x
                self.text = Counted(row=values != grids[-1])

        infer_table, tables = bayesmc.inference.infer_table, []

        def counted_table(*args):
            out = infer_table(*args)
            grids.append(out[1].tolist())
            tables.append((len(out[2]), len(out[3])))  # distinct density rows, entries
            return out

        monkeypatch.setattr(bayesmc.inference, "infer_table", counted_table)
        monkeypatch.setattr(bayesmc.cli, "_Shared", Shared)
        counts = []
        for run in ("a", "b"):
            made.clear()
            tables.clear()
            assert run_cli(["infer", "--source", "even", "--n-start", "1000", "--k-max", "3",
                            "--density-points", "8", "--format", "json",
                            "--out", str(tmp_path / run)]) == 0
            counts.append((made.count(0), made.count(1), *map(sum, zip(*tables))))
        assert _digests(tmp_path / "a") == _digests(tmp_path / "b")
        (csv_rows, json_rows, distinct, entries), _ = counts
        assert counts[1] == counts[0]
        assert csv_rows == json_rows == distinct < entries  # equal marginals share a row


#: A word or symbol cell: text without a carriage return, which no Alphabet symbol is, nor a
#: lone surrogate, which no UTF-8 input holds; often braces, percent signs, backslashes,
#: quotes and commas.
cell_text = st.text(st.one_of(st.sampled_from('%{}\\",'), st.characters(
    exclude_categories=("Cs",), exclude_characters="\r")), max_size=4)
#: One type's cell values; a list column holds one type, as the sweeps' columns do.
cell_values = {float: st.floats(), int: st.integers(-10**6, 10**6), str: cell_text,
               type(None): st.none()}


def _rendered_row_by_row(columns, blocks):
    """Each file's CSV and JSON mirror as the writer would print them one row at a time:
    a row's cells joined by commas, or formatted into the mirror's record."""
    csvs = {name: ",".join(cols) + "\n" for name, cols in columns.items()}
    forms = {name: "{{\n" + ",\n".join(f'  "{c}": {{}}' for c in cols) + "\n }}"
             for name, cols in columns.items()}
    records = {name: [] for name in columns}
    for name, block in blocks:
        rows = len(next(c for c in block if isinstance(c, (list, tuple))))
        for i in range(rows):
            cells = [[bayesmc.cli._FORMATS[type(c[0])][side](c[i]) if isinstance(c, (list, tuple))
                      else bayesmc.cli._FORMATS[type(c)][side](c) for c in block]
                     for side in (0, 1)]
            csvs[name] += ",".join(cells[0]) + "\n"
            records[name].append(forms[name].format(*cells[1]))
    mirrors = {name.replace(".csv", ".json"): "[" + ("\n " + ",\n ".join(rec) if rec else "")
               + "\n]\n" for name, rec in records.items()}
    return {**csvs, **mirrors}


class TestBlockText:
    @settings(deadline=None, max_examples=150)
    @given(st.data())
    def test_same_bytes_as_row_by_row(self, data):
        # each file's blocks are list blocks (single values and lists in one layout, at
        # least one list) or density blocks (single values, then a grid and one of its
        # rows), a single value drawn from two per column; a density file draws each block's
        # grid from its own pool, and the row from that grid's, so that blocks reuse both
        rows = data.draw(st.integers(1, 5), label="rows")
        floats = st.lists(st.floats(), min_size=rows, max_size=rows)
        columns, layouts, pools = {}, {}, {}
        for name in ("a.csv", "b.csv"):
            if data.draw(st.booleans(), label="density"):
                kinds = ["value"] * data.draw(st.integers(0, 4)) + ["grid", "row"]
                pools[name] = [(bayesmc.cli._Shared(data.draw(floats)), [
                    bayesmc.cli._Shared(data.draw(floats))
                    for _ in range(data.draw(st.integers(1, 3)))])
                    for _ in range(data.draw(st.integers(1, 2), label="grids"))]
            else:
                kinds = data.draw(st.lists(st.sampled_from(("value", "list")), min_size=1,
                                           max_size=6).filter(lambda k: "list" in k))
            columns[name] = tuple(f"c{j}" for j in range(len(kinds)))
            cell_types = [data.draw(st.sampled_from(list(cell_values))) for _ in kinds]
            values = [data.draw(st.lists(cell_values[t], min_size=2, max_size=2))
                      for t in cell_types]
            layouts[name] = list(zip(kinds, cell_types, values))
        blocks = []
        for _ in range(data.draw(st.integers(1, 8), label="blocks")):
            name = data.draw(st.sampled_from(sorted(columns)))
            grid, grid_rows = data.draw(st.sampled_from(pools.get(name, [(None, None)])))
            blocks.append((name, [
                grid if kind == "grid" else data.draw(st.sampled_from(grid_rows))
                if kind == "row" else data.draw(st.lists(cell_values[t], min_size=rows,
                                                         max_size=rows))
                if kind == "list" else data.draw(st.sampled_from(values))
                for kind, t, values in layouts[name]]))
        with tempfile.TemporaryDirectory() as out:
            sweep = types.SimpleNamespace(cfg=argparse.Namespace(out=Path(out), format="json"),
                                          points=lambda: [(None, None)])
            bayesmc.cli._write_sweep(sweep, lambda sweep, chunk, orders: blocks, columns)
            written = {p.name: p.read_bytes().decode("utf-8") for p in Path(out).iterdir()}
        assert written == _rendered_row_by_row(columns, blocks)

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.floats(), min_size=1, max_size=6), st.data())
    def test_density_template_prints_as_the_csv_formatter(self, x, data):
        # the CSV rows of an x grid and a density row are one % call on a template made once
        # per grid: each float as _FORMATS[float][0] prints it, and each single value before
        # the two columns, % signs, braces and commas included, as it is
        specials = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1e-310])
        rows = data.draw(st.lists(st.lists(st.floats() | specials, min_size=len(x),
                                           max_size=len(x)), min_size=1, max_size=3))
        head = [data.draw(cell_text | st.sampled_from(["%", "%%s", "{}", ","]))
                for _ in range(2)]
        xs, form = bayesmc.cli._Shared(x), ",".join(["{}"] * 4)
        csv_float = bayesmc.cli._FORMATS[float][0]
        for row in rows:
            written = bayesmc.cli._text([*head, xs, bayesmc.cli._Shared(row)], 0, form, "\n")
            assert written == "\n".join(",".join([*head, csv_float(u), csv_float(v)])
                                        for u, v in zip(x, row))
        assert list(xs.text) == [0]  # one template for the grid, for the CSV side

    @given(st.floats())
    def test_json_float_as_json_dumps_prints_it(self, value):
        # a finite float and NaN as json.dumps prints them, an infinity as null
        expected = "null" if math.isinf(value) else json.dumps(value)
        assert bayesmc.cli._FORMATS[float][1](value) == expected


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

    def test_evidence_at_large_alpha(self, tmp_path):
        # the log Gammas of the prior, about alpha log alpha = 3.9e18, cancel
        # down to -68.6; 50-digit mpmath gives -68.6215708754346
        assert run_cli(["compare", "--source", "even", "--n-start", "100", "--k-max", "1",
                        "--alpha", "1e17", "--jobs", "1", "--out", str(tmp_path)]) == 0
        assert read_csv(tmp_path / "compare.csv")[0]["log_evidence_nats"] == "-68.6215708754"

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

    @pytest.mark.parametrize("command, mode, lengths", [
        ("entropy", "average", [3, 4]), ("entropy", "sample", [3, 4]),
        ("infer", "average", [3, 4]), ("infer", "sample", []), ("compare", "sample", [])])
    def test_each_word_distribution_once(self, command, mode, lengths, tmp_path, monkeypatch):
        # a source's joint p(word, symbol) of each order is computed once per invocation,
        # serving average counts and entropy's Markov approximations alike, and only
        # where one of them reads it
        word_distribution, calls = bayesmc.processes.word_distribution, []
        monkeypatch.setattr(bayesmc.processes, "word_distribution",
                            lambda hmm, length: calls.append(length) or
                            word_distribution(hmm, length))
        seed = ["--seed", "3"] if mode == "sample" else []
        assert run_cli([command, "--source", "even", "--mode", mode, *seed, "--n-start", "500",
                        "--k-min", "2", "--k-max", "3", "--out", str(tmp_path)]) == 0
        assert sorted(calls) == lengths

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

    def test_energy_variance_finite_at_tiny_alpha(self, tmp_path):
        # below alpha ~ 1e-154, t^2 underflows and 1/t^2 overflows in the
        # terms t^2 (trigamma(t) - 1/t) of the variance's sums; each such
        # term is 1, as it is to rounding at alpha = 1e-154.  The mean's
        # terms t digamma(t) are -1 there, and at a subnormal alpha (1e-310)
        # digamma's 1/t would overflow.
        var, mean = {}, {}
        alphas = ("1e-310", "1e-300", "1e-155", "1e-154")
        for alpha in alphas:
            out = tmp_path / alpha
            assert run_cli(["entropy", "--source", "even", "--n-start", "100", "--k-max", "2",
                            "--alpha", alpha, "--jobs", "1", "--out", str(out)]) == 0
            rows = read_csv(out / "entropy.csv")
            var[alpha] = [float(r["energy_var"]) for r in rows]
            mean[alpha] = [float(r["energy_mean_bits"]) for r in rows]
        assert var["1e-154"][1] == pytest.approx(0.000557594931719, rel=1e-12)
        assert all(var[alpha] == var["1e-154"] for alpha in alphas)
        assert all(math.isfinite(m) for m in mean["1e-310"])
        assert all(mean[alpha] == mean["1e-154"] for alpha in alphas)

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

    def test_figure_is_its_command(self, tmp_path):
        # a figure's bundle is its recipe's sweep, written under fig{N}
        assert run_cli(["reproduce", "--figure", "3", "--format", "json",
                        "--out", str(tmp_path / "bundle")]) == 0
        assert run_cli(["compare", "--source", "golden_mean", "--n-start", "100",
                        "--n-stop", "1000", "--n-step", "5", "--k-max", "4", "--format", "json",
                        "--out", str(tmp_path / "sweep")]) == 0
        assert [p.name for p in (tmp_path / "bundle").iterdir()] == ["fig3"]
        assert _digests(tmp_path / "bundle" / "fig3") == _digests(tmp_path / "sweep")

    def test_unknown_figure(self, tmp_path):
        assert run_cli(["reproduce", "--figure", "99", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("argv", [["infer", "--source", "even"], ["compare", "--source", "even"],
                                  ["entropy", "--source", "even"], ["reproduce", "--figure", "3"]])
def test_jobs_default_to_one(argv):
    assert bayesmc.cli._build_parser().parse_args(argv).jobs == 1


class TestChunks:
    #: Grids of 25 and, for the slower infer, 7 points: chunks of 2 or 3
    #: leave a last chunk of 1.
    GRIDS = {"compare": ("100", "20", "580"), "entropy": ("100", "20", "580"),
             "infer": ("100", "50", "400")}

    @pytest.mark.parametrize("mode", ["average", "sample", "file"])
    @pytest.mark.parametrize("command", ["compare", "entropy", "infer"])
    def test_chunk_boundaries_keep_outputs(self, command, mode, tmp_path, monkeypatch):
        seq = tmp_path / "seq.txt"
        seq.write_text(_golden_sequence(600).replace("c", "b") + "\n")
        data = {"average": ["--source", "even"],
                "sample": ["--source", "even", "--mode", "sample", "--seed", "7"],
                "file": ["--input", str(seq)]}[mode]
        start, step, stop = self.GRIDS[command]
        argv = [command, *data, "--n-start", start, "--n-step", step, "--n-stop", stop,
                "--k-max", "2", "--format", "json"]
        if command == "infer":
            argv += ["--density-points", "2"]
        assert run_cli(argv + ["--jobs", "1", "--out", str(tmp_path / "whole")]) == 0
        whole = _digests(tmp_path / "whole")
        top = 2**3  # entries of one top-order table
        points, sizes = bayesmc.cli._Sweep.points, []

        def recorded(sweep):
            sizes.append(set())
            for chunk, orders in points(sweep):
                sizes[-1].add(len(chunk))
                yield chunk, orders

        monkeypatch.setattr(bayesmc.cli._Sweep, "points", recorded)
        for size in (1, 2, 3):
            monkeypatch.setattr(bayesmc.cli, "CHUNK_ENTRIES", size * top)
            out = tmp_path / str(size)
            assert run_cli(argv + ["--jobs", "1", "--out", str(out)]) == 0
            assert _digests(out) == whole
        assert sizes == [{1}, {2, 1}, {3, 1}]

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_chunk_sizes(self, jobs):
        for A, k_max, length in itertools.product((2, 3, 4), (1, 3, 6, 7, 13, 15, 16),
                                                  (1, 2, 5, 24, 181, 1000)):
            top = A ** (k_max + 1)
            grid = tuple(range(100, 100 + length))
            chunks = _chunks_of(A, k_max, grid, jobs)
            assert sum(chunks, ()) == grid
            G = len(chunks[0])
            assert {len(c) for c in chunks[:-1]} <= {G} and len(chunks[-1]) <= G
            assert G == 1 or G * top <= 2**16
            # as many points as the entry cap allows, whatever --jobs says
            assert G == min(length, max(1, 2**16 // top))

    @pytest.mark.parametrize("size", [1, 3])
    def test_entropy_rate_once_per_order_and_chunk(self, size, tmp_path, monkeypatch):
        # h_mu feeds both hmu_Q_bits and asymptotic_bits: one evaluation per order and
        # chunk, on the posterior's and the prior's rows of the chunk's observed words
        # (a file has no true rate, which would take one more)
        seq = tmp_path / "seq.txt"
        seq.write_text(_golden_sequence(1000) + "\n")
        row_rates, calls = bayesmc.entropy._row_rates, []

        def counted(t, totals):
            calls.append(np.shape(t))
            return row_rates(t, totals)

        monkeypatch.setattr(bayesmc.entropy, "_row_rates", counted)
        monkeypatch.setattr(bayesmc.cli, "CHUNK_ENTRIES", size * 3**4)
        assert run_cli(["entropy", "--input", str(seq), "--n-start", "100", "--n-step", "100",
                        "--n-stop", "1000", "--k-max", "3", "--out", str(tmp_path)]) == 0
        chunks = _chunks_of(3, 3, tuple(range(100, 1001, 100)), 1)
        assert len(chunks) == -(-10 // size) and len(calls) == 3 * len(chunks)
        # per chunk, orders 1..3: at most each table's words, and a word seen at N = 100
        # stays seen
        limits = [(len(c), 3**k) for c in chunks for k in (1, 2, 3)]
        assert all(shape[0] == 2 and shape[2] == 3 and G <= shape[1] <= G * words
                   for shape, (G, words) in zip(calls, limits))

    @pytest.mark.parametrize("size", [1, 3])
    @pytest.mark.parametrize("command, module, kernel", [
        ("compare", bayesmc.inference, "log_gamma_diff"),
        ("entropy", bayesmc.entropy, "_moment_terms")])
    def test_one_kernel_call_per_chunk(self, command, module, kernel, size, tmp_path,
                                       monkeypatch):
        # every order of a chunk goes through one evidence or energy kernel call
        seq = tmp_path / "seq.txt"
        seq.write_text(_golden_sequence(2000) + "\n")
        evaluate, calls = getattr(module, kernel), []

        def counted(*args):
            calls.append(1)
            return evaluate(*args)

        monkeypatch.setattr(module, kernel, counted)
        monkeypatch.setattr(bayesmc.cli, "CHUNK_ENTRIES", size * 3**9)
        assert run_cli([command, "--input", str(seq), "--n-start", "200", "--n-step", "200",
                        "--n-stop", "2000", "--k-max", "8", "--out", str(tmp_path)]) == 0
        assert len(read_csv(tmp_path / f"{command}.csv")) == 10 * 8
        assert len(calls) == -(-10 // size)

    def test_figures_sweep_in_one_chunk(self):
        for command, source, recipe in bayesmc.cli.FIGURE_RECIPES.values():
            grid = recipe["n_grid"]
            assert _chunks_of(2, recipe["k"][1], grid, 1) == [grid]

    def test_average_counts_once_per_order_and_chunk(self, tmp_path, monkeypatch):
        # average mode takes each chunk's stacks from processes.average_counts, and the
        # source computes its joint of each order once, for the counts and Q's truth alike
        calls = {"average_counts": [], "word_distribution": []}
        for name, log in calls.items():
            def counted(hmm, *args, call=getattr(bayesmc.processes, name), log=log):
                log.append(args)
                return call(hmm, *args)

            monkeypatch.setattr(bayesmc.processes, name, counted)
        assert run_cli(["entropy", "--source", "even", "--k-max", "12", "--n-start", "1000",
                        "--n-stop", "5000", "--n-step", "100", "--out", str(tmp_path)]) == 0
        chunks = _chunks_of(2, 12, tuple(range(1000, 5001, 100)), 1)
        assert len(chunks) == 6
        assert calls["average_counts"] == [(chunk, k) for chunk in chunks for k in range(1, 13)]
        assert calls["word_distribution"] == [(k + 1,) for k in range(1, 13)]


def _chunks_of(A, k_max, grid, jobs):
    """The chunks that _Sweep.points yields for a sweep with only what chunking reads (the
    alphabet, k_max and grid), no orders, and a --jobs that it ignores."""
    cfg = argparse.Namespace(k_max=k_max, n_grid=grid, jobs=jobs)
    sweep = bayesmc.cli._Sweep(cfg, bayesmc.core.Alphabet(tuple("abcd"[:A])), seq=None,
                               hmm=None, hypers={}, approxes={}, truth=None)
    return [chunk for chunk, _ in sweep.points()]


class TestRunningCounts:
    """In sample and file mode one top-order table runs across the whole N grid."""

    @pytest.mark.parametrize("size", [1, 2, 3])
    @pytest.mark.parametrize("command", ["compare", "entropy"])
    def test_each_window_counted_once(self, command, size, tmp_path, monkeypatch):
        # 10 values of N, in chunks of `size` points: each window up to max(N) is
        # counted once at the top order, and each lower order adds one head window
        k_max = 4
        seq = tmp_path / "seq.txt"
        seq.write_text(_golden_sequence(1000) + "\n")
        count_words, windows = bayesmc.core.count_words, []

        def tallied(seq, k):
            windows.append(len(seq) - k)
            return count_words(seq, k)

        for module in (bayesmc.cli, bayesmc.core):
            monkeypatch.setattr(module, "count_words", tallied)
        monkeypatch.setattr(bayesmc.cli, "CHUNK_ENTRIES", size * 3 ** (k_max + 1))
        assert run_cli([command, "--input", str(seq), "--n-start", "100", "--n-step", "100",
                        "--n-stop", "1000", "--k-max", str(k_max), "--out", str(tmp_path)]) == 0
        assert len(read_csv(tmp_path / f"{command}.csv")) == 10 * k_max
        assert sum(windows) <= 1000 + k_max * (k_max + 1) // 2

    @pytest.mark.parametrize("size", [1, 3])
    @pytest.mark.parametrize("command", ["compare", "entropy"])
    def test_no_count_table_copied(self, command, size, tmp_path, monkeypatch):
        # the counts, the priors and the posterior-mean distributions are fresh
        # arrays, frozen as they are: _frozen copies none of them, whatever the grid
        seq = tmp_path / "seq.txt"
        seq.write_text(_golden_sequence(1000) + "\n")
        frozen, copied = bayesmc.core._frozen, []

        def counted(arr, dtype=float):
            out = frozen(arr, dtype)
            if isinstance(arr, np.ndarray) and out.dtype == arr.dtype and out is not arr:
                copied.append(arr.shape)
            return out

        for module in (bayesmc.core, bayesmc.entropy):
            monkeypatch.setattr(module, "_frozen", counted)
        monkeypatch.setattr(bayesmc.cli, "CHUNK_ENTRIES", size * 3**4)
        assert run_cli([command, "--input", str(seq), "--n-start", "100", "--n-step", "100",
                        "--n-stop", "1000", "--k-max", "3", "--out", str(tmp_path)]) == 0
        assert copied == []

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_stacks_equal_each_prefix_counted(self, size, monkeypatch):
        # orders 2..5 of a sampled sequence over an uneven grid, chunk boundaries included
        argv = ["compare", "--source", "sns", "--mode", "sample", "--seed", "3",
                "--n-start", "6", "--n-step", "37", "--n-stop", "400", "--k-min", "2",
                "--k-max", "5"]
        monkeypatch.setattr(bayesmc.cli, "CHUNK_ENTRIES", size * 2**6)
        sweep = bayesmc.cli._resolve(bayesmc.cli._config_from(
            bayesmc.cli._build_parser().parse_args(argv)))
        seen = []
        for chunk, orders in sweep.points():
            assert [k for k, _, _ in orders] == [2, 3, 4, 5]
            for k, counts, hyper in orders:
                assert hyper is sweep.hypers[k]
                for N, table in zip(chunk, counts.table):
                    prefix = bayesmc.core.SymbolSequence(sweep.alphabet, sweep.seq.data[:N])
                    np.testing.assert_array_equal(table, bayesmc.core.count_words(prefix, k).table)
            seen += chunk
        assert tuple(seen) == sweep.cfg.n_grid


class TestByteOrderMark:
    """A file that opens with a UTF-8 byte-order mark reads as its twin without one."""

    FILES = {
        "sequence": ("seq.txt", "{seq}\n", ["compare", "--input", "{path}", "--n-start", "1000",
                                            "--k-max", "2", "--format", "json"]),
        "csv_column": ("seq.csv", "sym,id\n{seq},0\n",
                       ["compare", "--input", "{path}", "--csv-column", "sym", "--n-start",
                        "1000", "--k-max", "2", "--format", "json"]),
        "fake_counts": ("fake.csv", "word,symbol,count\n0,1,3\n",
                        ["infer", "--source", "golden_mean", "--n-start", "100", "--fake-counts",
                         "{path}", "--density-points", "4", "--format", "json"]),
        "hmm": ("hmm.json", '{"alphabet": ["0", "1"], "matrices": {"0": [[0.5, 0], [0, 0]], '
                '"1": [[0, 0.5], [1, 0]]}}',
                ["simulate", "--source", "{path}", "--seed", "3", "--n-start", "500"]),
    }

    @pytest.mark.parametrize("kind", sorted(FILES))
    def test_same_output_as_twin(self, kind, tmp_path):
        name, text, argv = self.FILES[kind]
        for twin, prefix in (("plain", ""), ("bom", "\ufeff")):
            path = tmp_path / twin / name
            path.parent.mkdir()
            path.write_text(prefix + text.replace("{seq}", _golden_sequence(1200)),
                            encoding="utf-8")
            assert run_cli([a.replace("{path}", str(path)) for a in argv]
                           + ["--out", str(tmp_path / twin / "out")]) == 0
        assert _digests(tmp_path / "bom" / "out") == _digests(tmp_path / "plain" / "out")


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

    @pytest.mark.parametrize("argv, message", [
        (["infer", "--source", "even", "--alpha", "inf"],
         "alpha must be finite and positive, not inf"),
        (["compare", "--source", "even", "--alpha", "nan"],
         "alpha must be finite and positive, not nan"),
        (["infer", "--source", "golden_mean", "--fake-counts", "{dir}/nan.csv"],
         "fake-count entry word='0' symbol='1' has count nan; counts must be finite and >= 0"),
        (["entropy", "--source", "golden_mean", "--fake-counts", "{dir}/inf.csv"],
         "fake-count entry word='0' symbol='1' has count inf; counts must be finite and >= 0"),
        (["infer", "--source", "{dir}/nan.json"],
         "labeled transition matrix entries must be finite, not nan"),
        (["infer", "--source", "even", "--density-points", "1"],
         "density points must be at least 2, not 1"),
        (["reproduce", "--figure", "3", "--density-points", "0"],
         "density points must be at least 2, not 0"),
        (["compare", "--source", "even", "--jobs", "0"], "jobs must be at least 1, not 0"),
        (["reproduce", "--figure", "3", "--jobs", "-3"], "jobs must be at least 1, not -3"),
        (["infer", "--source", "golden_mean", "--fake-counts", "{dir}/empty.csv"],
         "fake-count entry word='0' symbol='1' has count ''; counts must be finite and >= 0"),
        # past the checked range: energy_var nan, then energy_mean_bits nan, then A * alpha inf
        (["entropy", "--source", "even", "--k-max", "1", "--alpha", "1e300"],
         "--alpha must be at most 1e+17, not 1e+300"),
        (["entropy", "--source", "even", "--k-max", "1", "--alpha", "1e307"],
         "--alpha must be at most 1e+17, not 1e+307"),
        (["compare", "--source", "even", "--k-max", "2", "--alpha", "1.7e308"],
         "--alpha must be at most 1e+17, not 1.7e+308"),
        (["compare", "--source", "{dir}/list.json", "--n-start", "100"],
         "hmm description must be a JSON object, not list"),
        # a hyperparameter count + 1 past --alpha's bound: entropy wrote energy_mean_bits
        # below hmu_Q_bits, and infer failed on its Beta marginals
        *([[command, "--source", "even", "--k-max", "1", "--fake-counts", "{dir}/huge.csv"],
           "fake-count entry word='0' symbol='0' has count 1e+20; count + 1 must be at most 1e+17"]
          for command in ("entropy", "compare", "infer")),
    ])
    def test_bad_value_rejected_before_sweep(self, argv, message, tmp_path, capsys,
                                             monkeypatch):
        (tmp_path / "nan.csv").write_text("word,symbol,count\n0,1,nan\n")
        (tmp_path / "inf.csv").write_text("word,symbol,count\n0,1,inf\n")
        (tmp_path / "empty.csv").write_text("word,symbol,count\n0,1,\n")
        (tmp_path / "huge.csv").write_text("word,symbol,count\n0,0,1e20\n")
        (tmp_path / "nan.json").write_text(
            '{"alphabet": ["0", "1"], "matrices": {"0": [[NaN, 0.5], [0.5, 0]], '
            '"1": [[0, 0.5], [0.5, 0]]}}')
        (tmp_path / "list.json").write_text("[1, 2]")
        monkeypatch.setattr(bayesmc.cli._Sweep, "points", None)  # the sweep never starts
        argv = [a.format(dir=tmp_path) for a in argv]
        assert run_cli(argv + ["--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error code=2 message={message}\n"
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
        point, columns = bayesmc.cli._SWEEPS[argv[0]]

        def failing(sweep, chunk, orders):
            for name, row in point(sweep, chunk, orders):
                if row[0] > sweep.cfg.n_grid[0]:
                    raise ValueError("injected failure")
                yield name, row

        monkeypatch.setitem(bayesmc.cli._SWEEPS, argv[0], (failing, columns))
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

    def test_env_out_dir_read_on_each_call(self, tmp_path, monkeypatch):
        argv = ["compare", "--source", "even", "--n-start", "100"]
        monkeypatch.delenv("BAYESMC_OUT", raising=False)
        assert run_cli(argv + ["--out", str(tmp_path / "first")]) == 0
        monkeypatch.setenv("BAYESMC_OUT", str(tmp_path / "later"))
        assert run_cli(argv) == 0
        assert (tmp_path / "later" / "compare.csv").exists()

    def test_successive_calls_do_not_share_options(self, tmp_path):
        argv = ["infer", "--source", "even", "--n-start", "100", "--density-points", "2"]
        assert run_cli(argv + ["--alpha", "0.5", "--out", str(tmp_path / "a")]) == 0
        assert run_cli(argv + ["--out", str(tmp_path / "b")]) == 0
        assert {r["alpha"] for r in read_csv(tmp_path / "a" / "infer_summary.csv")} == {"0.5"}
        assert {r["alpha"] for r in read_csv(tmp_path / "b" / "infer_summary.csv")} == {"1"}

    def test_import_builds_no_parser(self):
        out = subprocess.run(
            [sys.executable, "-c",
             "import bayesmc.cli as cli; print(cli._build_parser.cache_info().currsize)"],
            capture_output=True, text=True, check=True)
        assert out.stdout == "0\n"

    @pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                        reason="numpy 1.x imports numpy.ma with numpy itself")
    def test_import_and_file_sweeps_leave_numpy_ma_out(self, tmp_path):
        # numpy.ma takes a third of the CLI's own import time; a plain np.unique imports it.
        # Neither the import nor a sweep of a text file loads csv either
        seq = tmp_path / "seq.txt"
        seq.write_text(_golden_sequence(3000) + "\n")
        code = ("import sys, bayesmc.cli as cli; imported = 'numpy.ma' in sys.modules; "
                "[cli.main([c, '--input', sys.argv[1], '--n-start', '1000', '--n-step', '1000', "
                "'--n-stop', '3000', '--k-max', '4', '--out', sys.argv[2]]) "
                "for c in ('compare', 'entropy')]; print(imported, 'numpy.ma' in sys.modules, "
                "'csv' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code, str(seq), str(tmp_path)],
                             capture_output=True, text=True, check=True)
        assert out.stdout == "False False False\n"  # csv is loaded only to read a CSV input
        assert len(read_csv(tmp_path / "entropy.csv")) == 3 * 4

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
    **{f"fig{fig}_json": ["reproduce", "--figure", str(fig), "--format", "json"]
       for fig in (3, 7)},
    "sample_entropy": ["entropy", "--source", "even", "--mode", "sample",
                       "--seed", "11", "--n-start", "500", "--n-stop", "2000",
                       "--n-step", "500", "--k-max", "3"],
    "sample_compare": ["compare", "--source", "sns", "--mode", "sample",
                       "--seed", "5", "--n-start", "300", "--n-stop", "1500",
                       "--n-step", "300", "--k-max", "3"],
    "sample_infer": ["infer", "--source", "golden_mean", "--mode", "sample",
                     "--seed", "3", "--n-start", "200", "--n-stop", "600",
                     "--n-step", "200", "--k-max", "2", "--density-points", "8"],
    "simulate": ["simulate", "--source", "sns", "--seed", "5", "--n-start", "3000"],
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
#: moved by 1-15 ulps, within the CDF's own rounding; and again when the
#: search took guarded Halley steps: word 11's ci_low at N = 200 and ci_high
#: at N = 300 moved by 2 ulps each, to another crossing of the CDF's
#: ulp-level steps.  The fig4, fig7,
#: fig10 and sample_entropy entropy.csv digests were re-pinned when
#: energy_variance began reading the posterior table and cancelling its 1/t
#: terms exactly: only energy_var moved, by at most 5.6e-11 relative, the
#: rounding error of the former probability-based form.  The three sample_*
#: digests were re-pinned when sample_sequence began walking pre-drawn
#: per-state move blocks instead of calling rng.choice once per symbol: the
#: same seed now draws a different (equally distributed) sample; and again,
#: with simulate's sequence.txt, when it began walking blocks of the chain in
#: numpy lockstep on one uniform per step and splicing them, as the per-state
#: move streams are read in an order only a sequential walk knows.  The
#: simulate run pins that seeded sample itself, through sequence.txt.  The
#: fig3_json and fig7_json runs pin the JSON mirrors of a compare and an
#: entropy sweep (fig7's holds 245 nulls from infinite KL) from before the
#: writer formatted column blocks.  The fig7_json entropy.json digest was
#: re-pinned when the energy sums became the prior's own sums plus the observed
#: words' terms less the prior's: its full-repr values moved by at most 4.3e-15
#: relative (energy_mean_bits), and no 12-digit CSV cell moved.  The compare
#: digests (fig3, fig3_json, fig6, fig9, file_compare, sample_compare) were
#: re-pinned when the evidence became each observed word's Gamma ratio summed
#: over the observed words: only prob_uniform and prob_penalized cells moved,
#: fig3 91 cells (largest move 9.7e-12 relative), fig6 96 (2.1e-11), fig9 195
#: (2.3e-10), file_compare 10 (9.7e-12) and sample_compare 2 (7.7e-12);
#: fig3's compare.json moved by at most 2e-15 relative in log_evidence_nats and
#: 1.1e-12 in the probabilities.  TestCompareOracle checks those runs' rows.
GOLDEN_DIGESTS = {
    "fake_counts_json": {
        "infer_density.csv": "f85116709d91a957d8d56e652d6bd8b32b0f9eaf40a618cab56c770eb1978501",
        "infer_density.json": "565a7bc973a842f5542bfa8a3f684686efac52f5df5b4eb5040d3dd6f789de3a",
        "infer_summary.csv": "f1774c2c822783fc26d1ed3f6bd19bc385033e25dcc325f8a99e94c3bc25089e",
        "infer_summary.json": "ffed8fe9f4dd5ae7af92d513418363dcc9675786e1b39e074901a9a4438d63a8",
    },
    "fig10": {
        "fig10/entropy.csv": "4551c4a54a6df41a89fed4f52de6a0bd3d8a7e747871ce96399720da39330564",
    },
    "fig2": {
        "fig2/infer_density.csv": "01551f9e751c5a890b75dced8a981532121338ba609beabb46b32a96f1a11b53",
        "fig2/infer_summary.csv": "e92cf1dad96ddb99d8115e4af05d574a840f680d8396493a41c011d135868355",
    },
    "fig3": {
        "fig3/compare.csv": "87b7eb68f923ef46fcbfb30ec7cec3bff420a57251075d0780c8cc23330b0f1f",
    },
    "fig3_json": {
        "fig3/compare.csv": "87b7eb68f923ef46fcbfb30ec7cec3bff420a57251075d0780c8cc23330b0f1f",
        "fig3/compare.json": "66cc0513854f45bee01374e9f07daf739f961fd6a5894cfca16b16254a3ac80d",
    },
    "fig4": {
        "fig4/entropy.csv": "89cd0f167ce11b9bb7939e83f3c6a13b56cdbaf25f5188c148057efff384492e",
    },
    "fig5": {
        "fig5/infer_density.csv": "1128ae94eb90a7a7c1ca4c05667c8896e9d35870ae5315427cbe4d450b0482f9",
        "fig5/infer_summary.csv": "cde6a3e5d2f64279cda0d1c9a4a096a04eb9f0244b9a5c88d3c2b6e83b601184",
    },
    "fig6": {
        "fig6/compare.csv": "fb1cf760d0ed89815dee77913a4a3103fac0b3da0393f5961dab4852aa9e31a5",
    },
    "fig7": {
        "fig7/entropy.csv": "7c2ff96b0d56fab62bbbeec7db277326bcf718dde99a362cd999d23acc48e60f",
    },
    "fig7_json": {
        "fig7/entropy.csv": "7c2ff96b0d56fab62bbbeec7db277326bcf718dde99a362cd999d23acc48e60f",
        "fig7/entropy.json": "a5ae49ca4853ff58752a10a4a53cae04005f815b8422663b936187b9b288ccb1",
    },
    "fig8": {
        "fig8/infer_density.csv": "7eda1287a6c49093dc2c621c650c5d0a825bc88966940272721d9e017993cab9",
        "fig8/infer_summary.csv": "976174b2c5cde41c359582ac5f63d5eec4fac248d3fe0a0411271e2ff049eda8",
    },
    "fig9": {
        "fig9/compare.csv": "32f2576c51fd592d2a84582f990040d5f6f4c1d720bc880860a9b5c3336f062a",
    },
    "file_compare": {
        "compare.csv": "c42420db3e47c196cac0925b291a509af34f5ddf7d991bb29467f027ef0d144d",
    },
    "file_entropy": {
        "entropy.csv": "ba0f72f33c4cd8507086d98d6d8236dbc4bf3842b881992c5a7afea5436c27d2",
    },
    "sample_compare": {
        "compare.csv": "834330e55143e353adf4cb96277af64d2a2ffeeb0dbb855d466d6d0572ed2fb2",
    },
    "sample_entropy": {
        "entropy.csv": "242017b312d68a5183281ded75a806f1a523a30788c53e96e78ee600acaea651",
    },
    "sample_infer": {
        "infer_density.csv": "bc94c6b385c41344995582ce7d77e7e7fc3e3d73d43a371082cf8cbc5da8daf6",
        "infer_summary.csv": "3183b0f18d42096f802d66a5528af4f308294ea79b96097732b3a870c6c78d00",
    },
    "simulate": {
        "sequence.txt": "21f1ae40549f2f01c574229f323843a6037b3afd4a1f6f34b17e2fd96872312e",
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
    if argv[0] != "simulate":  # simulate takes no --jobs
        argv += ["--jobs", str(jobs)]
    out = tmp_path / "out"
    assert run_cli(argv + ["--out", str(out)]) == 0
    return _digests(out)


class TestGolden:
    @pytest.mark.parametrize("name,jobs", [(name, jobs) for name in sorted(GOLDEN)
                                           for jobs in (1, 2)
                                           if jobs == 1 or GOLDEN[name][0] != "simulate"])
    def test_outputs_match_recorded_digests(self, name, jobs, tmp_path):
        assert _run_golden(name, jobs, tmp_path) == GOLDEN_DIGESTS[name]


def _perfbench_oracle():
    """perfbench/oracle.py, loaded by path as a module of its own: it recomputes the CLI's
    columns with scipy and its own recounts, and calls nothing in bayesmc."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCompareOracle:
    """Every row of the compare golden runs against perfbench's oracle: the log evidence,
    both order posteriors, their sum per N and the (N, k) grid.  A re-pin of these runs'
    digests is judged by this test, not by how small its diff looks."""

    @pytest.mark.parametrize("name", ["fig3", "fig6", "fig9", "sample_compare", "file_compare"])
    def test_rows_match_oracle(self, name, tmp_path, monkeypatch):
        oracle, argv = _perfbench_oracle(), GOLDEN[name]
        if argv[0] == "reproduce":  # average mode
            _, source, recipe = bayesmc.cli.FIGURE_RECIPES[int(argv[2])]
            counts, n_grid = oracle.AverageCounts(source), recipe["n_grid"]
            k_min, k_max = recipe["k"]
        else:
            opts = dict(zip(argv[1::2], argv[2::2]))
            start, stop, step = (int(opts[f"--n-{key}"]) for key in ("start", "stop", "step"))
            n_grid, k_min, k_max = range(start, stop + 1, step), 1, int(opts["--k-max"])
            if "--input" in opts:  # three symbols, whose numbering the evidence does not see
                monkeypatch.setattr(oracle, "ALPHABET_SIZE", 3)
                data = ["abc".index(c) for c in _golden_sequence()]
            else:
                hmm = bayesmc.processes.BUILTIN_SOURCES[opts["--source"]]()
                data = bayesmc.processes.sample_sequence(hmm, n_grid[-1], int(opts["--seed"])).data
            counts = oracle.SequenceCounts(data)
        _run_golden(name, 1, tmp_path)
        checker, grid = oracle.Checker(), [(N, k) for N in n_grid for k in range(k_min, k_max + 1)]
        path = next((tmp_path / "out").rglob("compare.csv"))
        oracle.check_compare(checker, name, path, counts, 1.0, grid)
        # the grid, three columns per row and the two sums per N
        assert checker.attempted == 1 + 3 * len(grid) + 2 * len(n_grid)
        assert checker.failed == 0, dict(checker.failures)
