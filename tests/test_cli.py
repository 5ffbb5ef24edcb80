"""End-to-end CLI behavior: artifacts, config precedence, exit codes."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import pgad
from pgad import cli, experiments
from pgad.checkpoint import load_checkpoint
from pgad.data import ingest_csv, write_csv
from pgad.errors import ConfigError
from pgad.scoring import score_series
from pgad.training import MIN_VAL_WINDOWS, TrainConfig

from conftest import TINY_SYNTH, TINY_TRAIN
from helpers import has_glibc, score_files_loop, series_of, strip_digests


def read_csv_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def without_flag(flags, name):
    """Drop `name` and the value that follows it from a flag list."""
    flags = list(flags)
    i = flags.index(name)
    return flags[:i] + flags[i + 2:]


def test_every_exported_name_resolves():
    missing = [name for name in pgad.__all__ if not hasattr(pgad, name)]
    assert not missing


class TestSynth:
    def test_writes_both_halves(self, tmp_path, capsys):
        assert cli.main(["synth", *TINY_SYNTH, "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "train.csv" in out and "test.csv" in out
        train_rows = read_csv_rows(tmp_path / "train.csv")
        test_rows = read_csv_rows(tmp_path / "test.csv")
        assert len(train_rows) == len(test_rows) == 180
        assert "label" not in train_rows[0]
        assert "label" in test_rows[0]

    def test_seed_is_byte_reproducible(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert cli.main(["synth", *TINY_SYNTH, "--out-dir", str(out)]) == 0
        for name in ("train.csv", "test.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_zero_rate_labels_all_zero(self, tmp_path):
        assert cli.main([
            "synth", "--sensors", "3", "--length", "200", "--period", "12",
            "--anomaly-rate", "0", "--seed", "1", "--out-dir", str(tmp_path),
        ]) == 0
        rows = read_csv_rows(tmp_path / "test.csv")
        assert all(row["label"] == "0" for row in rows)

    def test_bad_rate_is_data_error(self, tmp_path):
        code = cli.main([
            "synth", "--anomaly-rate", "0.9", "--out-dir", str(tmp_path),
        ])
        assert code == 2


class TestPeriod:
    def test_reports_generator_period(self, cli_workspace, capsys):
        assert cli.main(["period", str(cli_workspace / "train.csv")]) == 0
        out = capsys.readouterr().out
        assert "period: 12" in out
        assert "aperiodic fallback: no" in out

    def test_spectrum_dump(self, cli_workspace, tmp_path, capsys):
        spectrum_path = tmp_path / "spectrum.csv"
        assert cli.main([
            "period", str(cli_workspace / "train.csv"),
            "--spectrum", str(spectrum_path),
        ]) == 0
        rows = read_csv_rows(spectrum_path)
        assert len(rows) == 90  # half of the 180-step training series
        assert list(rows[0]) == ["bin", "amplitude"]

    def test_missing_file_exits_two(self, tmp_path):
        assert cli.main(["period", str(tmp_path / "none.csv")]) == 2

    def test_non_utf8_file_exits_two(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_bytes(b"a,b\n1,2\n3,\xff\n4,5\n")
        assert cli.main(["period", str(data)]) == 2
        assert f"{data} is not UTF-8 text" in capsys.readouterr().err


class TestTrain:
    def test_artifacts_written(self, cli_workspace):
        report = json.loads((cli_workspace / "report.json").read_text())
        assert report["checkpoint"].endswith("checkpoint.npz")
        assert report["train"]["best_epoch"] >= 0
        curve = read_csv_rows(cli_workspace / "loss_curve.csv")
        assert [row["epoch"] for row in curve] == ["0", "1", "2"]
        ckpt = load_checkpoint(cli_workspace / "checkpoint.npz")
        assert ckpt.meta["period"] == 12
        assert ckpt.meta["train"]["best_epoch"] == report["train"]["best_epoch"]

    def test_config_precedence_three_layers(self, cli_workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 3, "lr": 0.01, "window": 16,
                                   "neighbors": 2, "slots": 2, "patience": 2,
                                   "embed_dim": 8, "spatial_dim": 8,
                                   "channels": 2, "temporal_dim": 8,
                                   "hidden_dim": 16}))
        report_path = tmp_path / "report.json"
        assert cli.main([
            "train", str(cli_workspace / "train.csv"),
            "--config", str(cfg), "--epochs", "2",
            "--checkpoint", str(tmp_path / "m.npz"),
            "--report", str(report_path),
            "--loss-curve", str(tmp_path / "curve.csv"),
        ]) == 0
        report = json.loads(report_path.read_text())["train"]
        # CLI --epochs 2 beats the file's 3; the file's lr beats the default
        assert len(report["epochs"]) == 3
        assert report["lr"] == 0.01
        assert report["seed"] == 0

    def test_ablate_static_graph_records_one_slot(self, cli_workspace, tmp_path):
        assert cli.main([
            "train", str(cli_workspace / "train.csv"),
            *without_flag(TINY_TRAIN, "--slots"),
            "--ablate", "static-graph",
            "--checkpoint", str(tmp_path / "m.npz"),
            "--report", str(tmp_path / "r.json"),
            "--loss-curve", str(tmp_path / "c.csv"),
        ]) == 0
        ckpt = load_checkpoint(tmp_path / "m.npz")
        assert ckpt.config.slots == 1
        assert "emb_1" not in ckpt.params

    def test_ablate_conflicting_slots_rejected(self, cli_workspace, tmp_path):
        code = cli.main([
            "train", str(cli_workspace / "train.csv"), *TINY_TRAIN,
            "--slots", "2", "--ablate", "static-graph",
            "--checkpoint", str(tmp_path / "m.npz"),
        ])
        assert code == 1

    def test_grid_reports_every_cell(self, cli_workspace, tmp_path, capsys):
        report_path = tmp_path / "r.json"
        assert cli.main([
            "train", str(cli_workspace / "train.csv"), *TINY_TRAIN,
            "--grid", "--grid-lrs", "0.005,0.0025",
            "--checkpoint", str(tmp_path / "m.npz"),
            "--report", str(report_path),
            "--loss-curve", str(tmp_path / "c.csv"),
        ]) == 0
        assert "grid winner" in capsys.readouterr().out
        report = json.loads(report_path.read_text())
        assert len(report["grid"]) == 2
        assert {e["lr"] for e in report["grid"]} == {0.005, 0.0025}

    @pytest.mark.parametrize("rates", ["0.01,-1", "0", "0.01,nan"])
    def test_grid_non_positive_rate_exits_one(self, cli_workspace, tmp_path, rates):
        code = cli.main([
            "train", str(cli_workspace / "train.csv"), *TINY_TRAIN,
            "--grid", "--grid-lrs", rates,
            "--checkpoint", str(tmp_path / "m.npz"),
            "--report", str(tmp_path / "r.json"),
            "--loss-curve", str(tmp_path / "c.csv"),
        ])
        assert code == 1
        assert not (tmp_path / "m.npz").exists()

    @pytest.mark.parametrize("rates", ["", ","], ids=["empty", "comma"])
    def test_grid_lrs_naming_no_rate_exits_one(self, cli_workspace, tmp_path, capsys, rates):
        code = cli.main([
            "train", str(cli_workspace / "train.csv"), *TINY_TRAIN,
            "--grid", "--grid-lrs", rates,
            "--checkpoint", str(tmp_path / "m.npz"),
            "--report", str(tmp_path / "r.json"),
            "--loss-curve", str(tmp_path / "c.csv"),
        ])
        assert code == 1
        assert "error: --grid-lrs must name at least one rate" in capsys.readouterr().err
        assert not (tmp_path / "m.npz").exists()

    @pytest.mark.parametrize("rates", ["abc", "0.005"])
    def test_grid_lrs_without_grid_exits_one(self, cli_workspace, tmp_path, capsys, rates):
        code = cli.main([
            "train", str(cli_workspace / "train.csv"), *TINY_TRAIN, "--grid-lrs", rates,
            "--checkpoint", str(tmp_path / "m.npz"),
            "--report", str(tmp_path / "r.json"),
            "--loss-curve", str(tmp_path / "c.csv"),
        ])
        assert code == 1
        assert "error: --grid-lrs needs --grid" in capsys.readouterr().err
        assert not (tmp_path / "m.npz").exists()

    @pytest.mark.parametrize("flag", ["--lr", "--grad-clip"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_rate_or_clip_exits_one(self, cli_workspace, tmp_path, flag, value):
        code = cli.main([
            "train", str(cli_workspace / "train.csv"), *TINY_TRAIN, flag, value,
            "--checkpoint", str(tmp_path / "m.npz"),
        ])
        assert code == 1
        assert not (tmp_path / "m.npz").exists()

    @pytest.mark.parametrize("key", ["lr", "grad_clip"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "nan"],
                             ids=["NaN", "Infinity", "string-nan"])
    def test_non_finite_rate_or_clip_config_key_exits_one(self, cli_workspace, tmp_path,
                                                           key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))  # NaN and Infinity literals
        code = cli.main([
            "train", str(cli_workspace / "train.csv"), *TINY_TRAIN,
            "--config", str(cfg), "--checkpoint", str(tmp_path / "m.npz"),
        ])
        assert code == 1
        assert not (tmp_path / "m.npz").exists()

    def test_negative_threads_exits_one(self, cli_workspace, tmp_path):
        code = cli.main([
            "train", str(cli_workspace / "train.csv"), *TINY_TRAIN, "--threads", "-3",
            "--checkpoint", str(tmp_path / "m.npz"), "--report", str(tmp_path / "r.json"),
            "--loss-curve", str(tmp_path / "c.csv"),
        ])
        assert code == 1
        assert not (tmp_path / "m.npz").exists()

    def test_negative_threads_config_key_exits_one(self, cli_workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threads": -1}))
        code = cli.main([
            "train", str(cli_workspace / "train.csv"), *TINY_TRAIN, "--config", str(cfg),
            "--checkpoint", str(tmp_path / "m.npz"), "--report", str(tmp_path / "r.json"),
            "--loss-curve", str(tmp_path / "c.csv"),
        ])
        assert code == 1
        assert not (tmp_path / "m.npz").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_three_with_partial_report(self, cli_workspace, tmp_path):
        report_path = tmp_path / "r.json"
        code = cli.main([
            "train", str(cli_workspace / "train.csv"), *TINY_TRAIN,
            "--lr", "1e100", "--grad-clip", "0",
            "--checkpoint", str(tmp_path / "m.npz"),
            "--report", str(report_path),
            "--loss-curve", str(tmp_path / "c.csv"),
        ])
        assert code == 3
        partial = json.loads(report_path.read_text())
        assert "error" in partial
        assert partial["train"]["epochs"]

    def test_patience_above_epochs_exits_one(self, cli_workspace):
        code = cli.main([
            "train", str(cli_workspace / "train.csv"),
            "--epochs", "2", "--patience", "5",
        ])
        assert code == 1

    def test_default_patience_above_epochs_names_both(self, cli_workspace, capsys):
        """`--epochs 2` alone meets the default patience 10: the error names
        both values."""
        code = cli.main(["train", str(cli_workspace / "train.csv"), "--epochs", "2"])
        assert code == 1
        assert "error: patience 10 must not exceed epochs 2" in capsys.readouterr().err

    def test_missing_data_exits_two(self, tmp_path):
        assert cli.main(["train", str(tmp_path / "none.csv")]) == 2

    def test_unknown_flag_exits_one(self, cli_workspace):
        assert cli.main([
            "train", str(cli_workspace / "train.csv"), "--warp-speed", "9",
        ]) == 1


class TestScore:
    def test_scores_csv_schema_and_metrics(self, cli_workspace, tmp_path):
        scores = tmp_path / "scores.csv"
        metrics = tmp_path / "metrics.json"
        assert cli.main([
            "score", str(cli_workspace / "checkpoint.npz"),
            str(cli_workspace / "test.csv"),
            "--scores", str(scores), "--metrics", str(metrics),
        ]) == 0
        rows = read_csv_rows(scores)
        assert list(rows[0]) == [
            "t", "score", "smoothed", "label_pred", "label_true", "top_sensor"
        ]
        assert rows[0]["t"] == "16"
        assert len(rows) == 180 - 16
        assert rows[0]["top_sensor"].startswith("s")
        payload = json.loads(metrics.read_text())
        assert payload["threshold_mode"] == "max_validation"
        assert set(payload["metrics"]) >= {"precision", "recall", "f1"}

    def test_fixed_zero_flags_positive_smoothed(self, cli_workspace, tmp_path):
        scores = tmp_path / "scores.csv"
        assert cli.main([
            "score", str(cli_workspace / "checkpoint.npz"),
            str(cli_workspace / "test.csv"),
            "--threshold", "fixed:0",
            "--scores", str(scores), "--metrics", str(tmp_path / "m.json"),
        ]) == 0
        for row in read_csv_rows(scores):
            assert (row["label_pred"] == "1") == (float(row["smoothed"]) > 0.0)

    def test_unlabeled_input_skips_truth_column(self, cli_workspace, tmp_path):
        scores = tmp_path / "scores.csv"
        metrics = tmp_path / "metrics.json"
        assert cli.main([
            "score", str(cli_workspace / "checkpoint.npz"),
            str(cli_workspace / "train.csv"),
            "--scores", str(scores), "--metrics", str(metrics),
        ]) == 0
        rows = read_csv_rows(scores)
        assert "label_true" not in rows[0]
        assert "metrics" not in json.loads(metrics.read_text())

    def test_unlabeled_best_f1_exits_one(self, cli_workspace, tmp_path):
        code = cli.main([
            "score", str(cli_workspace / "checkpoint.npz"),
            str(cli_workspace / "train.csv"),
            "--threshold", "best-f1",
            "--scores", str(tmp_path / "s.csv"),
            "--metrics", str(tmp_path / "m.json"),
        ])
        assert code == 1

    def test_unknown_threshold_exits_one(self, cli_workspace, tmp_path):
        code = cli.main([
            "score", str(cli_workspace / "checkpoint.npz"),
            str(cli_workspace / "test.csv"),
            "--threshold", "p99",
            "--scores", str(tmp_path / "s.csv"),
        ])
        assert code == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_fixed_threshold_exits_one(self, cli_workspace, tmp_path, capsys,
                                                  value):
        metrics = tmp_path / "m.json"
        code = cli.main([
            "score", str(cli_workspace / "checkpoint.npz"),
            str(cli_workspace / "test.csv"),
            "--threshold", f"fixed:{value}",
            "--scores", str(tmp_path / "s.csv"), "--metrics", str(metrics),
        ])
        assert code == 1
        assert "must be finite" in capsys.readouterr().err
        assert not metrics.exists()

    def test_fixed_threshold_keeps_sign_and_exponent(self):
        assert cli.parse_threshold("fixed:-0.5") == ("fixed", -0.5)
        assert cli.parse_threshold("fixed:1e-3") == ("fixed", 0.001)
        assert cli.parse_threshold("best-f1") == ("best_f1", None)
        for text in ("fixed", "best-f1:0.5", "fixed:1_e3"):
            with pytest.raises(ConfigError):
                cli.parse_threshold(text)

    def test_thread_counts_write_identical_files(self, cli_workspace, tmp_path):
        # 164 windows of 4 sensors run in two predict chunks
        written = []
        for threads in ("1", "2", "3"):
            scores, metrics = tmp_path / f"s{threads}.csv", tmp_path / f"m{threads}.json"
            assert cli.main([
                "score", str(cli_workspace / "checkpoint.npz"),
                str(cli_workspace / "test.csv"), "--threshold", "best-f1",
                "--threads", threads, "--scores", str(scores), "--metrics", str(metrics),
            ]) == 0
            written.append((scores.read_bytes(), metrics.read_bytes()))
        assert written[1] == written[0]
        assert written[2] == written[0]

    def test_swapped_sensor_columns_write_identical_files(self, cli_workspace, tmp_path):
        rows = list(csv.reader((cli_workspace / "test.csv").open(newline="")))
        assert rows[0][:2] == ["s0", "s1"]
        swapped = tmp_path / "swapped.csv"
        with swapped.open("w", newline="") as fh:
            csv.writer(fh).writerows([row[1::-1] + row[2:] for row in rows])
        written = []
        for data in (cli_workspace / "test.csv", swapped):
            scores, metrics = tmp_path / f"s-{data.stem}.csv", tmp_path / f"m-{data.stem}.json"
            assert cli.main([
                "score", str(cli_workspace / "checkpoint.npz"), str(data),
                "--threshold", "best-f1", "--scores", str(scores), "--metrics", str(metrics),
            ]) == 0
            written.append((scores.read_bytes(), metrics.read_bytes()))
        assert written[1] == written[0]

    def test_byte_order_mark_writes_identical_files(self, cli_workspace, tmp_path):
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + (cli_workspace / "test.csv").read_bytes())
        written = []
        for data in (cli_workspace / "test.csv", bom):
            scores, metrics = tmp_path / f"s-{data.stem}.csv", tmp_path / f"m-{data.stem}.json"
            assert cli.main([
                "score", str(cli_workspace / "checkpoint.npz"), str(data),
                "--threshold", "best-f1", "--scores", str(scores), "--metrics", str(metrics),
            ]) == 0
            written.append((scores.read_bytes(), metrics.read_bytes()))
        assert written[1] == written[0]

    @pytest.mark.parametrize("body", [b"s0,s1\n1,\xff\n", b"s0,s1\n1," + b"9" * 140_000 + b"\n"],
                             ids=["not-utf8", "over-field-limit"])
    def test_unreadable_test_file_exits_two(self, cli_workspace, tmp_path, capsys, body):
        data = tmp_path / "test.csv"
        data.write_bytes(body)
        code = cli.main([
            "score", str(cli_workspace / "checkpoint.npz"), str(data),
            "--scores", str(tmp_path / "s.csv"), "--metrics", str(tmp_path / "m.json"),
        ])
        assert code == 2
        assert str(data) in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("header, message", [
        ("s0,s1,s2,x3,label", "missing ['s3'], unexpected ['x3']"),
        ("s0,s1,s0,s3,label", "duplicate sensor names ['s0']"),
    ])
    def test_unmatched_sensor_names_exit_two(self, cli_workspace, tmp_path, capsys,
                                             header, message):
        lines = (cli_workspace / "test.csv").read_text().splitlines(keepends=True)
        data = tmp_path / "test.csv"
        data.write_text(header + "\n" + "".join(lines[1:]))
        code = cli.main([
            "score", str(cli_workspace / "checkpoint.npz"), str(data),
            "--scores", str(tmp_path / "s.csv"), "--metrics", str(tmp_path / "m.json"),
        ])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("data", ["test.csv", "train.csv"], ids=["labeled", "unlabeled"])
    def test_row_writer_matches_the_row_loop(self, cli_workspace, tmp_path, data):
        scores, plot = tmp_path / "scores.csv", tmp_path / "plot.dat"
        checkpoint = cli_workspace / "checkpoint.npz"
        assert cli.main([
            "score", str(checkpoint), str(cli_workspace / data), "--threshold", "fixed:0.5",
            "--scores", str(scores), "--metrics", str(tmp_path / "m.json"), "--plot", str(plot),
        ]) == 0
        ckpt = load_checkpoint(checkpoint)
        trace, _ = score_series(ckpt, ingest_csv(cli_workspace / data),
                                threshold_mode="fixed", fixed_value=0.5)
        assert (trace.labels_true is None) == (data == "train.csv")
        assert 0 < trace.labels_pred.sum() < trace.labels_pred.size
        want_scores, want_plot = score_files_loop(trace, ckpt.meta["sensor_names"])
        assert scores.read_bytes() == want_scores.encode()
        assert plot.read_bytes() == want_plot.encode()

    def test_zero_threads_means_one_per_available_cpu_up_to_the_cap(self, monkeypatch):
        args = cli.build_parser().parse_args(["score", "m.npz", "d.csv", "--threads", "0"])
        for cpus, expected in ((1, 1), (2, 2), (64, cli.DEFAULT_THREADS_CAP)):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            assert cli._threads(args, {}) == expected
            assert cli._threads(args, {"threads": 3}) == expected
        args.threads = None
        assert cli._threads(args, {"threads": 3}) == 3
        args.threads = 5
        assert cli._threads(args, {}) == 5  # an explicit count is not capped

    def test_negative_threads_exits_one(self, cli_workspace, tmp_path):
        metrics = tmp_path / "m.json"
        code = cli.main([
            "score", str(cli_workspace / "checkpoint.npz"), str(cli_workspace / "test.csv"),
            "--threads", "-2", "--scores", str(tmp_path / "s.csv"), "--metrics", str(metrics),
        ])
        assert code == 1
        assert not metrics.exists()

    def test_ma_window_below_one_exits_one_before_loading(self, tmp_path):
        # the checkpoint does not exist: the setting is checked first
        missing = [str(tmp_path / "none.npz"), str(tmp_path / "none.csv")]
        assert cli.main(["score", *missing, "--ma-window", "0"]) == 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ma_window": -2}))
        assert cli.main(["score", *missing, "--config", str(cfg)]) == 1

    def test_missing_checkpoint_exits_two(self, cli_workspace, tmp_path):
        code = cli.main([
            "score", str(tmp_path / "none.npz"), str(cli_workspace / "test.csv"),
        ])
        assert code == 2

    def test_plot_file_contains_threshold_column(self, cli_workspace, tmp_path):
        plot = tmp_path / "plot.dat"
        assert cli.main([
            "score", str(cli_workspace / "checkpoint.npz"),
            str(cli_workspace / "test.csv"),
            "--scores", str(tmp_path / "s.csv"),
            "--metrics", str(tmp_path / "m.json"),
            "--plot", str(plot),
        ]) == 0
        lines = plot.read_text().splitlines()
        assert lines[0].startswith("# t score smoothed threshold")
        assert len(lines[1].split()) == 6


class TestGraphDump:
    def test_edge_lists_per_slot(self, cli_workspace, tmp_path, capsys):
        assert cli.main([
            "graph", str(cli_workspace / "checkpoint.npz"),
            "--out-dir", str(tmp_path),
        ]) == 0
        for slot in (0, 1):
            rows = read_csv_rows(tmp_path / f"slot_{slot}_edges.csv")
            assert list(rows[0]) == ["source", "target", "similarity"]
            assert len(rows) == 4 * 2  # k=2 in-neighbors for each of 4 sensors
            assert all(-1.0 <= float(r["similarity"]) <= 1.0 for r in rows)


def test_perfbench_hook_counts_scored_windows(cli_workspace, tmp_path):
    """The benchmark's span hook reads `Model.predict`'s first argument as
    the window count; it must equal the windows `score` reports."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    spans = tmp_path / "spans.json"
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "spans.py"), str(spans), "score",
         str(cli_workspace / "checkpoint.npz"), str(cli_workspace / "test.csv"),
         "--scores", str(tmp_path / "s.csv"), "--metrics", str(tmp_path / "m.json")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    predicts = [s for s in json.loads(spans.read_text())["spans"]
                if s["name"] == "model.predict"]
    assert len(predicts) == 1
    assert predicts[0]["windows"] == json.loads((tmp_path / "m.json").read_text())["n_scored"]


def tampered_checkpoint(source, tmp_path, mutate):
    """Copy of a checkpoint after `mutate(meta, arrays)` edited it."""
    data = dict(np.load(source, allow_pickle=False))
    meta = json.loads(str(data["meta"]))
    mutate(meta, data)
    data["meta"] = np.array(json.dumps(meta))
    path = tmp_path / "tampered.npz"
    np.savez_compressed(path, **data)
    return path


class TestCorruptCheckpoint:
    def exit_codes(self, cli_workspace, tmp_path, path):
        score = cli.main([
            "score", str(path), str(cli_workspace / "test.csv"),
            "--scores", str(tmp_path / "s.csv"), "--metrics", str(tmp_path / "m.json"),
        ])
        graph = cli.main(["graph", str(path), "--out-dir", str(tmp_path / "graphs")])
        return score, graph

    def test_altered_weights_exit_two(self, cli_workspace, tmp_path):
        def bump(meta, data):
            data["param__mlp_b2"] = data["param__mlp_b2"] + 1.0

        path = tampered_checkpoint(cli_workspace / "checkpoint.npz", tmp_path, bump)
        assert self.exit_codes(cli_workspace, tmp_path, path) == (2, 2)

    @pytest.mark.parametrize("key,value", [("period", 0), ("neighbors", 9)])
    def test_invalid_meta_exits_two(self, cli_workspace, tmp_path, key, value):
        path = tampered_checkpoint(
            cli_workspace / "checkpoint.npz", tmp_path,
            lambda meta, data: meta.update({key: value}),
        )
        assert self.exit_codes(cli_workspace, tmp_path, path) == (2, 2)

    def test_per_window_period_checkpoint_exits_two(self, cli_workspace, tmp_path):
        path = tampered_checkpoint(
            cli_workspace / "checkpoint.npz", tmp_path,
            lambda meta, data: meta.update(period_per_window=True),
        )
        assert self.exit_codes(cli_workspace, tmp_path, path) == (2, 2)

    def test_doubled_val_errors_exit_two(self, cli_workspace, tmp_path):
        def double(meta, data):
            data["val_errors"] = 2.0 * data["val_errors"]

        path = tampered_checkpoint(cli_workspace / "checkpoint.npz", tmp_path, double)
        assert self.exit_codes(cli_workspace, tmp_path, path) == (2, 2)

    def test_stripped_digests_exit_two(self, cli_workspace, tmp_path):
        path = tampered_checkpoint(cli_workspace / "checkpoint.npz", tmp_path,
                                   strip_digests)
        assert self.exit_codes(cli_workspace, tmp_path, path) == (2, 2)

    @pytest.mark.parametrize("key", ["sensor_names", "shift", "scale"])
    def test_truncated_sensor_lists_exit_two(self, cli_workspace, tmp_path, key):
        def truncate(meta, data):
            holder = meta if key == "sensor_names" else meta["normalization"]
            holder[key] = holder[key][:2]

        path = tampered_checkpoint(cli_workspace / "checkpoint.npz", tmp_path, truncate)
        assert self.exit_codes(cli_workspace, tmp_path, path) == (2, 2)

    @pytest.mark.parametrize(
        "key,value", [("shift", "0.5"), ("scale", -1.0), ("mode", "robust")]
    )
    def test_invalid_normalization_exits_two(self, cli_workspace, tmp_path, key, value):
        def corrupt(meta, data):
            norm = meta["normalization"]
            if key == "mode":
                norm[key] = value
            else:
                norm[key][0] = value

        path = tampered_checkpoint(cli_workspace / "checkpoint.npz", tmp_path, corrupt)
        assert self.exit_codes(cli_workspace, tmp_path, path) == (2, 2)


class TestAblateCommand:
    def test_table_and_json(self, cli_workspace, tmp_path, capsys):
        out = tmp_path / "ablation.json"
        assert cli.main([
            "ablate", str(cli_workspace / "train.csv"),
            str(cli_workspace / "test.csv"), *TINY_TRAIN,
            "--epochs", "1", "--patience", "1", "--out", str(out),
        ]) == 0
        text = capsys.readouterr().out
        assert "full" in text and "static-graph" in text and "no-temporal" in text
        payload = json.loads(out.read_text())
        assert set(payload["variants"]) == {"full", "static_graph", "no_temporal"}
        assert payload["seeds"] == [0]

    def test_skip_drops_a_row(self, cli_workspace, tmp_path, capsys):
        out = tmp_path / "ablation.json"
        assert cli.main([
            "ablate", str(cli_workspace / "train.csv"),
            str(cli_workspace / "test.csv"), *TINY_TRAIN,
            "--epochs", "1", "--patience", "1",
            "--skip", "no-temporal", "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert set(payload["variants"]) == {"full", "static_graph"}

    def test_ma_window_below_one_exits_one_before_training(self, cli_workspace, tmp_path,
                                                           monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("ablation trained before checking its settings")

        monkeypatch.setattr(cli, "ablation_f1s", no_training)
        code = cli.main([
            "ablate", str(cli_workspace / "train.csv"),
            str(cli_workspace / "test.csv"), *TINY_TRAIN,
            "--ma-window", "0", "--out", str(tmp_path / "a.json"),
        ])
        assert code == 1

    def test_unlabeled_test_exits_one(self, cli_workspace, tmp_path):
        code = cli.main([
            "ablate", str(cli_workspace / "train.csv"),
            str(cli_workspace / "train.csv"), *TINY_TRAIN,
            "--out", str(tmp_path / "a.json"),
        ])
        assert code == 1

    @pytest.mark.parametrize("command, axis", [("ablate", []), ("sweep", ["--neighbors", "1"])],
                             ids=["ablate", "sweep"])
    def test_empty_seeds_exits_one_before_any_cell(self, cli_workspace, tmp_path, capsys,
                                                   monkeypatch, command, axis):
        trained = []
        monkeypatch.setattr(experiments, "train", lambda *args: trained.append(args))
        code = cli.main([
            command, str(cli_workspace / "train.csv"), str(cli_workspace / "test.csv"),
            *without_flag(TINY_TRAIN, "--neighbors"), *axis, "--seeds", ",",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        assert "error: experiments need at least one seed" in capsys.readouterr().err
        assert trained == []
        assert not (tmp_path / "out").exists()

    def test_aperiodic_fallback_warns(self, tmp_path, caplog):
        rng = np.random.default_rng(0)
        train_series = series_of(np.full((3, 120), 1.0))
        labels = np.zeros(120, dtype=np.int64)
        labels[60:66] = 1
        test_series = series_of(
            rng.normal(size=(3, 120)), labels=labels
        )
        write_csv(train_series, tmp_path / "train.csv")
        write_csv(test_series, tmp_path / "test.csv")
        with caplog.at_level("WARNING"):
            code = cli.main([
                "ablate", str(tmp_path / "train.csv"), str(tmp_path / "test.csv"),
                *TINY_TRAIN, "--epochs", "1", "--patience", "1",
                "--out", str(tmp_path / "a.json"),
            ])
        assert code == 0
        assert any("aperiodic" in rec.message for rec in caplog.records)


class TestSweepCommand:
    def test_neighbor_sweep_csv(self, cli_workspace, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert cli.main([
            "sweep", str(cli_workspace / "train.csv"),
            str(cli_workspace / "test.csv"),
            *without_flag(TINY_TRAIN, "--neighbors"),
            "--epochs", "1", "--patience", "1",
            "--neighbors", "1,2", "--out", str(out),
        ]) == 0
        rows = read_csv_rows(out)
        assert list(rows[0]) == ["neighbors", "f1_mean", "f1_seed0"]
        assert [r["neighbors"] for r in rows] == ["1", "2"]

    def test_filter_sweep_csv(self, cli_workspace, tmp_path):
        out = tmp_path / "sweep.csv"
        assert cli.main([
            "sweep", str(cli_workspace / "train.csv"),
            str(cli_workspace / "test.csv"),
            *without_flag(TINY_TRAIN, "--neighbors"),
            "--epochs", "1", "--patience", "1",
            "--filters", "4,8", "--out", str(out),
        ]) == 0
        rows = read_csv_rows(out)
        assert list(rows[0]) == ["filters", "f1_mean", "f1_seed0"]
        assert [r["filters"] for r in rows] == ["4", "8"]

    def test_both_axes_exit_one(self, cli_workspace, tmp_path):
        code = cli.main([
            "sweep", str(cli_workspace / "train.csv"),
            str(cli_workspace / "test.csv"),
            "--neighbors", "1,2", "--filters", "4,8",
            "--out", str(tmp_path / "s.csv"),
        ])
        assert code == 1

    @pytest.mark.parametrize("axis, message", [
        ("--filters", "sweep filters=0: spatial_dim must be positive"),
        ("--neighbors", "sweep neighbors=0: neighbors must be >= 1"),
    ], ids=["filters", "neighbors"])
    def test_invalid_swept_value_exits_one(self, cli_workspace, tmp_path, axis, message):
        """`pgad sweep` with a swept value that makes an invalid config ends
        with exit 1 and one `error:` line, not a traceback."""
        root = Path(__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from pgad.cli import main; sys.exit(main())",
             "sweep", str(cli_workspace / "train.csv"), str(cli_workspace / "test.csv"),
             *without_flag(TINY_TRAIN, "--neighbors"), axis, "0",
             "--out", str(tmp_path / "s.csv")],
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 1
        assert f"error: {message}" in done.stderr
        assert "Traceback" not in done.stderr
        assert not (tmp_path / "s.csv").exists()

    def test_no_axis_exits_one(self, cli_workspace, tmp_path):
        code = cli.main([
            "sweep", str(cli_workspace / "train.csv"),
            str(cli_workspace / "test.csv"),
            "--out", str(tmp_path / "s.csv"),
        ])
        assert code == 1


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_python(code: str, **env_vars) -> str:
    """stdout of `python -c code` with pgad on the path, the BLAS thread
    variables unset, and `env_vars` set."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(env_vars, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


class TestImportSideEffects:
    def test_cli_import_pins_unset_blas_threads(self):
        out = run_python("import os, pgad.cli; "
                         f"print([os.environ[v] for v in {BLAS_THREAD_VARS!r}])")
        assert out == "['1', '1', '1']"

    def test_cli_import_keeps_a_set_value(self):
        out = run_python("import os, pgad.cli; "
                         f"print([os.environ.get(v) for v in {BLAS_THREAD_VARS!r}])",
                         OPENBLAS_NUM_THREADS="2")
        assert out == "['2', None, None]"

    def test_cli_import_pins_nothing_when_omp_threads_set(self):
        # OpenBLAS reads its own variable first: a pinned one would
        # override the user's OMP_NUM_THREADS
        out = run_python("import os, pgad.cli; "
                         f"print([os.environ.get(v) for v in {BLAS_THREAD_VARS!r}])",
                         OMP_NUM_THREADS="2")
        assert out == "[None, '2', None]"

    def test_package_import_loads_no_numpy(self):
        assert run_python("import sys, pgad; print('numpy' in sys.modules)") == "False"

    def test_cli_import_loads_no_multiprocessing(self):
        out = run_python("import sys, pgad.cli; print('multiprocessing' in sys.modules)")
        assert out == "False"

    def test_train_and_score_load_no_numpy_ma(self, tmp_path):
        """numpy's `unique` and `quantile` import numpy.ma on their first
        call, which takes longer than `score`'s whole calibration; `train`
        and `score`, with each threshold policy, call neither."""
        code = textwrap.dedent(f"""\
            import sys
            from pgad import cli
            root = {str(tmp_path)!r}
            assert cli.main(["synth", *{TINY_SYNTH!r}, "--out-dir", root]) == 0
            assert cli.main(["train", root + "/train.csv", *{TINY_TRAIN!r},
                             "--checkpoint", root + "/model.npz",
                             "--report", root + "/report.json",
                             "--loss-curve", root + "/curve.csv"]) == 0
            for flags in ([], ["--threshold", "best-f1", "--point-adjust"]):
                assert cli.main(["score", root + "/model.npz", root + "/test.csv",
                                 "--scores", root + "/scores.csv",
                                 "--metrics", root + "/metrics.json", *flags]) == 0
            print("numpy.ma" in sys.modules)
        """)
        assert run_python(code).splitlines()[-1] == "False"


class TestMallocPin:
    @pytest.mark.skipif(not has_glibc(), reason="the pin is glibc's mallopt")
    def test_repeated_predict_takes_no_page_faults(self):
        """After `main`'s pin, a second predict over the same series reuses
        the heap pages the first one touched. Without it, glibc trims the
        heap after each chunk: about 500 minor faults per chunk at N=8."""
        code = textwrap.dedent(f"""\
            import sys
            from pgad import cli
            sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
            from helpers import repeated_predict_faults
            assert cli.main(["config", "show"]) == 0
            for workers in (1, 2):
                print(workers, *repeated_predict_faults(0, workers))
        """)
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        runs = [line.split() for line in done.stdout.splitlines()[-2:]]
        assert [workers for workers, _, _ in runs] == ["1", "2"]
        for workers, chunks, faults in runs:
            assert int(chunks) == 10
            assert int(faults) < 50 * int(chunks), (workers, faults)

    @pytest.mark.parametrize("var", ["MALLOC_ARENA_MAX", "MALLOC_TOP_PAD_", "GLIBC_TUNABLES"])
    def test_a_user_malloc_setting_skips_the_pin(self, monkeypatch, var):
        monkeypatch.setenv(var, "1")
        assert pgad.pin_malloc_thresholds() is False

    @pytest.mark.skipif(not has_glibc(), reason="the pin is glibc's mallopt")
    def test_pins_on_glibc(self, monkeypatch):
        for var in list(os.environ):
            if var.startswith("MALLOC_") or var == "GLIBC_TUNABLES":
                monkeypatch.delenv(var)
        assert pgad.pin_malloc_thresholds() is True


class TestConfigCommand:
    def test_show_prints_defaults_as_json(self, capsys):
        assert cli.main(["config", "show"]) == 0
        effective = json.loads(capsys.readouterr().out)
        assert effective["window"] == 64
        assert effective["neighbors"] == 15
        assert effective["kernel_sizes"] == [2, 3, 5]
        assert effective["threshold"] == "max_validation"
        assert effective["threads"] == 0

    def test_show_reflects_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 7, "threshold": "best_f1"}))
        assert cli.main(["config", "show", "--config", str(cfg)]) == 0
        effective = json.loads(capsys.readouterr().out)
        assert effective["epochs"] == 7
        assert effective["threshold"] == "best_f1"

    def test_unknown_config_key_exits_one(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"momentum": 0.9}))
        assert cli.main(["config", "show", "--config", str(cfg)]) == 1

    def test_removed_period_per_window_key_exits_one(self, cli_workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"period_per_window": True}))
        assert cli.main(["config", "show", "--config", str(cfg)]) == 1
        assert cli.main([
            "train", str(cli_workspace / "train.csv"), *TINY_TRAIN,
            "--config", str(cfg), "--checkpoint", str(tmp_path / "m.npz"),
        ]) == 1
        assert not (tmp_path / "m.npz").exists()

    def test_removed_min_val_windows_key_exits_one(self, cli_workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"min_val_windows": 2}))
        assert cli.main(["config", "show", "--config", str(cfg)]) == 1
        assert cli.main([
            "train", str(cli_workspace / "train.csv"), *TINY_TRAIN,
            "--config", str(cfg), "--checkpoint", str(tmp_path / "m.npz"),
        ]) == 1
        assert not (tmp_path / "m.npz").exists()

    def test_short_series_checkpoint_scores(self, tmp_path):
        # 48 training rows leave 32 windows, whose 10% split is 3: the split
        # must still keep the windows score calibration needs
        synth = ["--sensors", "4", "--length", "96", "--period", "12", "--seed", "3"]
        assert cli.main(["synth", *synth, "--out-dir", str(tmp_path)]) == 0
        assert cli.main([
            "train", str(tmp_path / "train.csv"), *TINY_TRAIN,
            "--checkpoint", str(tmp_path / "m.npz"),
            "--report", str(tmp_path / "r.json"),
            "--loss-curve", str(tmp_path / "c.csv"),
        ]) == 0
        report = json.loads((tmp_path / "r.json").read_text())["train"]
        assert report["n_val"] >= MIN_VAL_WINDOWS
        assert cli.main([
            "score", str(tmp_path / "m.npz"), str(tmp_path / "test.csv"),
            "--scores", str(tmp_path / "s.csv"), "--metrics", str(tmp_path / "m.json"),
        ]) == 0

    def test_schema_is_train_config_plus_command_keys(self):
        command_keys = {"ma_window", "threshold", "point_adjust", "sensors", "length",
                        "period", "anomaly_rate", "threads"}
        fields = {field.name for field in dataclasses.fields(TrainConfig)}
        assert not fields & command_keys
        assert set(cli.CONFIG_SCHEMA) == fields | command_keys

    def test_unknown_action_exits_one(self):
        assert cli.main(["config", "explain"]) == 1

    @pytest.mark.parametrize("key, value", [
        ("epochs", 2.7), ("window", True), ("threads", False), ("ma_window", 1.5),
        ("epochs", float("inf")), ("lr", True), ("anomaly_rate", False),
        ("kernel_sizes", [True, 3]),
    ])
    def test_bool_or_fractional_number_exits_one(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))  # an Infinity literal, too
        assert cli.main(["config", "show", "--config", str(cfg)]) == 1
        assert f"config key {key!r}" in capsys.readouterr().err

    def test_whole_numbers_keep_their_type(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 3.0, "lr": 1}))
        assert cli.main(["config", "show", "--config", str(cfg)]) == 0
        effective = json.loads(capsys.readouterr().out)
        assert effective["epochs"] == 3 and isinstance(effective["epochs"], int)
        assert effective["lr"] == 1.0 and isinstance(effective["lr"], float)

    def test_bad_value_type_exits_one(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"point_adjust": "yes"}))
        assert cli.main(["config", "show", "--config", str(cfg)]) == 1
