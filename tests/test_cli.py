"""End-to-end CLI behavior: artifacts, config precedence, exit codes."""

import csv
import json

import numpy as np
import pytest

from pgad import cli
from pgad.checkpoint import load_checkpoint
from pgad.data import write_csv

from conftest import TINY_SYNTH, TINY_TRAIN
from helpers import series_of, strip_digests


def read_csv_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def without_flag(flags, name):
    """Drop `name` and the value that follows it from a flag list."""
    flags = list(flags)
    i = flags.index(name)
    return flags[:i] + flags[i + 2:]


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

    def test_missing_data_exits_two(self, tmp_path):
        assert cli.main(["train", str(tmp_path / "none.csv")]) == 2

    def test_unknown_flag_exits_one(self, cli_workspace):
        assert cli.main([
            "train", str(cli_workspace / "train.csv"), "--warp-speed", "9",
        ]) == 1

    def test_period_per_window_recorded(self, cli_workspace, tmp_path):
        assert cli.main([
            "train", str(cli_workspace / "train.csv"), *TINY_TRAIN,
            "--period-per-window",
            "--checkpoint", str(tmp_path / "m.npz"),
            "--report", str(tmp_path / "r.json"),
            "--loss-curve", str(tmp_path / "c.csv"),
        ]) == 0
        ckpt = load_checkpoint(tmp_path / "m.npz")
        assert ckpt.meta["period_per_window"] is True


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

    def test_unlabeled_test_exits_one(self, cli_workspace, tmp_path):
        code = cli.main([
            "ablate", str(cli_workspace / "train.csv"),
            str(cli_workspace / "train.csv"), *TINY_TRAIN,
            "--out", str(tmp_path / "a.json"),
        ])
        assert code == 1

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

    def test_no_axis_exits_one(self, cli_workspace, tmp_path):
        code = cli.main([
            "sweep", str(cli_workspace / "train.csv"),
            str(cli_workspace / "test.csv"),
            "--out", str(tmp_path / "s.csv"),
        ])
        assert code == 1


class TestConfigCommand:
    def test_show_prints_defaults_as_json(self, capsys):
        assert cli.main(["config", "show"]) == 0
        effective = json.loads(capsys.readouterr().out)
        assert effective["window"] == 64
        assert effective["neighbors"] == 15
        assert effective["kernel_sizes"] == [2, 3, 5]
        assert effective["threshold"] == "max_validation"

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

    def test_unknown_action_exits_one(self):
        assert cli.main(["config", "explain"]) == 1

    def test_bad_value_type_exits_one(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"point_adjust": "yes"}))
        assert cli.main(["config", "show", "--config", str(cfg)]) == 1
