"""CSV ingestion, normalization, windowing, and the synthetic generator."""

import numpy as np
import pytest

from pgad import data as data_module
from pgad.data import (
    NormalizationStats,
    SeriesMatrix,
    fit_normalizer,
    generate_synthetic,
    ingest_csv,
    make_windows,
    write_csv,
)
from pgad.errors import DataError

from helpers import series_of, write_csv_rows


class TestCsvRoundTrip:
    def test_values_and_names_preserved(self, tmp_path):
        rng = np.random.default_rng(0)
        series = series_of(rng.normal(size=(3, 17)), names=["a", "b", "c"])
        path = tmp_path / "series.csv"
        write_csv(series, path)
        back = ingest_csv(path)
        assert back.sensor_names == ["a", "b", "c"]
        np.testing.assert_array_equal(back.values, series.values)
        assert back.labels is None

    def test_labels_preserved(self, tmp_path):
        labels = np.array([0, 1, 1, 0, 0])
        series = series_of(np.arange(10.0).reshape(2, 5), labels=labels)
        path = tmp_path / "series.csv"
        write_csv(series, path)
        back = ingest_csv(path)
        np.testing.assert_array_equal(back.labels, labels)

    @pytest.mark.parametrize("labeled", [True, False], ids=["labeled", "unlabeled"])
    def test_bytes_equal_csv_module_writer(self, tmp_path, labeled):
        """Quoted names, signed zero, the smallest subnormal, a float that
        reprs in exponent form, and both labels, byte for byte."""
        values = np.array([[-0.0, 5e-324, 1e16, 0.1], [1.5, -2.25e-7, 0.0, -1e16]])
        labels = [0, 1, 1, 0] if labeled else None
        series = series_of(values, names=['a,b', 'say "hi"'], labels=labels)
        write_csv(series, tmp_path / "fast.csv")
        write_csv_rows(series, tmp_path / "rows.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError):
            ingest_csv(tmp_path / "absent.csv")

    def test_non_numeric_cell_names_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n1.5,oops\n")
        with pytest.raises(DataError, match="b"):
            ingest_csv(path)

    def test_duplicate_sensor_names_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("a,b,a,label\n1.0,2.0,3.0,0\n1.5,2.5,3.5,1\n")
        with pytest.raises(DataError, match=r"duplicate sensor names \['a'\]"):
            ingest_csv(path)

    def test_too_short_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(DataError):
            ingest_csv(path)

    def test_non_finite_rows_dropped(self, tmp_path, caplog):
        path = tmp_path / "gaps.csv"
        path.write_text("a,b\n1.0,2.0\nnan,3.0\n4.0,5.0\n")
        with caplog.at_level("WARNING"):
            series = ingest_csv(path)
        assert series.length == 2
        np.testing.assert_array_equal(series.values, [[1.0, 4.0], [2.0, 5.0]])
        assert any("row" in rec.message for rec in caplog.records)


    def test_inf_row_and_nan_label_dropped_and_counted(self, tmp_path, caplog):
        path = tmp_path / "gaps.csv"
        path.write_text("a,label,b\n1.0,0,2.0\ninf,0,3.0\n4.0,nan,5.0\n"
                        "6.0,1,-inf\n7.0,1,8.0\n")
        with caplog.at_level("WARNING"):
            series = ingest_csv(path)
        np.testing.assert_array_equal(series.values, [[1.0, 7.0], [2.0, 8.0]])
        np.testing.assert_array_equal(series.labels, [0, 1])
        assert any("dropped 3 rows" in rec.message for rec in caplog.records)

    def test_errors_after_dropped_rows_keep_their_order(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,label\n1.0,0\nnan,2\n2.0,oops\n3.0,2\n")
        with pytest.raises(DataError, match="row 3, column 2"):
            ingest_csv(path)

    @pytest.mark.parametrize("body, message", [
        (b"a,b\n1.0,2.0\n1.5,\xff\n2.0,3.0\n", "is not UTF-8 text"),
        (b"a,b\n1.0,2.0\n1.5," + b"9" * 140_000 + b"\n2.0,3.0\n",
         "line 3: field larger than field limit"),
    ], ids=["not-utf8", "over-field-limit"])
    def test_unreadable_bytes_are_data_errors_naming_the_file(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(body)
        with pytest.raises(DataError, match=message) as info:
            ingest_csv(path)
        assert str(path) in str(info.value)

    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b\n1.0,2.0\n1.5,2.5\n")
        series = ingest_csv(path)
        assert series.sensor_names == ["a", "b"]
        np.testing.assert_array_equal(series.values, [[1.0, 1.5], [2.0, 2.5]])

class TestCsvParses:
    """The one-call numpy parse of a well-formed file against the cell by
    cell csv parse and against the values written."""

    @staticmethod
    def parse_both_ways(path, monkeypatch):
        """ingest_csv(path) with the csv parse barred, then with the numpy
        parse barred."""
        def barred(*args):
            raise AssertionError("the numpy parse should have read this file")

        with monkeypatch.context() as patch:
            patch.setattr(data_module, "_csv_cells", barred)
            fast = ingest_csv(path)
        with monkeypatch.context() as patch:
            patch.setattr(data_module, "_numpy_cells", lambda *args: None)
            slow = ingest_csv(path)
        return fast, slow

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_synth_file_with_gaps_quotes_blank_lines_and_bom(self, tmp_path, monkeypatch,
                                                             newline):
        series = generate_synthetic(5, 300, 24, 0.05, seed=4)
        plain = tmp_path / "plain.csv"
        write_csv(series, plain)
        lines = plain.read_text().splitlines()
        assert lines[0] == "s0,s1,s2,s3,s4,label"
        dropped = [3, 40, 41, 299]  # data rows, 0-based
        for row, cell in zip(dropped, ["nan", "inf", "-inf", "NaN"]):
            cells = lines[row + 1].split(",")
            cells[row % 6] = cell  # a sensor cell, or the label cell in the last two
            lines[row + 1] = ",".join(cells)
        lines[8] = ",".join(f'"{cell}"' for cell in lines[8].split(","))
        lines[20] = lines[20].replace(",", ", ")
        for at in (250, 100, 2, 1):
            lines.insert(at, "")
        path = tmp_path / "edited.csv"
        path.write_bytes(b"\xef\xbb\xbf" + newline.join(lines + [""]).encode())
        keep = np.setdiff1d(np.arange(300), dropped)
        for parsed in self.parse_both_ways(path, monkeypatch):
            assert parsed.sensor_names == series.sensor_names
            np.testing.assert_array_equal(parsed.values, series.values[:, keep])
            np.testing.assert_array_equal(parsed.labels, series.labels[keep])
            assert parsed.labels.dtype == np.int64

    def test_unlabeled_single_sensor(self, tmp_path, monkeypatch):
        path = tmp_path / "one.csv"
        path.write_text("a\n1.5\n-2e-3\n\n7\n")
        for parsed in self.parse_both_ways(path, monkeypatch):
            assert parsed.labels is None
            np.testing.assert_array_equal(parsed.values, [[1.5, -2e-3, 7.0]])

    def test_bad_label_row_counts_blank_lines(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,label\n1.0,0\n\n2.0,2\n3.0,1\n")
        with pytest.raises(DataError, match="label at row 3 must be 0 or 1, got 2.0"):
            ingest_csv(path)

    def test_ragged_row_is_named(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1.0,2.0\n1.5\n2.0,3.0\n")
        with pytest.raises(DataError, match="row 2 has 1 cells, expected 2"):
            ingest_csv(path)

    def test_over_long_finite_cell_is_a_data_error(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_bytes(b"a,b\n1.0,2.0\n1.5,0." + b"0" * 140_000 + b"1\n2.0,3.0\n")
        with pytest.raises(DataError, match="line 3: field larger than field limit"):
            ingest_csv(path)


class TestNormalization:
    def test_minmax_maps_to_unit_interval(self):
        rng = np.random.default_rng(1)
        series = series_of(rng.normal(2.0, 3.0, (4, 50)))
        stats = fit_normalizer(series, mode="minmax")
        scaled = stats.apply(series.values)
        np.testing.assert_allclose(scaled.min(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(scaled.max(axis=1), 1.0, atol=1e-12)

    def test_zscore_centers_and_scales(self):
        rng = np.random.default_rng(2)
        series = series_of(rng.normal(-1.0, 0.5, (3, 80)))
        stats = fit_normalizer(series, mode="zscore")
        scaled = stats.apply(series.values)
        np.testing.assert_allclose(scaled.mean(axis=1), 0.0, atol=1e-10)
        np.testing.assert_allclose(scaled.std(axis=1), 1.0, atol=1e-10)

    def test_constant_sensor_guarded(self):
        series = series_of(np.vstack([np.full(20, 7.0), np.arange(20.0)]))
        stats = fit_normalizer(series, mode="minmax")
        scaled = stats.apply(series.values)
        assert np.isfinite(scaled).all()

    def test_unknown_mode_rejected(self):
        series = series_of(np.zeros((2, 10)))
        with pytest.raises(Exception):
            fit_normalizer(series, mode="quartile")


class TestWindows:
    def test_window_contents_and_targets(self):
        values = np.arange(2 * 20, dtype=np.float64).reshape(2, 20)
        series = series_of(values)
        batch = make_windows(series, window=5, stride=1)
        assert batch.n_windows == 15
        for i, start in enumerate(batch.window_start_indices):
            np.testing.assert_array_equal(
                batch.windows[i], values[:, start:start + 5]
            )
            np.testing.assert_array_equal(batch.targets[i], values[:, start + 5])

    def test_stride_subsamples_starts(self):
        series = series_of(np.arange(30.0).reshape(1, 30))
        batch = make_windows(series, window=4, stride=3)
        np.testing.assert_array_equal(
            batch.window_start_indices, np.arange(0, 26, 3)
        )

    def test_strided_windows_are_read_only_views(self):
        series = series_of(np.arange(2 * 30.0).reshape(2, 30))
        batch = make_windows(series, window=4, stride=3)
        assert batch.n_windows == 9
        for i, start in enumerate(batch.window_start_indices):
            np.testing.assert_array_equal(
                batch.windows[i], series.values[:, start:start + 4]
            )
            np.testing.assert_array_equal(batch.targets[i], series.values[:, start + 4])
        assert np.shares_memory(batch.windows, series.values)
        assert np.shares_memory(batch.targets, series.values)
        assert not batch.windows.flags.writeable

    def test_no_window_crosses_the_end(self):
        series = series_of(np.arange(16.0).reshape(1, 16))
        batch = make_windows(series, window=6, stride=1)
        assert batch.window_start_indices.max() + 6 == 15

    def test_window_too_long_rejected(self):
        series = series_of(np.zeros((1, 10)))
        with pytest.raises(DataError):
            make_windows(series, window=10)


class TestSyntheticGenerator:
    def test_shapes_names_and_budget(self):
        series = generate_synthetic(6, 1200, 24, 0.05, seed=0)
        assert series.values.shape == (6, 1200)
        assert series.sensor_names == [f"s{i}" for i in range(6)]
        assert series.labels.sum() == round(0.05 * 1200)

    def test_anomalies_only_in_second_half(self):
        series = generate_synthetic(5, 900, 12, 0.08, seed=4)
        idx = np.flatnonzero(series.labels)
        assert idx.size > 0
        assert idx.min() >= 450

    def test_zero_rate_has_no_labels(self):
        series = generate_synthetic(3, 400, 24, 0.0, seed=1)
        assert series.labels.sum() == 0

    def test_deterministic_per_seed(self):
        a = generate_synthetic(4, 600, 24, 0.03, seed=9)
        b = generate_synthetic(4, 600, 24, 0.03, seed=9)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.labels, b.labels)
        c = generate_synthetic(4, 600, 24, 0.03, seed=10)
        assert not np.array_equal(a.values, c.values)

    def test_clean_prefix_is_periodic_plus_noise(self):
        series = generate_synthetic(2, 960, 24, 0.0, seed=5)
        x = series.values[0]
        lagged = np.corrcoef(x[:-24], x[24:])[0, 1]
        assert lagged > 0.95

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_sensors=0, length=100, period=24, anomaly_rate=0.0),
            dict(n_sensors=2, length=3, period=24, anomaly_rate=0.0),
            dict(n_sensors=2, length=100, period=1, anomaly_rate=0.0),
            dict(n_sensors=2, length=100, period=24, anomaly_rate=0.5),
            dict(n_sensors=2, length=100, period=24, anomaly_rate=0.0, seed=-1),
        ],
    )
    def test_invalid_arguments_rejected(self, kwargs):
        with pytest.raises(DataError):
            generate_synthetic(**{"seed": 0, **kwargs})


class TestSeriesMatrix:
    def test_slice_time_keeps_labels(self):
        series = series_of(
            np.arange(12.0).reshape(2, 6), labels=[0, 0, 1, 1, 0, 0]
        )
        part = series.slice_time(2, 5)
        np.testing.assert_array_equal(part.labels, [1, 1, 0])
        assert part.length == 3

    def test_mismatched_labels_rejected(self):
        with pytest.raises(DataError):
            SeriesMatrix(np.zeros((2, 5)), ["a", "b"], np.zeros(4, dtype=np.int64))

    def test_mismatched_names_rejected(self):
        with pytest.raises(DataError):
            SeriesMatrix(np.zeros((2, 5)), ["only_one"])

    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            SeriesMatrix(np.zeros((3, 5)), ["a", "b", "b"])
