"""Checkpoint persistence: round trips and rejection of malformed files."""

import hashlib
import json

import numpy as np
import pytest

from pgad import cli
from pgad.checkpoint import (
    CHECKPOINT_VERSION,
    checkpoint_from_result,
    load_checkpoint,
    save_checkpoint,
)
from pgad.data import generate_synthetic
from pgad.errors import DataError
from pgad.model import Model, ModelConfig
from pgad.training import TrainConfig, train

from helpers import strip_digests


@pytest.fixture(scope="module")
def trained():
    series = generate_synthetic(4, 360, 24, 0.0, seed=2)
    config = TrainConfig(
        window=24, neighbors=2, slots=2, epochs=2, patience=2, batch_size=32,
        embed_dim=8, spatial_dim=8, channels=2, temporal_dim=8, hidden_dim=16,
    )
    result = train(series, config)
    return checkpoint_from_result(result, series.sensor_names)


class TestRoundTrip:
    def test_save_load_preserves_everything(self, trained, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(path, trained)
        back = load_checkpoint(path)
        assert back.config == trained.config
        assert set(back.params) == set(trained.params)
        for name in trained.params:
            np.testing.assert_array_equal(back.params[name], trained.params[name])
        np.testing.assert_array_equal(back.val_errors, trained.val_errors)
        assert back.meta["period"] == trained.meta["period"]
        assert back.meta["sensor_names"] == trained.meta["sensor_names"]
        assert back.meta["train_length"] == 360

    def test_normalization_round_trip(self, trained, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(path, trained)
        back = load_checkpoint(path)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 10))
        np.testing.assert_array_equal(
            back.normalization.apply(x), trained.normalization.apply(x)
        )

    def test_train_report_embedded(self, trained):
        assert "train" in trained.meta
        assert trained.meta["train"]["best_epoch"] >= 0

    def test_params_digest_is_the_training_checksum(self, trained):
        assert trained.meta["params_sha256"] == trained.meta["train"]["checksum"]


class TestRejection:
    def save(self, trained, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(path, trained)
        return path

    def rewrite_meta(self, path, mutate):
        data = dict(np.load(path, allow_pickle=False))
        meta = json.loads(str(data["meta"]))
        mutate(meta, data)
        data["meta"] = np.array(json.dumps(meta))
        np.savez_compressed(path, **data)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_checkpoint(tmp_path / "absent.npz")

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(DataError):
            load_checkpoint(path)

    @pytest.mark.parametrize("meta", [[1, 2], {"version": CHECKPOINT_VERSION, "model": [1]}],
                             ids=["meta-list", "model-list"])
    def test_non_object_meta_exits_two(self, tmp_path, meta):
        path = tmp_path / "model.npz"
        np.savez_compressed(path, meta=np.array(json.dumps(meta)))
        with pytest.raises(DataError, match="not a JSON object"):
            load_checkpoint(path)
        assert cli.main(["graph", str(path), "--out-dir", str(tmp_path)]) == 2

    def test_version_mismatch(self, trained, tmp_path):
        path = self.save(trained, tmp_path)
        self.rewrite_meta(path, lambda meta, data: meta.update(version=99))
        with pytest.raises(DataError, match="version"):
            load_checkpoint(path)

    def test_shape_mismatch(self, trained, tmp_path):
        path = self.save(trained, tmp_path)

        def mutate(meta, data):
            data["param__proj_w"] = np.zeros((2, 2))

        self.rewrite_meta(path, mutate)
        with pytest.raises(DataError, match="proj_w"):
            load_checkpoint(path)

    def test_missing_parameter(self, trained, tmp_path):
        path = self.save(trained, tmp_path)
        data = dict(np.load(path, allow_pickle=False))
        del data["param__mlp_b2"]
        np.savez_compressed(path, **data)
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_stray_parameter(self, trained, tmp_path):
        path = self.save(trained, tmp_path)
        data = dict(np.load(path, allow_pickle=False))
        data["param__intruder"] = np.zeros(3)
        np.savez_compressed(path, **data)
        with pytest.raises(DataError, match="intruder"):
            load_checkpoint(path)

    def test_config_hash_mismatch(self, trained, tmp_path):
        path = self.save(trained, tmp_path)
        self.rewrite_meta(
            path, lambda meta, data: meta.update(config_hash="0" * 64)
        )
        with pytest.raises(DataError):
            load_checkpoint(path)

    @pytest.mark.parametrize("key,value", [
        ("window", 24.0),
        ("slots", 2.0),
        ("n_sensors", 4.0),
        ("hidden_dim", True),
        ("kernel_sizes", [2.0, 3, 5]),
        ("use_temporal", 1),
        ("use_temporal", "yes"),
        ("leaky_slope", float("nan")),
        ("leaky_slope", float("inf")),
        ("ln_eps", -1.0),
        ("ln_eps", 0.0),
        ("ln_eps", float("nan")),
        ("ln_eps", float("inf")),
    ])
    def test_wrongly_typed_model_field_exits_two(self, trained, tmp_path, key, value):
        """A `meta.model` field of the wrong type or range is rejected even
        when `config_hash` matches it."""
        path = self.save(trained, tmp_path)

        def mutate(meta, data):
            meta["model"][key] = value
            payload = json.dumps(meta["model"], sort_keys=True)
            meta["config_hash"] = hashlib.sha256(payload.encode()).hexdigest()

        self.rewrite_meta(path, mutate)
        with pytest.raises(DataError, match=f"invalid model config: {key} "):
            load_checkpoint(path)
        assert cli.main(["graph", str(path), "--out-dir", str(tmp_path)]) == 2

    def test_numpy_integers_are_integers(self):
        config = ModelConfig(n_sensors=np.int64(4), window=np.int32(24),
                             kernel_sizes=(np.int64(2), 3))
        config.validate()
        assert Model(config).param_shapes()["proj_w"] == (64, 24)

    def test_tampered_parameter(self, trained, tmp_path):
        path = self.save(trained, tmp_path)
        data = dict(np.load(path, allow_pickle=False))
        data["param__mlp_b2"] = data["param__mlp_b2"] + 1.0
        np.savez_compressed(path, **data)
        with pytest.raises(DataError, match="checksum"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("period", 0),
            ("period", 2.5),
            ("period", None),
            ("neighbors", 0),
            ("neighbors", 4),
            ("train_length", -1),
            ("train_length", None),
        ],
    )
    def test_invalid_meta_rejected(self, trained, tmp_path, key, value):
        path = self.save(trained, tmp_path)

        def mutate(meta, data):
            if value is None:
                del meta[key]
            else:
                meta[key] = value

        self.rewrite_meta(path, mutate)
        with pytest.raises(DataError, match=key):
            load_checkpoint(path)

    def test_per_window_periods_rejected(self, trained, tmp_path):
        # older checkpoints record the flag; false still loads
        path = self.save(trained, tmp_path)
        self.rewrite_meta(path, lambda meta, data: meta.update(period_per_window=False))
        load_checkpoint(path)
        self.rewrite_meta(path, lambda meta, data: meta.update(period_per_window=True))
        with pytest.raises(DataError, match="per-window"):
            load_checkpoint(path)

    def test_tampered_val_errors(self, trained, tmp_path):
        path = self.save(trained, tmp_path)
        data = dict(np.load(path, allow_pickle=False))
        data["val_errors"] = 2.0 * data["val_errors"]
        np.savez_compressed(path, **data)
        with pytest.raises(DataError, match="validation errors"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["params_sha256", "val_errors_sha256"])
    def test_missing_digest_rejected(self, trained, tmp_path, key):
        path = self.save(trained, tmp_path)
        self.rewrite_meta(path, lambda meta, data: meta.pop(key, None))
        with pytest.raises(DataError, match=key):
            load_checkpoint(path)

    def test_stripped_digests_rejected(self, trained, tmp_path):
        path = self.save(trained, tmp_path)
        self.rewrite_meta(path, strip_digests)
        with pytest.raises(DataError, match="checksum"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "key", ["sensor_names", "normalization.shift", "normalization.scale"]
    )
    def test_sensor_list_length_rejected(self, trained, tmp_path, key):
        path = self.save(trained, tmp_path)

        def mutate(meta, data):
            holder = meta
            *parents, leaf = key.split(".")
            for part in parents:
                holder = holder[part]
            holder[leaf] = holder[leaf][:2]

        self.rewrite_meta(path, mutate)
        with pytest.raises(DataError, match=key):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "key,index,value",
        [
            ("shift", 1, "0.5"),
            ("shift", 0, True),
            ("shift", 2, float("nan")),
            ("shift", 3, float("-inf")),
            ("scale", 1, -0.5),
            ("scale", 0, float("inf")),
            ("scale", 2, None),
            ("mode", None, "robust"),
            ("sensor_names", 1, 3),
        ],
    )
    def test_invalid_normalization_values_rejected(self, trained, tmp_path, key, index, value):
        path = self.save(trained, tmp_path)

        def mutate(meta, data):
            holder = meta if key == "sensor_names" else meta["normalization"]
            if index is None:
                holder[key] = value
            else:
                holder[key][index] = value

        self.rewrite_meta(path, mutate)
        with pytest.raises(DataError, match=key):
            load_checkpoint(path)
