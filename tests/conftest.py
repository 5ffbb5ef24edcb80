"""Shared fixtures: a tiny CLI workspace with data and a trained checkpoint."""

from __future__ import annotations

import os

# numpy loads before pgad.cli pins BLAS to one thread, so the in-process
# tests run numpy's default BLAS threads, as a library caller's code does.
# The CLI's own pinned path runs in the subprocess tests.
import numpy  # noqa: F401
import pytest

_SET_BEFORE = set(os.environ)

from pgad import _BLAS_THREAD_VARS, cli  # noqa: E402,F401

# and the pin does not leak into subprocesses that set no thread count
for _var in _BLAS_THREAD_VARS:
    if _var not in _SET_BEFORE:
        os.environ.pop(_var, None)


TINY_SYNTH = [
    "--sensors", "4", "--length", "360", "--period", "12",
    "--anomaly-rate", "0.04", "--seed", "3",
]
TINY_TRAIN = [
    "--window", "16", "--neighbors", "2", "--slots", "2",
    "--epochs", "2", "--patience", "2", "--batch-size", "16",
    "--embed-dim", "8", "--spatial-dim", "8", "--channels", "2",
    "--temporal-dim", "8", "--hidden-dim", "16",
]


@pytest.fixture(scope="session")
def cli_workspace(tmp_path_factory):
    """Synthetic train/test CSVs plus a small checkpoint trained on them."""
    root = tmp_path_factory.mktemp("cli_workspace")
    assert cli.main(["synth", *TINY_SYNTH, "--out-dir", str(root)]) == 0
    assert cli.main([
        "train", str(root / "train.csv"), *TINY_TRAIN,
        "--checkpoint", str(root / "checkpoint.npz"),
        "--report", str(root / "report.json"),
        "--loss-curve", str(root / "loss_curve.csv"),
    ]) == 0
    return root
