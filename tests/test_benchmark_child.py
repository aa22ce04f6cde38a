"""The benchmark's child process calls the package's forward paths directly
to measure their memory (``--trace 1``); these calls must keep working as
the package's signatures change."""

import importlib
import math
import pathlib

import pytest

from mstok.config import TokenizerConfig
from mstok.model import init_model, save_checkpoint

BENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def child(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("child")


def test_forward_peak_mb_runs_every_workload_path(tmp_path, child):
    ckpt = str(tmp_path / "step0.htok")
    save_checkpoint(init_model(TokenizerConfig(image_size=16, scales=(1, 2, 4))), ckpt)
    peaks = {workload: child.forward_peak_mb(workload, ckpt, seed=1)
             for workload in ("train", "reconstruct", "latents")}
    assert all(math.isfinite(mb) and mb > 0 for mb in peaks.values()), peaks
    # train keeps the encoder's and the decoder's graphs of 64 images, latents
    # only the encoder's, and reconstruct decodes one image.
    assert peaks["train"] > peaks["latents"] > peaks["reconstruct"], peaks
