import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from mstok.config import RunConfig, TokenizerConfig, load_run_config
from mstok.data import generate_synthetic
from mstok.model import init_model, load_checkpoint
from mstok.tensor import ConfigError
from mstok.train import evaluate, loss_weights_for, train

SMALL_TOK = TokenizerConfig(image_size=16, patch=4, enc_layers=1, dec_layers=1,
                            enc_width=16, dec_width=16, heads=2, latent_dim=4,
                            scales=(1, 2, 4), downsample_mode="conv", regime="scalecausal",
                            seed=11)


def small_run(tmp_path, **kw):
    defaults = dict(
        tokenizer=SMALL_TOK,
        data_dir="synthetic:24",
        steps=8,
        batch_size=4,
        log_interval=4,
        eval_fraction=0.25,
        checkpoint=str(tmp_path / "tok.htok"),
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def test_zero_steps_emits_initial_checkpoint(tmp_path):
    summary = train(small_run(tmp_path, steps=0))
    assert os.path.exists(summary["checkpoint"])
    assert summary["train"] is None
    model = load_checkpoint(summary["checkpoint"])
    assert model.config == SMALL_TOK


def test_same_seed_bit_identical_checkpoints(tmp_path):
    a = train(small_run(tmp_path, checkpoint=str(tmp_path / "a.htok")))
    b = train(small_run(tmp_path, checkpoint=str(tmp_path / "b.htok")))
    blob_a = Path(a["checkpoint"]).read_bytes()
    blob_b = Path(b["checkpoint"]).read_bytes()
    assert blob_a == blob_b


def test_training_reduces_loss(tmp_path):
    summary = train(small_run(tmp_path, steps=60, log_interval=1,
                              data_dir="synthetic:32", batch_size=8))
    lines = [json.loads(l) for l in Path(summary["log"]).read_text(encoding="utf-8").splitlines()]
    steps = [l for l in lines if "step" in l]
    assert steps[-1]["total"] < steps[0]["total"]


def test_log_lines_schema(tmp_path):
    summary = train(small_run(tmp_path))
    lines = [json.loads(l) for l in Path(summary["log"]).read_text(encoding="utf-8").splitlines()]
    train_lines = [l for l in lines if "step" in l]
    assert train_lines, "expected per-interval train entries"
    for entry in train_lines:
        assert set(entry) == {"step", "lr", "total", "per_scale", "kl", "grad_norm", "step_ms"}
        assert len(entry["per_scale"]) == len(SMALL_TOK.scales)
        assert math.isfinite(entry["grad_norm"]) and entry["grad_norm"] > 0.0
        assert entry["step_ms"] > 0.0
    eval_lines = [l for l in lines if l.get("event") == "eval"]
    assert len(eval_lines) == 1
    for key in ("l1", "rec_loss", "psnr", "ssim", "per_scale", "commutation", "uniformity"):
        assert key in eval_lines[0]


def test_non_numeric_failure_logs_abort(tmp_path, monkeypatch):
    import mstok.train as train_mod

    real_lr = train_mod.cosine_lr

    def failing_lr(step, *args):
        if step == 3:
            raise RuntimeError("injected failure")
        return real_lr(step, *args)

    monkeypatch.setattr(train_mod, "cosine_lr", failing_lr)
    cfg = small_run(tmp_path, log_interval=1)
    with pytest.raises(RuntimeError, match="injected failure"):
        train(cfg)
    lines = [json.loads(l) for l in Path(train_mod.log_path_for(cfg.checkpoint)).read_text(encoding="utf-8").splitlines()]
    assert [l["step"] for l in lines if "step" in l] == [1, 2]
    assert lines[-1] == {"event": "abort", "at_step": 3, "error_type": "RuntimeError",
                         "error": "injected failure"}
    # The step-0 checkpoint is still on disk and loads.
    assert load_checkpoint(cfg.checkpoint).config == SMALL_TOK


def test_evaluate_bit_identical_to_graph_mode(tmp_path):
    # ``evaluate`` runs under no_grad; ``__wrapped__`` is the same body with
    # the graph recorded, and every metric must match it exactly.
    model = init_model(SMALL_TOK)
    ds = generate_synthetic(24, 16, seed=SMALL_TOK.seed)
    _, eval_idx = ds.split(0.25)
    weights = loss_weights_for(small_run(tmp_path))
    graph_free = evaluate(model, ds, eval_idx, weights, batch_size=4)
    with_graph = evaluate.__wrapped__(model, ds, eval_idx, weights, batch_size=4)
    assert json.dumps(graph_free, sort_keys=True) == json.dumps(with_graph, sort_keys=True)


def test_epochs_derive_steps(tmp_path):
    cfg = small_run(tmp_path, steps=0, epochs=2, batch_size=6)
    summary = train(cfg)
    # 18 train images / 6 per batch = 3 batches per epoch
    assert summary["steps"] == 6


def test_evaluate_psnr_matches_file_roundtrip_path(tmp_path):
    from mstok.imageio import quantize_roundtrip
    from mstok.metrics import psnr
    from mstok.tensor import Tensor

    summary = train(small_run(tmp_path))
    model = load_checkpoint(summary["checkpoint"])
    ds = generate_synthetic(24, 16, seed=SMALL_TOK.seed)
    _, eval_idx = ds.split(0.25)
    weights = loss_weights_for(small_run(tmp_path))
    metrics = evaluate(model, ds, eval_idx, weights)

    scores = []
    for i in eval_idx:
        outputs, _ = model.reconstruct(Tensor(ds.images[int(i)][None]), deterministic=True)
        scores.append(psnr(quantize_roundtrip(outputs[-1].data[0]), ds.images[int(i)]))
    assert metrics["psnr"] == pytest.approx(float(np.mean(scores)), abs=1e-9)


def test_run_config_rejects_unknown_keys():
    with pytest.raises(ConfigError) as err:
        load_run_config(None, ["stepz=10"])
    assert "stepz" in str(err.value)


def test_run_config_file_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nsteps=5\nscales=1,2,4\nimage_size=16\nregime=full\n")
    cfg = load_run_config(str(path), ["steps=9", "batch_size=2"])
    assert cfg.steps == 9
    assert cfg.batch_size == 2
    assert cfg.tokenizer.scales == (1, 2, 4)
    assert cfg.tokenizer.regime == "full"


def test_run_config_rejects_enabled_lpips():
    with pytest.raises(ConfigError) as err:
        load_run_config(None, ["lpips_weight=1.0"])
    assert "lpips_weight" in str(err.value)


def test_run_config_rejects_conv_non_dyadic():
    with pytest.raises(ConfigError):
        load_run_config(None, ["image_size=48", "patch=4", "scales=1,12", "downsample_mode=conv"])
