import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import mstok
from mstok import blas
from mstok.config import RunConfig, TokenizerConfig, load_run_config
from mstok.data import generate_synthetic
from mstok.model import init_model, load_checkpoint
from mstok.tensor import ConfigError
from mstok.train import evaluate, train

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


def test_training_shrinks_commutation_residual(tmp_path):
    # The paper's claim that decoding at a scale stays close to downsampling
    # the top decode: training must pull every coarse decode toward it.
    tok = TokenizerConfig(image_size=16, patch=4, enc_layers=1, dec_layers=2, enc_width=32,
                          dec_width=32, heads=4, latent_dim=8, scales=(1, 2, 4), seed=0)

    def commutation(steps, name):
        run = RunConfig(tokenizer=tok, data_dir="synthetic:64", steps=steps, batch_size=16,
                        lr_start=1e-3, lr_end=1e-4, checkpoint=str(tmp_path / name))
        return train(run)["eval"]["commutation"]

    before = commutation(0, "init.htok")
    after = commutation(150, "trained.htok")
    assert before[-1] == after[-1] == 0.0
    for grid, b, a in zip(tok.scales[:-1], before, after):
        assert a * 2.0 <= b, f"grid {grid}: residual {b:.3f} -> {a:.3f}, less than a 2x drop"


def test_log_lines_schema(tmp_path):
    summary = train(small_run(tmp_path))
    lines = [json.loads(l) for l in Path(summary["log"]).read_text(encoding="utf-8").splitlines()]
    header = lines[0]
    assert set(header) == {"event", "config", "version", "parameters", "numpy", "blas"}
    assert header["event"] == "header" and header["version"] == mstok.__version__
    assert header["config"]["tokenizer"]["scales"] == list(SMALL_TOK.scales)
    assert header["config"]["steps"] == 8 and header["config"]["batch_size"] == 4
    model = load_checkpoint(summary["checkpoint"])
    assert header["parameters"] == sum(p.data.size for p in model.named_parameters().values())
    assert header["numpy"] == np.__version__
    assert set(header["blas"]) == {"name", "version", "threads"}
    assert header["blas"]["name"] and header["blas"]["threads"] == blas.num_threads()
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


@pytest.mark.parametrize("steps", [0, 2])
def test_failed_final_eval_logs_abort(tmp_path, monkeypatch, steps):
    import mstok.train as train_mod

    def failing_evaluate(*args):
        raise RuntimeError("injected eval failure")

    monkeypatch.setattr(train_mod, "evaluate", failing_evaluate)
    cfg = small_run(tmp_path, steps=steps)
    with pytest.raises(RuntimeError, match="injected eval failure"):
        train(cfg)
    lines = [json.loads(l) for l in Path(train_mod.log_path_for(cfg.checkpoint)).read_text(encoding="utf-8").splitlines()]
    assert lines[-1] == {"event": "abort", "at_step": steps, "error_type": "RuntimeError",
                         "error": "injected eval failure"}


def test_evaluate_bit_identical_to_graph_mode(tmp_path):
    # ``evaluate`` runs under no_grad; ``__wrapped__`` is the same body with
    # the graph recorded, and every metric must match it exactly.
    model = init_model(SMALL_TOK)
    ds = generate_synthetic(24, 16, seed=SMALL_TOK.seed)
    _, eval_idx = ds.split(0.25)
    run = small_run(tmp_path)
    graph_free = evaluate(model, ds, eval_idx, run)
    with_graph = evaluate.__wrapped__(model, ds, eval_idx, run)
    assert json.dumps(graph_free, sort_keys=True) == json.dumps(with_graph, sort_keys=True)


def test_epochs_derive_steps(tmp_path):
    cfg = small_run(tmp_path, steps=0, epochs=2, batch_size=6)
    summary = train(cfg)
    # 18 train images / 6 per batch = 3 batches per epoch
    assert summary["steps"] == 6


def test_evaluate_psnr_matches_file_roundtrip_path(tmp_path):
    from mstok.imageio import quantize_roundtrip
    from mstok.metrics import psnr, ssim
    from mstok.tensor import Tensor

    summary = train(small_run(tmp_path))
    model = load_checkpoint(summary["checkpoint"])
    ds = generate_synthetic(24, 16, seed=SMALL_TOK.seed)
    _, eval_idx = ds.split(0.25)
    metrics = evaluate(model, ds, eval_idx, small_run(tmp_path))

    scores, structure = [], []
    for i in eval_idx:
        outputs, _ = model.reconstruct(Tensor(ds.images[int(i)][None]), deterministic=True)
        quant = quantize_roundtrip(outputs[-1].data[0])
        scores.append(psnr(quant, ds.images[int(i)]))
        structure.append(ssim(quant, ds.images[int(i)]))
    assert metrics["psnr"] == pytest.approx(float(np.mean(scores)), abs=1e-9)
    assert metrics["ssim"] == pytest.approx(float(np.mean(structure)), abs=1e-9)


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
