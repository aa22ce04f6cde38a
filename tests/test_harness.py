import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mstok
from mstok import blas, parallel
from mstok.config import RunConfig, TokenizerConfig, load_run_config
from mstok.data import STREAM_SHARD, generate_synthetic
from mstok.model import init_model, load_checkpoint
from mstok.tensor import ConfigError, make_rng, named_tensors, replica
import mstok.loop as loop_mod
import mstok.train as train_mod
from mstok.train import evaluate, train

SMALL_TOK = TokenizerConfig(image_size=16, patch=4, enc_layers=1, dec_layers=1,
                            enc_width=16, dec_width=16, heads=2, latent_dim=4,
                            scales=(1, 2, 4), downsample_mode="conv", regime="scalecausal",
                            seed=11)
# Decoder tokens per image: scales 1, 2, 4.
TOKENS = SMALL_TOK.schedule().total


def tokenizer_shard(run):
    """The tokenizer's shard function, as ``train`` hands it to the loop."""
    return functools.partial(train_mod.train_shard, run)


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
    assert set(header) == {"event", "config", "version", "git", "parameters", "numpy", "blas",
                           "shard_size", "workers"}
    assert header["shard_size"] == parallel.images_per_shard(TOKENS)
    assert header["workers"] == parallel.pool_size(1)  # batch 4 is one shard
    assert header["event"] == "header" and header["version"] == mstok.__version__
    assert header["config"]["tokenizer"]["scales"] == list(SMALL_TOK.scales)
    assert header["config"]["steps"] == 8 and header["config"]["batch_size"] == 4
    model = load_checkpoint(summary["checkpoint"])
    assert header["parameters"] == sum(p.data.size for p in named_tensors(model).values())
    assert header["numpy"] == np.__version__
    assert set(header["blas"]) == {"name", "version", "threads", "core"}
    assert header["blas"]["name"] and header["blas"]["threads"] == blas.num_threads()
    assert header["blas"]["core"] == blas.core()  # products' bits differ per core
    train_lines = [l for l in lines if "step" in l]
    assert train_lines, "expected per-interval train entries"
    n_train = len(generate_synthetic(24, 16, seed=SMALL_TOK.seed).split(0.25)[0])
    for entry in train_lines:
        assert set(entry) == {"step", "lr", "total", "per_scale", "kl", "grad_norm", "step_ms", "shard_ms",
                              "reduce_ms", "rss_mb"}
        assert len(entry["per_scale"]) == len(SMALL_TOK.scales)
        assert math.isfinite(entry["grad_norm"]) and entry["grad_norm"] > 0.0
        assert entry["step_ms"] > 0.0
        # One busy time per shard of the batch the step took, each inside
        # the step, as is the main thread's reduce.
        k = (entry["step"] - 1) % math.ceil(n_train / 4)
        batch = len(range(n_train)[4 * k : 4 * k + 4])
        assert len(entry["shard_ms"]) == len(parallel.shard_bounds(batch, TOKENS))
        assert all(0.0 < ms < entry["step_ms"] for ms in [*entry["shard_ms"], entry["reduce_ms"]])
    # rss_mb is the process's peak so far: positive, and it never falls.
    rss = [entry["rss_mb"] for entry in train_lines]
    assert rss[0] > 0.0 and rss == sorted(rss)
    eval_lines = [l for l in lines if l.get("event") == "eval"]
    assert len(eval_lines) == 1
    for key in ("l1", "rec_loss", "psnr", "ssim", "per_scale", "commutation", "uniformity", "eval_ms", "rss_mb"):
        assert key in eval_lines[0]
    assert eval_lines[0]["eval_ms"] > 0.0
    # The eval entry's rss_mb is the same running peak, read after the sweep.
    assert eval_lines[0]["rss_mb"] >= rss[-1]


@pytest.mark.parametrize("tok, data_dir, batch_size, shard_size, shards", [
    # 12 training images, fewer than a batch: every step is one shard.
    (SMALL_TOK, "synthetic:16", 64, 16, [1, 1]),
    # 60 training images in batches of 40: shards of 16 + 16 + 8, then 16 + 4.
    (SMALL_TOK, "synthetic:80", 40, 16, [3, 2]),
    # At 64 px, scales 1, 2, 4, 8 and 16 make 341 decoder tokens, so 3 images
    # fill SHARD_TOKENS and each batch of 6 is two shards of 3.
    (dataclasses.replace(SMALL_TOK, image_size=64, scales=(1, 2, 4, 8, 16)), "synthetic:8", 6, 3, [2, 2]),
], ids=["split_smaller_than_batch", "full_batch", "64px_shards_bounded_by_tokens"])
def test_log_header_workers_are_those_of_the_first_step(tmp_path, tok, data_dir, batch_size, shard_size, shards):
    summary = train(small_run(tmp_path, tokenizer=tok, data_dir=data_dir, batch_size=batch_size, steps=2,
                              log_interval=1))
    lines = [json.loads(l) for l in Path(summary["log"]).read_text(encoding="utf-8").splitlines()]
    assert lines[0]["shard_size"] == shard_size
    assert lines[0]["workers"] == parallel.pool_size(shards[0])
    assert [len(l["shard_ms"]) for l in lines if "step" in l] == shards


def test_log_header_git_commit_of_package_checkout():
    package_dir = os.path.dirname(os.path.abspath(mstok.__file__))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=package_dir, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("the package is not in a git checkout")
    header = loop_mod._log_header(RunConfig(), init_model(SMALL_TOK), RunConfig().batch_size, TOKENS)
    assert header["git"] == head and len(head) == 40


@pytest.mark.parametrize("error", [
    FileNotFoundError("git"),
    subprocess.CalledProcessError(128, ["git"]),
    subprocess.TimeoutExpired(["git"], 5),
], ids=["no_git", "not_a_checkout", "timeout"])
def test_log_header_git_commit_null_without_checkout(monkeypatch, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(subprocess, "run", fail)
    assert loop_mod._log_header(RunConfig(), init_model(SMALL_TOK), RunConfig().batch_size, TOKENS)["git"] is None


def test_non_numeric_failure_logs_abort(tmp_path, monkeypatch):
    real_lr = loop_mod.cosine_lr

    def failing_lr(step, *args):
        if step == 3:
            raise RuntimeError("injected failure")
        return real_lr(step, *args)

    monkeypatch.setattr(loop_mod, "cosine_lr", failing_lr)
    cfg = small_run(tmp_path, log_interval=1)
    with pytest.raises(RuntimeError, match="injected failure"):
        train(cfg)
    lines = [json.loads(l) for l in Path(loop_mod.log_path_for(cfg.checkpoint)).read_text(encoding="utf-8").splitlines()]
    assert [l["step"] for l in lines if "step" in l] == [1, 2]
    assert lines[-1] == {"event": "abort", "at_step": 3, "error_type": "RuntimeError",
                         "error": "injected failure"}
    # The step-0 checkpoint is still on disk and loads.
    assert load_checkpoint(cfg.checkpoint).config == SMALL_TOK


@pytest.mark.parametrize("steps", [0, 2])
def test_failed_final_eval_logs_abort(tmp_path, monkeypatch, steps):
    def failing_evaluate(*args):
        raise RuntimeError("injected eval failure")

    monkeypatch.setattr(train_mod, "evaluate", failing_evaluate)
    cfg = small_run(tmp_path, steps=steps)
    with pytest.raises(RuntimeError, match="injected eval failure"):
        train(cfg)
    lines = [json.loads(l) for l in Path(loop_mod.log_path_for(cfg.checkpoint)).read_text(encoding="utf-8").splitlines()]
    assert lines[-1] == {"event": "abort", "at_step": steps, "error_type": "RuntimeError",
                         "error": "injected eval failure"}


def test_evaluate_bit_identical_to_graph_mode(tmp_path, monkeypatch):
    # ``evaluate`` runs on a grad-free replica; with ``replica`` returning the
    # tree itself, the same body records the graph, and every metric must
    # match the graph-free run exactly.
    model = init_model(SMALL_TOK)
    ds = generate_synthetic(24, 16, seed=SMALL_TOK.seed)
    _, eval_idx = ds.split(0.25)
    run = small_run(tmp_path)
    graph_free = evaluate(model, ds, eval_idx, run)
    monkeypatch.setattr(train_mod, "replica", lambda tree, requires_grad=True: tree)
    with_graph = evaluate(model, ds, eval_idx, run)
    assert json.dumps(graph_free, sort_keys=True) == json.dumps(with_graph, sort_keys=True)


def test_epochs_derive_steps(tmp_path):
    cfg = small_run(tmp_path, steps=0, epochs=2, batch_size=6)
    summary = train(cfg)
    # 18 train images / 6 per batch = 3 batches per epoch
    assert summary["steps"] == 6


def test_evaluate_psnr_matches_file_roundtrip_path(tmp_path):
    from mstok.imageio import quantize_roundtrip
    from mstok.metrics import psnr, ssim
    from mstok.pyramid import tokens_to_images
    from mstok.tensor import Tensor

    summary = train(small_run(tmp_path))
    model = load_checkpoint(summary["checkpoint"])
    ds = generate_synthetic(24, 16, seed=SMALL_TOK.seed)
    _, eval_idx = ds.split(0.25)
    metrics = evaluate(model, ds, eval_idx, small_run(tmp_path))

    scores, structure = [], []
    for i in eval_idx:
        px, _ = model.reconstruct(Tensor(ds.images[int(i)][None]), deterministic=True)
        quant = quantize_roundtrip(tokens_to_images(px.data, model.schedule, SMALL_TOK.patch)[-1][0])
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


def test_one_worker_fallback_checkpoint_independent_of_blas_threads(tmp_path, monkeypatch):
    # Batch 63 is shards of 16 + 16 + 16 + 15; the last shard's decoder
    # kernel gradients reduce over 15 x 85 = 1275 rows, not a multiple of 32.
    # Without the BLAS controls one worker runs the shards at whatever count
    # BLAS has.
    tokens = RunConfig().tokenizer.schedule().total  # 85
    bounds = parallel.shard_bounds(63, tokens)
    assert len(bounds) > 1 and (bounds[-1][1] - bounds[-1][0]) * tokens % 32 != 0
    controls = blas._controls()
    if controls is None:
        pytest.skip("numpy's OpenBLAS thread controls are missing")
    get, set_, _ = controls  # the real controls, still usable once patched away
    saved = get()
    monkeypatch.setattr(blas, "_controls", lambda: None)
    blobs = []
    try:
        for threads in (1, 2):
            set_(threads)
            ckpt = tmp_path / f"t{threads}.htok"
            train(RunConfig(data_dir="synthetic:72", steps=2, batch_size=63, eval_fraction=0.125,
                            checkpoint=str(ckpt)))
            assert get() == threads
            blobs.append(ckpt.read_bytes())
    finally:
        set_(saved)
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("kw", [
    dict(batch_size=64, data_dir="synthetic:80", steps=2),
    # 60 train images in batches of 40: shards of 16 + 16 + 8, then 16 + 4.
    dict(batch_size=40, data_dir="synthetic:80", steps=0, epochs=2),
    dict(batch_size=64, data_dir="synthetic:80", steps=2,
         tokenizer=dataclasses.replace(SMALL_TOK, drop_path=0.1)),
], ids=["batch64", "epochs_short_last_batch", "drop_path"])
def test_checkpoint_independent_of_worker_count(tmp_path, monkeypatch, kw):
    # One worker, two workers, and one worker taking the shards last to
    # first: the checkpoint and the eval entry must not change.
    assert len(parallel.shard_bounds(kw["batch_size"], TOKENS)) > 1

    def reversed_shards(fn, shards):
        return parallel.run_shards(fn, shards[::-1])[::-1]

    outputs = []
    for name, workers, runner in [("one", 1, parallel.run_shards), ("two", 2, parallel.run_shards),
                                  ("reversed", 1, reversed_shards)]:
        monkeypatch.setattr(parallel, "pool_size", lambda shards, n=workers: min(shards, n))
        # The training steps' shards and the eval's.
        monkeypatch.setattr(loop_mod, "run_shards", runner)
        monkeypatch.setattr(train_mod, "run_shards", runner)
        summary = train(small_run(tmp_path, checkpoint=str(tmp_path / f"{name}.htok"), **kw))
        eval_entry = json.loads(Path(summary["log"]).read_text(encoding="utf-8").splitlines()[-1])
        # The sweep's time and the memory peak measure the run, not its results.
        del eval_entry["eval_ms"], eval_entry["rss_mb"]
        outputs.append((Path(summary["checkpoint"]).read_bytes(), eval_entry))
    assert outputs[0] == outputs[1] == outputs[2]


def test_sharded_step_matches_whole_batch_graph(tmp_path):
    # 40 images are shards of 16 + 16 + 8, weighted 0.4, 0.4 and 0.2.
    from mstok.losses import multiscale_loss
    from mstok.pyramid import image_pyramid
    from mstok.tensor import Tensor, add, mul, texp

    assert len({hi - lo for lo, hi in parallel.shard_bounds(40, TOKENS)}) > 1

    run = small_run(tmp_path, batch_size=40)
    model = init_model(SMALL_TOK)
    images = generate_synthetic(40, 16, seed=3).images
    g = model.schedule.base_grid
    # Step 1's noise: each shard's first draw from its (seed, step, shard)
    # generator, in shard order.
    eps = np.concatenate([
        make_rng(SMALL_TOK.seed, stream=(STREAM_SHARD, 1, shard))
        .standard_normal((hi - lo, g, g, SMALL_TOK.latent_dim)).astype(np.float32)
        for shard, (lo, hi) in enumerate(parallel.shard_bounds(40, TOKENS))
    ])

    code = model.encode(Tensor(images))
    z = add(code.mu, mul(texp(mul(code.logvar, 0.5)), Tensor(eps)))
    px = model.decode_pyramid(z)
    targets = image_pyramid(images, model.schedule, SMALL_TOK.patch)
    loss, whole = multiscale_loss(px, targets, model.schedule, run, code)
    loss.backward()
    want = {name: p.grad for name, p in named_tensors(model).items()}

    sharded, _, _ = loop_mod._batch_gradients(model, tokenizer_shard(run), images, TOKENS, SMALL_TOK.seed, 1)

    assert sharded["total"] == pytest.approx(whole["total"], rel=1e-5)
    assert sharded["kl"] == pytest.approx(whole["kl"], rel=1e-5)
    np.testing.assert_allclose(sharded["per_scale"], whole["per_scale"], rtol=1e-5)
    for name, p in named_tensors(model).items():
        # Entries that cancel to near zero are held to the parameter's scale.
        np.testing.assert_allclose(p.grad, want[name], rtol=1e-5,
                                   atol=1e-5 * np.abs(want[name]).max(), err_msg=name)


def cursor_walk(dataset, seed, train_idx, batch_size, steps):
    """The batches a loop that carries its epoch, shuffle and cursor from one
    step to the next would take."""
    epoch, order, cursor = 0, dataset.epoch_order(seed, 0, train_idx), 0
    for _ in range(steps):
        if cursor >= len(order):
            epoch += 1
            order, cursor = dataset.epoch_order(seed, epoch, train_idx), 0
        yield order[cursor : cursor + batch_size]
        cursor += batch_size


# 18 training images: batches of 4 leave a short fifth batch of 2 in every
# epoch, and a batch of 32 is larger than the whole split.
@pytest.mark.parametrize("batch_size, steps, sizes", [(4, 13, {4, 2}), (32, 3, {18})])
def test_step_batches_match_cursor_walk(tmp_path, monkeypatch, batch_size, steps, sizes):
    cfg = small_run(tmp_path, batch_size=batch_size, steps=steps)
    dataset = generate_synthetic(24, 16, seed=SMALL_TOK.seed)
    train_idx, _ = dataset.split(cfg.eval_fraction)
    want = list(cursor_walk(dataset, SMALL_TOK.seed, train_idx, batch_size, steps))
    assert {len(idx) for idx in want} == sizes

    seen = []
    real = loop_mod._batch_gradients

    def spy(tree, shard, images, *args):
        seen.append(images.copy())
        return real(tree, shard, images, *args)

    monkeypatch.setattr(loop_mod, "_batch_gradients", spy)
    train(cfg)
    assert len(seen) == steps
    for got, idx in zip(seen, want):
        np.testing.assert_array_equal(got, dataset.images[idx])


def test_training_shard_noise_follows_seed_step_and_shard(tmp_path):
    run = small_run(tmp_path)
    model = init_model(SMALL_TOK)
    images = generate_synthetic(8, 16, seed=3).images

    def shard(step):
        rng = make_rng(SMALL_TOK.seed, stream=(STREAM_SHARD, step, 1))
        return loop_mod._shard_gradients(tokenizer_shard(run), model, images, rng, 16, step)

    (sums, grads, _), (again_sums, again_grads, _), (other_sums, other_grads, _) = shard(2), shard(2), shard(3)
    assert sums["total"] == again_sums["total"] and sums["kl"] == again_sums["kl"]
    np.testing.assert_array_equal(sums["per_scale"], again_sums["per_scale"])
    for got, want in zip(again_grads, grads):
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))
    assert other_sums["total"] != sums["total"]
    assert any(not np.array_equal(got, want) for got, want in zip(other_grads, grads))


def test_training_shard_peak_memory_grows_with_its_images(tmp_path):
    # Two shards run at once and each holds its graph until its backward, so
    # a step's peak follows the shard size only if a shard's graph grows
    # with its images and its fixed overhead stays small.
    import tracemalloc

    run = small_run(tmp_path)
    model = init_model(SMALL_TOK)
    images = generate_synthetic(16, 16, seed=3).images

    def peak(n: int) -> int:
        tracemalloc.start()
        try:
            loop_mod._shard_gradients(tokenizer_shard(run), model, images[:n], make_rng(5), 16, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(16)  # fills the caches the first shard builds
    half, full = peak(8), peak(16)
    assert half < 0.6 * full, (half, full)


def test_default_training_shard_peak_memory():
    # One default shard (16 images of 85 decoder tokens) peaks at 30.0 MiB.
    # The bound leaves 1 MiB of headroom, so it fails if any of these comes
    # back: span_attention keeping each span's probabilities instead of
    # their softmax max and sum (7.4 MiB, a 37.5 MiB peak), the MLP branch
    # keeping its GELU activation (7.3 MiB), each residual branch's product
    # outliving the forward (3.7 MiB), and layer_norm keeping xhat, the GELU
    # keeping u or the merged attention heads being copied for the output
    # projection (1.7 MiB or more each).
    import tracemalloc

    run = RunConfig()
    model = init_model(run.tokenizer)
    images = generate_synthetic(16, run.tokenizer.image_size, seed=3).images

    def peak() -> int:
        tracemalloc.start()
        try:
            loop_mod._shard_gradients(tokenizer_shard(run), model, images, make_rng(5), 16, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak()  # fills the caches the first shard builds
    assert peak() < 31.1 * 2**20


def test_default_training_shard_graph_is_float32():
    # Constants take the dtype of the tensor they meet, so no op promotes the
    # graph: promoted by numpy, the 1.0 of ``add(logvar, 1.0)`` would put the
    # KL chain and the loss total, 7 of the 178 nodes, in float64.
    run = RunConfig()
    model = init_model(run.tokenizer)
    images = generate_synthetic(16, run.tokenizer.image_size, seed=3).images
    loss, _ = train_mod.train_shard(run, model, images, make_rng(5))
    nodes, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    assert len(nodes) == 178
    assert sum(node.dtype != np.float32 for node in nodes.values()) == 0


def test_training_shard_beside_graph_free_shards_is_unchanged(tmp_path, monkeypatch):
    # One ``run_shards`` call runs a training shard, which records its graph
    # on its own replica, beside eval shards on a grad-free replica, on more
    # workers than cores, switching threads as often as the interpreter
    # allows. The training shard's sums and gradients must be those it gives
    # alone.
    monkeypatch.setattr(parallel, "pool_size", lambda shards: min(shards, 3))
    run = small_run(tmp_path)
    model = init_model(SMALL_TOK)
    ds = generate_synthetic(16, 16, seed=3)

    def train_shard():
        return (loop_mod._shard_gradients, tokenizer_shard(run), model, ds.images[:8], make_rng(5), 8, 1)

    graph_free = replica(model, requires_grad=False)
    (alone_sums, alone_grads, _), = parallel.run_shards(lambda fn, *args: fn(*args), [train_shard()])
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        (sums, grads, _), _, _ = parallel.run_shards(lambda fn, *args: fn(*args), [
            train_shard(),
            (train_mod._eval_shard, graph_free, ds, np.arange(8, 16), run),
            (train_mod._eval_shard, graph_free, ds, np.arange(0, 8), run),
        ])
    finally:
        sys.setswitchinterval(interval)
    assert sums["total"] == alone_sums["total"] and sums["kl"] == alone_sums["kl"]
    np.testing.assert_array_equal(sums["per_scale"], alone_sums["per_scale"])
    assert len(grads) == len(alone_grads) == len(named_tensors(model))
    for got, want in zip(grads, alone_grads):
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


def test_sharded_evaluate_matches_whole_batch_expression(tmp_path):
    # The eval formula before sharding: one whole batch of 40 images, which
    # evaluate splits into more than one shard.
    from mstok.imageio import quantize_roundtrip
    from mstok.latent_stats import analyze_latents, commutation_residuals
    from mstok.losses import multiscale_loss
    from mstok.metrics import psnr, ssim
    from mstok.pyramid import image_pyramid, tokens_to_images
    from mstok.tensor import Tensor

    assert len(parallel.shard_bounds(40, TOKENS)) > 1

    run = small_run(tmp_path, batch_size=40)
    model = init_model(SMALL_TOK)
    ds = generate_synthetic(40, 16, seed=3)
    got = evaluate(model, ds, np.arange(40), run)

    x, schedule, patch = ds.images, model.schedule, SMALL_TOK.patch
    px, code = model.reconstruct(Tensor(x), deterministic=True)
    _, breakdown = multiscale_loss(px, image_pyramid(x, schedule, patch), schedule, run, code)
    top = tokens_to_images(px.data, schedule, patch)[-1]
    quant = quantize_roundtrip(top)
    want = {
        "l1": float(np.abs(top - x).mean()),
        "rec_loss": breakdown["per_scale"][-1],
        "kl": breakdown["kl"],
        "psnr": psnr(quant, x),
        "ssim": ssim(quant, x),
        "per_scale": breakdown["per_scale"],
        "commutation": commutation_residuals(px.data, schedule, patch),
        "uniformity": analyze_latents(code.mu.data.reshape(40, -1)),
    }
    assert got["n_images"] == 40
    for key, value in want.items():
        if key == "uniformity":
            for stat in ("density_cv", "gini", "norm_entropy", "bandwidth"):
                assert got[key][stat] == pytest.approx(value[stat], rel=1e-6), stat
        else:
            np.testing.assert_allclose(got[key], value, rtol=1e-6, atol=1e-12, err_msg=key)


def test_evaluate_independent_of_batch_size(tmp_path):
    # The eval shards follow the eval set alone: 80 images are five shards
    # of 16 whatever the training batch size.
    assert len(parallel.shard_bounds(80, TOKENS)) > 1
    tok = dataclasses.replace(SMALL_TOK, downsample_mode="interp", seed=5)
    model = init_model(tok)
    ds = generate_synthetic(80, 16, seed=5)
    got = [json.dumps(evaluate(model, ds, np.arange(80), small_run(tmp_path, tokenizer=tok, batch_size=b)))
           for b in (40, 64, 7)]
    assert got[0] == got[1] == got[2]
