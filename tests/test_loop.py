"""The training loop trains any parameter tree, not only the tokenizer: here
one transformer block regresses a fixed linear map of its input tokens."""

import json
from pathlib import Path

import numpy as np

from mstok import parallel
from mstok.attention import AttentionParams, BlockParams, LayerNormParams, MlpParams, transformer_block
from mstok.config import RunConfig, TokenizerConfig
from mstok.data import generate_synthetic
from mstok.loop import fit
from mstok.tensor import Tensor, make_rng, named_tensors, square, sub, tmean, trunc_normal

WIDTH, HEADS = 12, 2
# 3 x 8 x 8 images are read as 16 tokens of width 12.
TOKENS = 3 * 8 * 8 // WIDTH
TARGET_MAP = make_rng(99).standard_normal((WIDTH, WIDTH)).astype(np.float32) / np.sqrt(WIDTH)
TIMING_KEYS = ("step_ms", "shard_ms", "reduce_ms", "rss_mb", "eval_ms")


def init_block(seed: int) -> BlockParams:
    rng = make_rng(seed)

    def weight(*shape):
        return Tensor(trunc_normal(rng, shape, std=0.2), requires_grad=True)

    def norm():
        return LayerNormParams(gain=Tensor(np.ones(WIDTH, np.float32), requires_grad=True),
                               bias=Tensor(np.zeros(WIDTH, np.float32), requires_grad=True))

    return BlockParams(ln1=norm(), attn=AttentionParams(*(weight(WIDTH, WIDTH) for _ in range(4))),
                       ln2=norm(), mlp=MlpParams(fc1=weight(WIDTH, 4 * WIDTH), fc2=weight(4 * WIDTH, WIDTH)))


def regression_loss(block: BlockParams, images: np.ndarray, rng=None) -> Tensor:
    """Mean squared error of the block's output against the fixed map of its
    input; with ``rng``, the block drops paths as in training."""
    x = images.reshape(len(images), TOKENS, WIDTH)
    out = transformer_block(Tensor(x), block, HEADS, mask=None, drop_rate=0.1, rng=rng)
    return tmean(square(sub(out, Tensor(x @ TARGET_MAP))))


def block_shard(block, images, rng):
    loss = regression_loss(block, images, rng)
    return loss, {"mse": float(loss.data) * len(images)}


def train_block(tmp_path, name: str, steps: int = 30):
    """Train a fresh block through ``fit``; returns its checkpoint bytes and
    log entries."""
    config = RunConfig(tokenizer=TokenizerConfig(seed=3), steps=steps, batch_size=40, log_interval=1,
                       lr_start=1e-2, lr_end=1e-3, checkpoint=str(tmp_path / name / "block.bin"))
    dataset = generate_synthetic(60, 8, seed=3)
    train_idx, eval_idx = dataset.split(0.25)  # 45 training images: batches of 40, then 5
    block = init_block(3)

    def save():
        Path(config.checkpoint).write_bytes(b"".join(p.data.tobytes() for p in named_tensors(block).values()))

    def final_eval():
        return {"mse": float(regression_loss(block, dataset.images[eval_idx]).data)}

    summary = fit(block, block_shard, TOKENS, dataset, train_idx, config, save, final_eval)
    lines = [json.loads(l) for l in Path(summary["log"]).read_text(encoding="utf-8").splitlines()]
    return Path(config.checkpoint).read_bytes(), lines


def test_a_transformer_block_trains_through_the_loop(tmp_path):
    blob, lines = train_block(tmp_path, "a")
    header, steps, final = lines[0], lines[1:-1], lines[-1]
    assert header["event"] == "header"
    assert header["parameters"] == 4 * WIDTH * WIDTH + 8 * WIDTH * WIDTH + 4 * WIDTH
    assert header["workers"] == parallel.pool_size(len(parallel.shard_bounds(40, TOKENS)))
    assert [entry["step"] for entry in steps] == list(range(1, 31))
    for entry in steps:
        assert set(entry) == {"step", "lr", "mse", "grad_norm", "step_ms", "shard_ms", "reduce_ms", "rss_mb"}
        # Odd steps take a batch of 40, three shards; even steps the other 5.
        assert len(entry["shard_ms"]) == len(parallel.shard_bounds(40 if entry["step"] % 2 else 5, TOKENS))
    assert set(final) == {"event", "mse", "eval_ms", "rss_mb"} and final["event"] == "eval"
    first = [entry["mse"] for entry in steps[:4]]
    last = [entry["mse"] for entry in steps[-4:]]
    assert max(last) < 0.5 * min(first), (first, last)
    assert len(blob) == 4 * header["parameters"]


def test_block_runs_are_same_seed_identical_and_independent_of_workers(tmp_path, monkeypatch):
    runs = [train_block(tmp_path, "again", steps=6)]
    for workers in (1, 2):
        monkeypatch.setattr(parallel, "pool_size", lambda shards, n=workers: min(shards, n))
        runs.append(train_block(tmp_path, f"w{workers}", steps=6))
    for _, lines in runs:
        for entry in lines:
            for key in TIMING_KEYS:
                entry.pop(key, None)
            entry.get("config", {}).pop("checkpoint", None)
    assert runs[0] == runs[1] == runs[2]
