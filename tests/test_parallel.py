import dataclasses
import sys
import threading

import pytest

from mstok import blas, parallel
from mstok.config import RunConfig, TokenizerConfig
from mstok.data import generate_synthetic
import mstok.loop as loop_mod
from mstok.model import init_model
from mstok.pyramid import image_pyramid
from mstok.tensor import Tensor, replica
from mstok.train import train

TOK = TokenizerConfig(image_size=16, patch=4, enc_layers=1, dec_layers=1, enc_width=16,
                      dec_width=16, heads=2, latent_dim=4, scales=(1, 2, 4), seed=5)


def test_run_shards_returns_results_in_shard_order(monkeypatch):
    monkeypatch.setattr(parallel, "pool_size", lambda shards: min(shards, 2))
    threads_before = set(threading.enumerate())
    assert parallel.run_shards(lambda i, j: i * j, [(i, i) for i in range(5)]) == [0, 1, 4, 9, 16]
    assert set(threading.enumerate()) == threads_before


@pytest.mark.parametrize("tokens, images", [(85, 16), (341, 3), (21, 16), (5000, 1), (64, 16), (256, 5)])
def test_images_per_shard_bounds_decoder_tokens(tokens, images):
    # 85 tokens is the default schedule, 341 the 64 px one and 21 the 16 px
    # test models'; a schedule past SHARD_TOKENS still gets one image. 64
    # and 256 are the encoder's tokens at the default 32 px and at 64 px.
    assert parallel.images_per_shard(tokens) == images


@pytest.mark.parametrize("n", [1, 7, 40])
@pytest.mark.parametrize("size", [1, 3, 16, 41])
def test_shard_bounds_cover_the_set_once_in_order(monkeypatch, n, size):
    # Images of SHARD_TOKENS // size tokens fill shards of ``size``; 41 needs
    # a higher cap, and so gives a shard larger than every set.
    monkeypatch.setattr(parallel, "SHARD_SIZE", max(size, parallel.SHARD_SIZE))
    bounds = parallel.shard_bounds(n, parallel.SHARD_TOKENS // size)
    assert [i for lo, hi in bounds for i in range(lo, hi)] == list(range(n))
    assert [hi - lo for lo, hi in bounds] == [size] * (n // size) + [n % size] * (n % size > 0)
    # The cap: images of one token each still fill shards of SHARD_SIZE.
    assert parallel.shard_bounds(n, 1) == parallel.shard_bounds(n, parallel.SHARD_TOKENS // parallel.SHARD_SIZE)


def image_outputs(model, images):
    """Each image's float32 bytes of ``image_pyramid``, the grad-free
    ``reconstruct`` pixel tokens and the ``latent_for_generation`` rows, for
    one batch."""
    x = Tensor(images)
    outputs = (image_pyramid(x, model.schedule, model.config.patch), model.reconstruct(x)[0].data,
               model.latent_for_generation(x).data)
    return [tuple(out[i].tobytes() for out in outputs) for i in range(len(images))]


@pytest.mark.parametrize("tok", [TokenizerConfig(), dataclasses.replace(TOK, downsample_mode="interp"),
                                 dataclasses.replace(TOK, downsample_mode="conv")],
                         ids=["default", "16px-interp", "16px-conv"])
def test_grad_free_outputs_do_not_depend_on_the_shard_size(tok):
    # Every shard size from 1 to 16 over 17 images gives each image the same
    # bytes, since tensor._product copies a column-major kernel row-major
    # (area_pool's second product, conv2d's kernel). A 1-row product is a
    # gemv, which may still differ: the conv pyramid's last 2x2 -> 1x1
    # convolution has one row per image, and gives the same bits only with
    # its averaging kernels at init.
    model = replica(init_model(tok), requires_grad=False)
    images = generate_synthetic(17, tok.image_size, seed=3).images
    by_size = {size: [out for lo in range(0, len(images), size)
                      for out in image_outputs(model, images[lo:lo + size])]
               for size in range(1, 17)}
    differ = {size: [i for i, (got, want) in enumerate(zip(outs, by_size[16])) if got != want]
              for size, outs in by_size.items()}
    assert {size: ids for size, ids in differ.items() if ids} == {}


def test_more_workers_than_cores_give_the_one_worker_checkpoint(tmp_path, monkeypatch):
    # Four shards on four workers, switching threads as often as the
    # interpreter allows: a gradient written to a buffer another shard also
    # writes would change the checkpoint.
    blobs = []
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for workers in (1, 4):
            monkeypatch.setattr(parallel, "pool_size", lambda shards, n=workers: min(shards, n))
            ckpt = tmp_path / f"w{workers}.htok"
            train(RunConfig(tokenizer=TOK, data_dir="synthetic:136", steps=2, batch_size=128,
                            eval_fraction=0.05, checkpoint=str(ckpt)))
            blobs.append(ckpt.read_bytes())
    finally:
        sys.setswitchinterval(interval)
    assert blobs[0] == blobs[1]


def test_train_runs_between_passes_with_blas_restored_and_no_workers(tmp_path, monkeypatch):
    # Each step's shards, and the eval's, run on a pool opened for that pass:
    # the main thread clips and steps with BLAS at its own count and with no
    # worker thread alive.
    controls = blas._controls()
    if controls is None:
        pytest.skip("numpy's OpenBLAS thread controls are missing")
    get, set_ = controls
    saved = get()
    seen = []
    real = loop_mod.clip_grad_norm

    def spy(*args):
        seen.append((blas.num_threads(), set(threading.enumerate())))
        return real(*args)

    monkeypatch.setattr(loop_mod, "clip_grad_norm", spy)
    try:
        set_(2)  # a count that the pools' setting of 1 cannot pass for
        threads = get()
        if threads < 2:
            pytest.skip("numpy's OpenBLAS runs on one thread at most")
        threads_before = set(threading.enumerate())
        # 36 training images in batches of 32: shards of 16 + 16, then 4.
        train(RunConfig(tokenizer=TOK, data_dir="synthetic:48", steps=2, batch_size=32,
                        eval_fraction=0.25, checkpoint=str(tmp_path / "t.htok")))
        assert get() == threads
        assert set(threading.enumerate()) == threads_before
    finally:
        set_(saved)
    assert seen == [(threads, threads_before)] * 2
