import sys
import threading

from mstok import parallel
from mstok.config import RunConfig, TokenizerConfig
from mstok.train import train


def test_run_shards_returns_results_in_shard_order(monkeypatch):
    monkeypatch.setattr(parallel, "pool_size", lambda shards: min(shards, 2))
    threads_before = set(threading.enumerate())
    assert parallel.run_shards(lambda i, j: i * j, [(i, i) for i in range(5)]) == [0, 1, 4, 9, 16]
    assert set(threading.enumerate()) == threads_before


def test_more_workers_than_cores_give_the_one_worker_checkpoint(tmp_path, monkeypatch):
    # Four shards on four workers, switching threads as often as the
    # interpreter allows: a gradient written to a buffer another shard also
    # writes would change the checkpoint.
    tok = TokenizerConfig(image_size=16, patch=4, enc_layers=1, dec_layers=1, enc_width=16,
                          dec_width=16, heads=2, latent_dim=4, scales=(1, 2, 4), seed=5)
    blobs = []
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for workers in (1, 4):
            monkeypatch.setattr(parallel, "pool_size", lambda shards, n=workers: min(shards, n))
            ckpt = tmp_path / f"w{workers}.htok"
            train(RunConfig(tokenizer=tok, data_dir="synthetic:136", steps=2, batch_size=128,
                            eval_fraction=0.05, checkpoint=str(ckpt)))
            blobs.append(ckpt.read_bytes())
    finally:
        sys.setswitchinterval(interval)
    assert blobs[0] == blobs[1]
