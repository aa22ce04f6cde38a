import numpy as np
import pytest

from mstok.data import (
    DataError,
    Dataset,
    generate_synthetic,
    load_dataset,
    load_folder,
)
from mstok.imageio import save_ppm
from synthetic_folder import generate_synthetic_folder


def test_synthetic_deterministic_and_in_range():
    a = generate_synthetic(4, 16, seed=7)
    b = generate_synthetic(4, 16, seed=7)
    np.testing.assert_array_equal(a.images, b.images)
    assert a.images.min() >= -1.0 and a.images.max() <= 1.0
    assert a.images.shape == (4, 3, 16, 16)
    # images differ from each other
    assert not np.array_equal(a.images[0], a.images[1])


def test_synthetic_different_seed_differs():
    a = generate_synthetic(2, 16, seed=1)
    b = generate_synthetic(2, 16, seed=2)
    assert not np.array_equal(a.images, b.images)


def test_synthetic_folder_roundtrip(tmp_path):
    paths = generate_synthetic_folder(str(tmp_path), 3, 16, seed=5)
    assert len(paths) == 3
    ds = load_folder(str(tmp_path), 16)
    mem = generate_synthetic(3, 16, seed=5)
    np.testing.assert_array_equal(ds.images, mem.images)


def test_load_folder_lexicographic_order(tmp_path):
    rng = np.random.default_rng(0)
    for name in ["b.ppm", "a.ppm", "c.ppm"]:
        save_ppm(rng.uniform(-1, 1, (3, 8, 8)).astype(np.float32), str(tmp_path / name))
    ds = load_folder(str(tmp_path), 8)
    assert ds.names == ["a.ppm", "b.ppm", "c.ppm"]


def test_load_folder_size_mismatch(tmp_path):
    save_ppm(np.zeros((3, 8, 8), dtype=np.float32), str(tmp_path / "x.ppm"))
    with pytest.raises(DataError):
        load_folder(str(tmp_path), 16)


def test_load_folder_empty(tmp_path):
    with pytest.raises(DataError):
        load_folder(str(tmp_path), 8)


def test_load_dataset_synthetic_spec():
    ds = load_dataset("synthetic:6", 16, seed=3)
    assert len(ds) == 6
    with pytest.raises(DataError):
        load_dataset("synthetic:nope", 16, seed=3)


def test_split_deterministic_tail():
    ds = generate_synthetic(16, 8, seed=0)
    train_idx, eval_idx = ds.split(0.25)
    assert list(eval_idx) == [12, 13, 14, 15]
    assert list(train_idx) == list(range(12))


def test_split_always_leaves_training_data():
    ds = generate_synthetic(4, 8, seed=0)
    train_idx, eval_idx = ds.split(0.9)
    assert len(train_idx) >= 1


def test_epoch_order_reproducible():
    ds = generate_synthetic(32, 8, seed=0)
    idx = np.arange(28)
    a = ds.epoch_order(seed=5, epoch=3, indices=idx)
    b = ds.epoch_order(seed=5, epoch=3, indices=idx)
    c = ds.epoch_order(seed=5, epoch=4, indices=idx)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert sorted(a.tolist()) == list(range(28))
