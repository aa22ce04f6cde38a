import functools
import importlib
import inspect
import json
import os
import pkgutil
import struct
import threading
from pathlib import Path

import numpy as np
import pytest

import mstok
import mstok.cli as cli
from mstok import blas, parallel
from mstok.attention import AttentionRegime
from mstok.cli import E2E_THRESHOLD, OPS_THRESHOLD, UsageError, main
from mstok.config import RunConfig, TokenizerConfig
from mstok.data import load_dataset
from mstok.imageio import load_ppm
from mstok.latent_stats import analyze_latents, read_latents, write_latents
from mstok.loop import log_path_for
from mstok.model import TokenizerModel, init_model, load_checkpoint, save_checkpoint
from mstok.tensor import ConfigError, DataError, NumericError, Tensor, make_rng, named_tensors, replica
from mstok.train import evaluate, train
from synthetic_folder import generate_synthetic_folder
from test_attention import oracle_mask

SMALL = ["image_size=16", "patch=4", "enc_layers=1", "dec_layers=1", "enc_width=16",
         "dec_width=16", "heads=2", "latent_dim=4", "scales=1,2,4"]


def sets(pairs):
    out = []
    for p in pairs:
        out += ["--set", p]
    return out


def small_checkpoint(tmp_path, steps=2):
    cfg = RunConfig(
        tokenizer=TokenizerConfig(image_size=16, patch=4, enc_layers=1, dec_layers=1,
                                  enc_width=16, dec_width=16, heads=2, latent_dim=4,
                                  scales=(1, 2, 4), seed=0),
        data_dir="synthetic:12", steps=steps, batch_size=4,
        checkpoint=str(tmp_path / "tok.htok"), eval_fraction=0.25,
    )
    return train(cfg)["checkpoint"]


def test_dump_mask_matches_oracle(capsys):
    assert main(["dump-mask", "--set", "scales=1,2", "--set", "regime=scalecausal"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    matrix = np.array([[int(v) for v in row.split()] for row in rows])
    expected = np.ones((5, 5), dtype=int)
    expected[0, 1:] = 0
    np.testing.assert_array_equal(matrix, expected)


def test_dump_mask_scale_independent(capsys):
    assert main(["dump-mask", "--set", "scales=1,2", "--set", "regime=scaleindependent"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    matrix = np.array([[int(v) for v in row.split()] for row in rows])
    expected = np.zeros((5, 5), dtype=int)
    expected[0, 0] = 1
    expected[1:, 1:] = 1
    np.testing.assert_array_equal(matrix, expected)


@pytest.mark.parametrize("scales, regime", [
    *(("1,2,4", regime.value) for regime in AttentionRegime), ("1,3", "full"), ("1,2,4,8", "scalecausal")])
def test_dump_mask_rows_equal_the_oracle(capsys, scales, regime):
    # One row of 0/1 per query, each printed from the query's span.
    assert main(["dump-mask", "--set", f"scales={scales}", "--set", f"regime={regime}"]) == 0
    rows = capsys.readouterr().out.splitlines()
    grids = tuple(int(g) for g in scales.split(","))
    want = oracle_mask(grids, AttentionRegime(regime))
    assert rows == [" ".join(str(int(v)) for v in row) for row in want]


def test_unknown_subcommand_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_missing_subcommand_usage_error():
    assert main([]) == 1


def test_unknown_config_key_usage_error(tmp_path):
    assert main(["train", "--set", "not_a_key=1"]) == 1


@pytest.mark.parametrize("argv, key", [
    (["train", "--set", "steps=abc"], "steps"),
    (["train", "--set", "scales=1,x"], "scales"),
    (["dump-mask", "--set", "scales="], "scales"),
    (["dump-mask", "--set", "stepz=3"], "stepz"),
])
def test_malformed_config_value_config_error(capsys, argv, key):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err


@pytest.mark.parametrize("settings", [
    ["image_size=30"],                      # not a multiple of patch
    ["heads=0"],
    ["enc_width=0"],
    ["dec_width=0"],
    ["latent_dim=0"],
    ["enc_layers=-1"],
    ["dec_layers=-1"],
    ["heads=3"],                            # widths not divisible by heads
    ["downsample_mode=pool"],
    ["regime=diagonal"],
    ["scales=1,2,4"],                       # last grid is not the base grid
    ["downsample_mode=conv", "scales=1,3,8"],  # non-dyadic conv pyramid
    ["drop_path=1.0"],
    ["kl_weight=-1"],
    ["seed=-1"],
    ["batch_size=0"],
    ["eval_fraction=1.0"],
    ["scale_weights=1,1"],                  # 2 weights for 4 scales
    ["warmup_ratio=1.5"],
    ["steps=-3"],
    ["epochs=-1"],
    ["log_interval=-1"],
    ["checkpoint_interval=-1"],
    ["lr_start=-1"],
    ["lr_end=-1"],
    ["lr_start=nan"],
    ["lr_start=inf"],
    ["lr_end=inf"],
    ["grad_clip=0"],
    ["grad_clip=-1"],
    ["l1_weight=-1"],
    ["mse_weight=-1"],
    ["l1_weight=inf"],
    ["mse_weight=inf"],
    ["kl_weight=inf"],
    ["scale_weights=1,-1,1,1"],
    ["scale_weights=0,0,0,0"],
    ["scale_weights=inf,1,1,1"],
    ["image_size=4", "patch=4", "scales=1"],  # smaller than the SSIM window
], ids="+".join)
def test_invalid_config_value_config_error(tmp_path, capsys, settings):
    assert main(["train"] + sets(settings + [f"checkpoint={tmp_path / 'tok.htok'}"])) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.splitlines()) == 1
    assert not os.path.exists(tmp_path / "tok.htok")


@pytest.mark.parametrize("checkpoint", ["", "sub/"], ids=["empty", "directory"])
def test_checkpoint_without_file_name_config_error(tmp_path, monkeypatch, capsys, checkpoint):
    monkeypatch.chdir(tmp_path)
    assert main(["train"] + sets(SMALL + ["steps=1", "data_dir=synthetic:8", "batch_size=4",
                                          f"checkpoint={checkpoint}"])) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.splitlines()) == 1
    assert os.listdir(tmp_path) == []


def test_zero_steps_still_valid(tmp_path):
    # Writes the step-0 checkpoint, as the benchmark's set-up does.
    ckpt = tmp_path / "tok.htok"
    assert main(["train"] + sets(SMALL + ["steps=0", "data_dir=synthetic:8", "batch_size=4",
                                          f"checkpoint={ckpt}"])) == 0
    assert load_checkpoint(str(ckpt)).config.latent_dim == 4


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_numeric_error_exit_3_logs_abort(tmp_path, capsys):
    ckpt = str(tmp_path / "tok.htok")
    argv = ["train"] + sets(["lr_start=1e38", "steps=3", "data_dir=synthetic:8", "batch_size=4",
                             f"checkpoint={ckpt}"])
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("numeric error: kl_loss: non-finite logvar")
    with open(log_path_for(ckpt), encoding="utf-8") as fh:
        last = json.loads(fh.read().splitlines()[-1])
    assert last["event"] == "abort" and last["error_type"] == "NumericError"


def write_hlat(path, count, dim=4, nan=False):
    vectors = make_rng(0).normal(size=(count, dim)).astype("<f4")
    if nan:
        vectors[count // 2, 0] = np.nan
    path.write_bytes(b"HLAT" + struct.pack("<II", count, dim) + vectors.tobytes())
    return str(path)


@pytest.mark.parametrize("case, code", [
    ("two_vector_hlat", 2),
    ("nan_hlat", 2),            # non-finite vectors
    ("huge_header_hlat", 2),    # header claims 0xFFFFFFFF x 0xFFFFFFFF vectors
    ("non_utf8_config", 1),
    ("grid=0", 1),
    ("grid=-3", 1),
    ("bandwidth=-1", 1),
    ("bandwidth=1e-300", 1),    # its square underflows to 0
    ("bandwidth=1e200", 1),     # its square overflows to inf
    ("pad=nan", 1),
    ("pad=-1", 1),
    ("grid=1,bandwidth=1e-10", 1),  # every density underflows to 0
    ("zero_dim_hlat", 2),
])
def test_bad_input_exit_code_one_line(tmp_path, capsys, case, code):
    if case == "two_vector_hlat":
        argv = ["analyze-latent", write_hlat(tmp_path / "two.hlat", 2)]
    elif case == "nan_hlat":
        argv = ["analyze-latent", write_hlat(tmp_path / "nan.hlat", 20, nan=True)]
    elif case == "huge_header_hlat":
        (tmp_path / "huge.hlat").write_bytes(b"HLAT" + b"\xff" * 8 + b"\x00" * 64)
        argv = ["analyze-latent", str(tmp_path / "huge.hlat")]
    elif case == "zero_dim_hlat":
        argv = ["analyze-latent", write_hlat(tmp_path / "zero.hlat", 5, dim=0)]
    elif case == "non_utf8_config":
        (tmp_path / "bad.cfg").write_bytes(b"steps=3\ncheckpoint=\xff\xfe\n")
        argv = ["train", "--config", str(tmp_path / "bad.cfg")]
    else:
        argv = ["analyze-latent", write_hlat(tmp_path / "ok.hlat", 20)]
        for option in case.split(","):
            flag, value = option.split("=")
            argv += [f"--{flag}", value]
    # main() returning at all means no exception escaped as a traceback.
    assert main(argv) == code
    err = capsys.readouterr().err
    prefix = {1: "config error:", 2: "data error:"}[code]
    assert err.startswith(prefix) and len(err.splitlines()) == 1 and "Traceback" not in err


def test_every_error_class_maps_to_an_exit_code():
    bases = (ConfigError, DataError, NumericError)
    found = []
    for info in pkgutil.iter_modules(mstok.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"mstok.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, BaseException) and cls.__module__ == module.__name__:
                found.append(cls)
    assert {c.__name__ for c in found} >= {"ConfigError", "DataError", "NumericError", "ShapeError",
                                           "FormatError", "CheckpointError", "LatentFormatError",
                                           "UndefinedMetricsError", "UsageError"}
    assert [c for c in found if c is not UsageError and not issubclass(c, bases)] == []


def test_gradcheck_passes_within_thresholds(capsys):
    assert main(["gradcheck"]) == 0
    lines = capsys.readouterr().out.splitlines()
    errors = {line.split(": max_rel_err=")[0]: float(line.split("=")[1])
              for line in lines if "max_rel_err=" in line}
    assert len(errors) == len(lines) - 1 and "model end-to-end" in errors
    assert list(errors) == [
        "op sum_of_squares", "op conv_layernorm_mean", "op pyramid_interp", "op gelu_mlp",
        "op area_pool_fractional", "op span_attention_scalecausal", "op span_attention_scaleindependent",
        "model end-to-end",
    ]
    for name, err in errors.items():
        assert err < (E2E_THRESHOLD if name == "model end-to-end" else OPS_THRESHOLD), name


def test_train_reconstruct_flow(tmp_path, capsys):
    ckpt = str(tmp_path / "out" / "tok.htok")
    rc = main(["train"] + sets(SMALL + [
        "data_dir=synthetic:12", "steps=2", "batch_size=4", "eval_fraction=0.25",
        f"checkpoint={ckpt}",
    ]))
    assert rc == 0
    out = capsys.readouterr().out
    done = [json.loads(l) for l in out.splitlines() if '"event": "done"' in l]
    assert done and done[0]["checkpoint"] == ckpt

    in_dir = str(tmp_path / "inputs")
    generate_synthetic_folder(in_dir, 2, 16, seed=9)
    out_dir = str(tmp_path / "recon")
    assert main(["reconstruct", ckpt, in_dir, out_dir]) == 0
    produced = sorted(os.listdir(out_dir))
    assert produced == [
        "synthetic_00000_s16.ppm", "synthetic_00000_s4.ppm", "synthetic_00000_s8.ppm",
        "synthetic_00001_s16.ppm", "synthetic_00001_s4.ppm", "synthetic_00001_s8.ppm",
    ]
    for name in produced:
        side = int(name.rsplit("_s", 1)[1].split(".")[0])
        img = load_ppm(os.path.join(out_dir, name))
        assert img.shape == (3, side, side)


def test_export_and_analyze_latents(tmp_path, capsys):
    ckpt = small_checkpoint(tmp_path)
    hlat = str(tmp_path / "latents.hlat")
    rc = main(["export-latents", ckpt, hlat, "--set", "data_dir=synthetic:12", "--set", "batch_size=4"])
    assert rc == 0
    vectors = read_latents(hlat)
    assert vectors.shape == (12, 4 * 4 * 4)

    report_path = str(tmp_path / "stats.json")
    rc = main(["analyze-latent", hlat, "--grid", "16", "--out", report_path])
    assert rc == 0
    report = json.loads(Path(report_path).read_text(encoding="utf-8"))
    for key in ("density_cv", "gini", "norm_entropy", "n_points", "grid_size", "bandwidth", "projected_axes"):
        assert key in report
    assert report["n_points"] == 12 and report["grid_size"] == 16


def test_export_latents_independent_of_batch_size(tmp_path):
    # 40 images of 4 x 4 encoder tokens are shards of 16 + 16 + 8 whatever
    # the batch size; the rows are those of one encoder pass over all 40.
    assert [hi - lo for lo, hi in parallel.shard_bounds(40, 4 * 4)] == [16, 16, 8]
    ckpt = small_checkpoint(tmp_path)
    blobs = []
    for b in (4, 64):
        hlat = tmp_path / f"b{b}.hlat"
        assert main(["export-latents", ckpt, str(hlat), "--set", "data_dir=synthetic:40",
                     "--set", f"batch_size={b}"]) == 0
        blobs.append(hlat.read_bytes())
    assert blobs[0] == blobs[1]
    model = replica(load_checkpoint(ckpt), requires_grad=False)
    images = load_dataset("synthetic:40", model.config.image_size, model.config.seed).images
    whole = model.latent_for_generation(Tensor(images)).data.reshape(40, -1)
    np.testing.assert_array_equal(read_latents(str(tmp_path / "b4.hlat")), whole)


def test_eval_uniformity_matches_analyze_latent_of_export(tmp_path):
    # The train eval and analyze-latent on an export score the paper's
    # uniformity on the same latent rows.
    ckpt = small_checkpoint(tmp_path, steps=3)
    model = load_checkpoint(ckpt)
    hlat = str(tmp_path / "latents.hlat")
    assert main(["export-latents", ckpt, hlat, "--set", "data_dir=synthetic:40"]) == 0
    ds = load_dataset("synthetic:40", model.config.image_size, model.config.seed)
    got = evaluate(model, ds, np.arange(40), RunConfig(tokenizer=model.config))["uniformity"]
    assert got == analyze_latents(read_latents(hlat)).to_dict()


def test_reconstruct_rejects_config_options(tmp_path, capsys):
    # reconstruct takes everything from the checkpoint; config options would be ignored.
    ckpt = small_checkpoint(tmp_path)
    in_dir = str(tmp_path / "inputs")
    generate_synthetic_folder(in_dir, 1, 16, seed=9)
    capsys.readouterr()
    argv = ["reconstruct", "--set", "totally_bogus=1", "--config", str(tmp_path / "missing.cfg"),
            ckpt, in_dir, str(tmp_path / "recon")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: unrecognized arguments")
    assert not (tmp_path / "recon").exists()


def test_export_latents_config_must_match_checkpoint(tmp_path, capsys):
    ckpt = small_checkpoint(tmp_path)
    hlat = tmp_path / "latents.hlat"
    capsys.readouterr()
    assert main(["export-latents", ckpt, str(hlat), "--set", "latent_dim=8"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "'latent_dim'" in err
    assert not hlat.exists()

    # A training config whose tokenizer keys equal the checkpoint's still works.
    cfg = tmp_path / "train.cfg"
    cfg.write_text("\n".join(SMALL + ["seed=0", "steps=2", "data_dir=synthetic:6", "batch_size=4"]) + "\n",
                   encoding="utf-8")
    assert main(["export-latents", "--config", str(cfg), ckpt, str(hlat)]) == 0
    assert read_latents(str(hlat)).shape == (6, 4 * 4 * 4)


def test_analyze_latent_rank_deficient_dump_reports_axes_quietly(tmp_path, capfd):
    hlat = str(tmp_path / "flat.hlat")
    write_latents(np.full((20, 8), 0.5, dtype=np.float32), hlat)
    capfd.readouterr()
    assert main(["analyze-latent", hlat]) == 0
    out, err = capfd.readouterr()
    assert err == ""
    assert json.loads(out)["projected_axes"] == 0


def test_reconstruct_bad_checkpoint_data_error(tmp_path):
    bad = tmp_path / "bad.htok"
    bad.write_bytes(b"JUNKJUNKJUNK")
    assert main(["reconstruct", str(bad), str(tmp_path), str(tmp_path / "o")]) == 2


def test_analyze_latent_bad_file_data_error(tmp_path):
    bad = tmp_path / "bad.hlat"
    bad.write_bytes(b"XXXX\x00\x00\x00\x00\x00\x00\x00\x00")
    assert main(["analyze-latent", str(bad)]) == 2


def test_reconstruct_malformed_ppm_data_error(tmp_path):
    ckpt = small_checkpoint(tmp_path)
    in_dir = tmp_path / "badppm"
    in_dir.mkdir()
    (in_dir / "x.ppm").write_bytes(b"P6\n4 4\n255\nshort")
    assert main(["reconstruct", ckpt, str(in_dir), str(tmp_path / "o")]) == 2


def read_tree(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


def test_reconstruct_workers_write_identical_files(tmp_path, monkeypatch):
    if blas.num_threads() is None:
        pytest.skip("without numpy's OpenBLAS thread controls reconstruct runs one worker")
    ckpt = small_checkpoint(tmp_path)
    in_dir = str(tmp_path / "inputs")
    generate_synthetic_folder(in_dir, 6, 16, seed=9)
    # The 6 images of 21 decoder tokens in shards of 2: three shards.
    monkeypatch.setattr(parallel, "SHARD_TOKENS", 2 * 21)
    assert parallel.shard_bounds(6, 21) == [(0, 2), (2, 4), (4, 6)]
    monkeypatch.setattr(parallel, "pool_size", lambda shards: 1)
    assert main(["reconstruct", ckpt, in_dir, str(tmp_path / "one")]) == 0

    # Every shard waits until three are in flight, so three workers decode at once.
    barrier = threading.Barrier(3, timeout=30)
    seen = []
    real = cli._reconstruct_shard

    def concurrent(*args):
        barrier.wait()
        seen.append((threading.get_ident(), blas.num_threads()))
        real(*args)

    monkeypatch.setattr(parallel, "pool_size", lambda shards: 3)
    monkeypatch.setattr(cli, "_reconstruct_shard", concurrent)
    assert main(["reconstruct", ckpt, in_dir, str(tmp_path / "three")]) == 0
    assert len({ident for ident, _ in seen}) == 3
    one, three = read_tree(tmp_path / "one"), read_tree(tmp_path / "three")
    assert len(one) == 6 * 3 and one == three
    assert {threads for _, threads in seen} == {1}


def test_reconstruct_bytes_do_not_depend_on_the_shard_size(tmp_path, monkeypatch):
    # 7 images of 21 decoder tokens in shards of 1, of 3 (the last one
    # partial) and of the default size, which holds all 7; then the same
    # shards of their 4 x 4 encoder tokens for export-latents.
    ckpt = small_checkpoint(tmp_path)
    in_dir = str(tmp_path / "inputs")
    generate_synthetic_folder(in_dir, 7, 16, seed=9)
    default = parallel.SHARD_TOKENS
    trees = []
    for tokens, sizes in ((21, [1] * 7), (3 * 21, [3, 3, 1]), (default, [7])):
        monkeypatch.setattr(parallel, "SHARD_TOKENS", tokens)
        assert [hi - lo for lo, hi in parallel.shard_bounds(7, 21)] == sizes
        out = tmp_path / f"tokens{tokens}"
        assert main(["reconstruct", ckpt, in_dir, str(out)]) == 0
        trees.append(read_tree(out))
    assert len(trees[0]) == 7 * 3
    assert trees[0] == trees[1] == trees[2]
    dumps = []
    for tokens, sizes in ((4 * 4, [1] * 7), (3 * 4 * 4, [3, 3, 1]), (default, [7])):
        monkeypatch.setattr(parallel, "SHARD_TOKENS", tokens)
        assert [hi - lo for lo, hi in parallel.shard_bounds(7, 4 * 4)] == sizes
        hlat = tmp_path / f"tokens{tokens}.hlat"
        assert main(["export-latents", ckpt, str(hlat), "--set", f"data_dir={in_dir}"]) == 0
        dumps.append(hlat.read_bytes())
    assert read_latents(str(tmp_path / f"tokens{default}.hlat")).shape == (7, 4 * 4 * 4)
    assert dumps[0] == dumps[1] == dumps[2]


@pytest.fixture
def blas_at_two_threads():
    """numpy's BLAS at 2 threads for the test, so that a count left at 1 shows."""
    controls = blas._controls()
    if controls is None:
        yield
        return
    get, set_ = controls
    saved = get()
    set_(2)
    try:
        yield
    finally:
        set_(saved)


def test_reconstruct_restores_blas_and_joins_workers_on_error(tmp_path, monkeypatch, capsys,
                                                              blas_at_two_threads):
    ckpt = small_checkpoint(tmp_path)
    in_dir = str(tmp_path / "inputs")
    generate_synthetic_folder(in_dir, 5, 16, seed=9)
    threads_before, blas_before = set(threading.enumerate()), blas.num_threads()
    real_save = cli.save_ppm
    # Shards of 2 images: images 1 and 3 are in the first two shards, which
    # the two workers run at once; images 2 and 3 share the second shard.
    monkeypatch.setattr(parallel, "SHARD_TOKENS", 2 * 21)
    assert parallel.shard_bounds(5, 21) == [(0, 2), (2, 4), (4, 5)]
    later_failed = threading.Event()
    waited = []

    def failing_save(fails, image, path):
        i = int(os.path.basename(path).split("_")[1])
        if i in fails:
            if i == 1:
                waited.append(later_failed.wait(timeout=5))  # let image 3 fail first
            if i == 3:
                later_failed.set()
            raise OSError(f"cannot write image {i}")
        real_save(image, path)

    monkeypatch.setattr(parallel, "pool_size", lambda shards: 2)
    for fails in ((1, 3), (2, 3)):
        monkeypatch.setattr(cli, "save_ppm", functools.partial(failing_save, fails))
        capsys.readouterr()
        assert main(["reconstruct", ckpt, in_dir, str(tmp_path / "recon")]) == 2
        # The first failure in input order is reported, whichever worker or
        # image of a shard failed first.
        assert capsys.readouterr().err == f"data error: cannot write image {fails[0]}\n"
        assert blas.num_threads() == blas_before
        assert set(threading.enumerate()) == threads_before
    assert waited == [True]

    monkeypatch.setattr(cli, "save_ppm", real_save)
    assert main(["reconstruct", ckpt, in_dir, str(tmp_path / "recon")]) == 0
    assert blas.num_threads() == blas_before
    assert set(threading.enumerate()) == threads_before


def test_train_nonfinite_shard_loss_aborts_and_joins_workers(tmp_path, monkeypatch, capsys,
                                                             blas_at_two_threads):
    import mstok.train as train_mod

    ckpt = str(tmp_path / "tok.htok")
    sets = ["image_size=16", "patch=4", "enc_layers=1", "dec_layers=1", "enc_width=16",
            "dec_width=16", "heads=2", "latent_dim=4", "scales=1,2,4", "data_dir=synthetic:96",
            "batch_size=40", "steps=4", "log_interval=1", f"checkpoint={ckpt}"]
    threads_before, blas_before = set(threading.enumerate()), blas.num_threads()
    real_loss = train_mod.multiscale_loss
    # A batch of 40 images of 21 decoder tokens is shards of 16 + 16 + 8: the
    # 8-image shard is the last one, and the only one of its size.
    sizes = [hi - lo for lo, hi in parallel.shard_bounds(40, 21)]
    assert len(sizes) > 1 and sizes.count(sizes[-1]) == 1
    last_shards = []

    def nan_in_last_shard_of_step_2(px, targets, schedule, config, code):
        loss, breakdown = real_loss(px, targets, schedule, config, code)
        if px.shape[0] == sizes[-1]:
            last_shards.append(breakdown)
            if len(last_shards) == 2:
                loss.data = np.full_like(loss.data, np.nan)
        return loss, breakdown

    monkeypatch.setattr(train_mod, "multiscale_loss", nan_in_last_shard_of_step_2)
    monkeypatch.setattr(parallel, "pool_size", lambda shards: 2)
    capsys.readouterr()
    assert main(["train", *(arg for kv in sets for arg in ("--set", kv))]) == 3
    assert capsys.readouterr().err == "numeric error: non-finite loss at step 2\n"
    assert blas.num_threads() == blas_before
    assert set(threading.enumerate()) == threads_before
    lines = [json.loads(l) for l in Path(log_path_for(ckpt)).read_text(encoding="utf-8").splitlines()]
    assert [l["step"] for l in lines if "step" in l] == [1]
    assert lines[-1] == {"event": "abort", "at_step": 2, "error_type": "NumericError",
                         "error": "non-finite loss at step 2"}
    # The step-0 checkpoint is on disk and loads as the initial model.
    model = load_checkpoint(ckpt)
    initial = named_tensors(init_model(model.config))
    for name, p in named_tensors(model).items():
        assert np.array_equal(p.data, initial[name].data), name


def test_export_latents_workers_write_identical_rows(tmp_path, monkeypatch):
    if blas.num_threads() is None:
        pytest.skip("without numpy's OpenBLAS thread controls export-latents runs one worker")
    ckpt = small_checkpoint(tmp_path)
    data = ["--set", "data_dir=synthetic:40"]
    monkeypatch.setattr(parallel, "pool_size", lambda shards: 1)
    assert main(["export-latents", ckpt, str(tmp_path / "one.hlat"), *data]) == 0

    # 40 images of 4 x 4 encoder tokens are three shards, and each waits
    # until all three are in flight, so three workers write their rows at once.
    assert len(parallel.shard_bounds(40, 4 * 4)) == 3
    barrier = threading.Barrier(3, timeout=30)
    seen = []
    real = cli._encode_rows

    def concurrent(*args):
        barrier.wait()
        seen.append((threading.get_ident(), blas.num_threads()))
        real(*args)

    monkeypatch.setattr(parallel, "pool_size", lambda shards: 3)
    monkeypatch.setattr(cli, "_encode_rows", concurrent)
    assert main(["export-latents", ckpt, str(tmp_path / "three.hlat"), *data]) == 0
    assert len({ident for ident, _ in seen}) == 3
    assert {threads for _, threads in seen} == {1}
    assert (tmp_path / "one.hlat").read_bytes() == (tmp_path / "three.hlat").read_bytes()
    # The rows are those of one encoder pass over all 40 images.
    model = replica(load_checkpoint(ckpt), requires_grad=False)
    images = load_dataset("synthetic:40", model.config.image_size, model.config.seed).images
    whole = model.latent_for_generation(Tensor(images)).data.reshape(40, -1)
    np.testing.assert_array_equal(read_latents(str(tmp_path / "three.hlat")), whole)


def test_export_latents_failing_shard_writes_nothing_and_joins_workers(tmp_path, monkeypatch, capsys,
                                                                       blas_at_two_threads):
    ckpt = small_checkpoint(tmp_path)
    cfg = load_checkpoint(ckpt).config
    lo, hi = parallel.shard_bounds(40, 4 * 4)[1]
    second = load_dataset("synthetic:40", cfg.image_size, cfg.seed).images[lo:hi]
    threads_before, blas_before = set(threading.enumerate()), blas.num_threads()
    real = TokenizerModel.latent_for_generation

    def failing_second_shard(model, x):
        if np.array_equal(x.data, second):
            raise NumericError("non-finite latent in the second shard")
        return real(model, x)

    monkeypatch.setattr(TokenizerModel, "latent_for_generation", failing_second_shard)
    monkeypatch.setattr(parallel, "pool_size", lambda shards: 2)
    hlat = tmp_path / "latents.hlat"
    capsys.readouterr()
    assert main(["export-latents", ckpt, str(hlat), "--set", "data_dir=synthetic:40"]) == 3
    assert capsys.readouterr().err == "numeric error: non-finite latent in the second shard\n"
    assert not hlat.exists()
    assert blas.num_threads() == blas_before
    assert set(threading.enumerate()) == threads_before


def test_reconstruct_without_blas_control_runs_one_worker(tmp_path, monkeypatch):
    monkeypatch.setattr(blas, "_controls", lambda: None)
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: pytest.fail("CPU set asked for"))
    assert blas.num_threads() is None
    assert parallel.pool_size(2) == 1
    ckpt = small_checkpoint(tmp_path)
    in_dir = str(tmp_path / "inputs")
    generate_synthetic_folder(in_dir, 2, 16, seed=9)
    assert main(["reconstruct", ckpt, in_dir, str(tmp_path / "recon")]) == 0
    assert len(os.listdir(tmp_path / "recon")) == 2 * 3


def test_reconstruct_workers_inherit_numpy_errstate(tmp_path, monkeypatch):
    # Weights past float32's range make the decode overflow and the saved
    # pixels NaN; main() silences numpy's warnings, and so must every worker
    # (tier-1 turns a warning into an error).
    ckpt = small_checkpoint(tmp_path)
    model = load_checkpoint(ckpt)
    model.pixel_head.weight.data[...] = 1e38
    model.pixel_head.weight.data[::2] = -1e38
    save_checkpoint(model, ckpt)
    in_dir = str(tmp_path / "inputs")
    generate_synthetic_folder(in_dir, 4, 16, seed=9)
    monkeypatch.setattr(parallel, "pool_size", lambda shards: 2)
    assert main(["reconstruct", ckpt, in_dir, str(tmp_path / "recon")]) == 0
    assert len(os.listdir(tmp_path / "recon")) == 4 * 3


def test_reconstruct_rejects_colliding_stems(tmp_path, capsys):
    ckpt = small_checkpoint(tmp_path)
    in_dir = tmp_path / "inputs"
    generate_synthetic_folder(str(in_dir), 2, 16, seed=9)
    (in_dir / "synthetic_00001.ppm").rename(in_dir / "synthetic_00000.PPM")
    capsys.readouterr()
    assert main(["reconstruct", ckpt, str(in_dir), str(tmp_path / "recon")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "'synthetic_00000.PPM' and 'synthetic_00000.ppm'" in err
    assert not (tmp_path / "recon").exists()
