import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mstok import attention as A
from mstok.pyramid import build_schedule
from mstok.tensor import ConfigError, Tensor, grad_check, make_rng, tsum, square


def oracle_mask(grids, regime):
    # Nested-loop definition over (scale(q), scale(k)) pairs.
    scale_of = []
    for s, g in enumerate(grids):
        scale_of.extend([s] * (g * g))
    t = len(scale_of)
    allow = np.zeros((t, t), dtype=bool)
    for qi in range(t):
        for ki in range(t):
            if regime == A.AttentionRegime.FULL:
                allow[qi, ki] = True
            elif regime == A.AttentionRegime.SCALE_INDEPENDENT:
                allow[qi, ki] = scale_of[qi] == scale_of[ki]
            else:
                allow[qi, ki] = scale_of[qi] >= scale_of[ki]
    return allow


def random_attn_params(rng, d, dtype=np.float32):
    def w():
        return Tensor(rng.standard_normal((d, d)).astype(dtype) * 0.3, requires_grad=True)

    return A.AttentionParams(wq=w(), wk=w(), wv=w(), wo=w())


def random_block_params(rng, d, dtype=np.float32):
    def w(shape):
        return Tensor(rng.standard_normal(shape).astype(dtype) * 0.3, requires_grad=True)

    return A.BlockParams(
        ln1=A.LayerNormParams(gain=Tensor(np.ones(d, dtype=dtype), requires_grad=True),
                              bias=Tensor(np.zeros(d, dtype=dtype), requires_grad=True)),
        attn=random_attn_params(rng, d, dtype),
        ln2=A.LayerNormParams(gain=Tensor(np.ones(d, dtype=dtype), requires_grad=True),
                              bias=Tensor(np.zeros(d, dtype=dtype), requires_grad=True)),
        mlp=A.MlpParams(fc1=w((d, 4 * d)), fc2=w((4 * d, d))),
    )


# ---------------------------------------------------------------------------
# build_mask
# ---------------------------------------------------------------------------

def test_scale_causal_mask_two_scales():
    sched = build_schedule(2, [1, 2])
    mask = A.build_mask(sched, A.AttentionRegime.SCALE_CAUSAL)
    expected = np.ones((5, 5), dtype=bool)
    expected[0, 1:] = False
    np.testing.assert_array_equal(mask.allow, expected)


def test_scale_independent_mask_two_scales():
    sched = build_schedule(2, [1, 2])
    mask = A.build_mask(sched, A.AttentionRegime.SCALE_INDEPENDENT)
    expected = np.zeros((5, 5), dtype=bool)
    expected[0, 0] = True
    expected[1:, 1:] = True
    np.testing.assert_array_equal(mask.allow, expected)


def test_full_mask_all_true():
    sched = build_schedule(4, [2, 4])
    mask = A.build_mask(sched, A.AttentionRegime.FULL)
    assert mask.allow.all()


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(1, 8), min_size=1, max_size=4, unique=True),
    st.sampled_from(list(A.AttentionRegime)),
)
def test_mask_matches_nested_loop_oracle(grids, regime):
    grids = tuple(sorted(grids))
    sched = build_schedule(grids[-1], grids)
    mask = A.build_mask(sched, regime)
    np.testing.assert_array_equal(mask.allow, oracle_mask(grids, regime))
    assert mask.allow.any(axis=1).all()  # every row attends somewhere


def test_regime_parse_roundtrip():
    assert A.AttentionRegime.parse("scalecausal") is A.AttentionRegime.SCALE_CAUSAL
    assert A.AttentionRegime.parse(" Full ") is A.AttentionRegime.FULL
    with pytest.raises(ConfigError):
        A.AttentionRegime.parse("diagonal")


# ---------------------------------------------------------------------------
# masked_mha
# ---------------------------------------------------------------------------

def test_single_token_returns_value_projection():
    rng = make_rng(0)
    d = 8
    x = Tensor(rng.standard_normal((1, 1, d)).astype(np.float32))
    eye = Tensor(np.eye(d, dtype=np.float32))
    wv = Tensor(rng.standard_normal((d, d)).astype(np.float32))
    params = A.AttentionParams(wq=eye, wk=eye, wv=wv, wo=eye)
    out = A.masked_mha(x, params, heads=2, mask=None)
    np.testing.assert_allclose(out.data, x.data @ wv.data, rtol=1e-5)


def test_full_mask_matches_unmasked_bitwise():
    rng = make_rng(1)
    sched = build_schedule(2, [1, 2])
    d = 8
    x = Tensor(rng.standard_normal((2, sched.total, d)).astype(np.float32))
    params = random_attn_params(rng, d)
    masked = A.masked_mha(x, params, heads=2, mask=A.build_mask(sched, A.AttentionRegime.FULL))
    unmasked = A.masked_mha(x, params, heads=2, mask=None)
    np.testing.assert_array_equal(masked.data, unmasked.data)


def test_scale_causal_equals_per_prefix_attention():
    # Under the causal regime, block s sees exactly the prefix of blocks <= s,
    # so unmasked attention run on each prefix is an independent oracle.
    rng = make_rng(2)
    sched = build_schedule(2, [1, 2])
    d = 8
    x64 = rng.standard_normal((1, sched.total, d))
    params = random_attn_params(rng, d, dtype=np.float64)
    x = Tensor(x64, dtype=np.float64)
    full_out = A.masked_mha(x, params, heads=2, mask=A.build_mask(sched, A.AttentionRegime.SCALE_CAUSAL))
    offsets = sched.offsets()
    for s, (start, count) in enumerate(zip(offsets, sched.counts)):
        prefix = Tensor(x64[:, : start + count], dtype=np.float64)
        prefix_out = A.masked_mha(prefix, params, heads=2, mask=None)
        np.testing.assert_allclose(
            full_out.data[:, start : start + count],
            prefix_out.data[:, start : start + count],
            rtol=1e-12,
        )


def test_causality_perturbation_exact():
    # Perturbing a higher-scale block leaves every lower block bit-identical.
    rng = make_rng(3)
    sched = build_schedule(4, [1, 2, 4])
    d = 16
    params = random_attn_params(rng, d)
    mask = A.build_mask(sched, A.AttentionRegime.SCALE_CAUSAL)
    x = rng.standard_normal((1, sched.total, d)).astype(np.float32)
    base = A.masked_mha(Tensor(x), params, heads=4, mask=mask).data

    perturbed = x.copy()
    start_last = sched.offsets()[-1]
    perturbed[:, start_last:] += rng.standard_normal((1, sched.counts[-1], d)).astype(np.float32)
    out = A.masked_mha(Tensor(perturbed), params, heads=4, mask=mask).data
    np.testing.assert_array_equal(out[:, :start_last], base[:, :start_last])


def test_scale_independent_isolation_exact():
    rng = make_rng(4)
    sched = build_schedule(2, [1, 2])
    d = 8
    params = random_attn_params(rng, d)
    mask = A.build_mask(sched, A.AttentionRegime.SCALE_INDEPENDENT)
    x = rng.standard_normal((1, sched.total, d)).astype(np.float32)
    base = A.masked_mha(Tensor(x), params, heads=2, mask=mask).data
    perturbed = x.copy()
    perturbed[:, 0] += 1.0  # scale-1 block
    out = A.masked_mha(Tensor(perturbed), params, heads=2, mask=mask).data
    np.testing.assert_array_equal(out[:, 1:], base[:, 1:])


def test_attention_weights_sum_to_one_over_allowed():
    # Recompute the weights independently from the projection parameters.
    rng = make_rng(5)
    sched = build_schedule(2, [1, 2])
    d, heads = 8, 2
    hd = d // heads
    params = random_attn_params(rng, d)
    mask = A.build_mask(sched, A.AttentionRegime.SCALE_CAUSAL)
    x = rng.standard_normal((sched.total, d)).astype(np.float32)
    q = (x @ params.wq.data).reshape(-1, heads, hd).transpose(1, 0, 2)
    k = (x @ params.wk.data).reshape(-1, heads, hd).transpose(1, 0, 2)
    scores = q @ k.transpose(0, 2, 1) / math.sqrt(hd) + mask.additive
    w = np.exp(scores - scores.max(axis=-1, keepdims=True))
    w /= w.sum(axis=-1, keepdims=True)
    np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-6)
    for h in range(heads):
        assert np.all(w[h][~mask.allow] == 0.0)


def test_heads_divisibility_error():
    rng = make_rng(6)
    params = random_attn_params(rng, 6)
    with pytest.raises(ConfigError):
        A.masked_mha(Tensor(np.zeros((1, 2, 6))), params, heads=4, mask=None)


# ---------------------------------------------------------------------------
# transformer_block
# ---------------------------------------------------------------------------

def test_block_residual_identity_with_zero_branches():
    rng = make_rng(7)
    d = 8
    params = random_block_params(rng, d)
    params.attn.wo = Tensor(np.zeros((d, d), dtype=np.float32))
    params.mlp.fc2 = Tensor(np.zeros((4 * d, d), dtype=np.float32))
    x = rng.standard_normal((1, 5, d)).astype(np.float32)
    out = A.transformer_block(Tensor(x), params, heads=2, mask=None)
    np.testing.assert_array_equal(out.data, x)


def test_block_eval_deterministic_with_drop_path():
    rng = make_rng(8)
    d = 8
    params = random_block_params(rng, d)
    x = Tensor(rng.standard_normal((1, 5, d)).astype(np.float32))
    a = A.transformer_block(x, params, heads=2, mask=None, drop_rate=0.1, training=False)
    b = A.transformer_block(x, params, heads=2, mask=None, drop_rate=0.1, training=False)
    np.testing.assert_array_equal(a.data, b.data)


def test_block_grad_check():
    rng = make_rng(9)
    d = 4
    params = random_block_params(rng, d, dtype=np.float64)
    sched = build_schedule(2, [1, 2])
    mask = A.build_mask(sched, A.AttentionRegime.SCALE_CAUSAL)
    x = Tensor(rng.standard_normal((1, sched.total, d)))
    coeff = Tensor(rng.standard_normal((sched.total, d)))

    def f(t):
        return tsum(square(A.transformer_block(t, params, heads=2, mask=mask) * coeff))

    assert grad_check(f, x, eps=1e-5) < 1e-4


def test_block_grad_check_through_params():
    rng = make_rng(10)
    d = 4
    params = random_block_params(rng, d, dtype=np.float64)
    x = Tensor(rng.standard_normal((1, 3, d)), dtype=np.float64)

    def f(t):
        saved = params.attn.wq
        params.attn.wq = t
        try:
            return tsum(square(A.transformer_block(x, params, heads=2, mask=None)))
        finally:
            params.attn.wq = saved

    assert grad_check(f, params.attn.wq, eps=1e-5) < 1e-4
