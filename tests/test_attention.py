import math

import composed_block as composed
import dense_attention as dense
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mstok import attention as A
from mstok.pyramid import build_schedule
from mstok.tensor import (ConfigError, ShapeError, Tensor, grad_check, make_rng, mul, named_tensors, replica,
                          slice_axis, square, tsum)


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


def span_cover(spans, t):
    # How many times each (query, key) pair lies in a span's rectangle.
    cover = np.zeros((t, t), dtype=int)
    for q_lo, q_hi, k_lo, k_hi in spans:
        cover[q_lo:q_hi, k_lo:k_hi] += 1
    return cover


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
    np.testing.assert_array_equal(span_cover(mask, 5) == 1, expected)


def test_scale_independent_mask_two_scales():
    sched = build_schedule(2, [1, 2])
    mask = A.build_mask(sched, A.AttentionRegime.SCALE_INDEPENDENT)
    expected = np.zeros((5, 5), dtype=bool)
    expected[0, 0] = True
    expected[1:, 1:] = True
    np.testing.assert_array_equal(span_cover(mask, 5) == 1, expected)


def test_full_mask_all_true():
    sched = build_schedule(4, [2, 4])
    mask = A.build_mask(sched, A.AttentionRegime.FULL)
    assert (span_cover(mask, sched.total) == 1).all()


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(1, 8), min_size=1, max_size=4, unique=True),
    st.sampled_from(list(A.AttentionRegime)),
)
def test_mask_matches_nested_loop_oracle(grids, regime):
    grids = tuple(sorted(grids))
    sched = build_schedule(grids[-1], grids)
    allow = span_cover(A.build_mask(sched, regime), sched.total) == 1
    np.testing.assert_array_equal(allow, oracle_mask(grids, regime))
    assert allow.any(axis=1).all()  # every row attends somewhere


@pytest.mark.parametrize("grids", [(1,), (1, 2), (1, 3, 5), (2, 4, 8), (1, 2, 4, 8), (1, 2, 3, 4, 6, 8)])
@pytest.mark.parametrize("regime", list(A.AttentionRegime))
def test_spans_cover_each_query_once_and_equal_the_oracle(grids, regime):
    sched = build_schedule(grids[-1], grids)
    mask = A.build_mask(sched, regime)
    t = sched.total
    queries = np.zeros(t, dtype=int)
    for q_lo, q_hi, k_lo, k_hi in mask:
        assert 0 <= q_lo < q_hi <= t and 0 <= k_lo < k_hi <= t
        queries[q_lo:q_hi] += 1
    assert (queries == 1).all()
    cover = span_cover(mask, t)
    assert cover.max() == 1
    np.testing.assert_array_equal(cover == 1, oracle_mask(grids, regime))
    assert len(mask) == (1 if regime is A.AttentionRegime.FULL else len(grids))
    if regime is not A.AttentionRegime.FULL:
        # A prefix of the scales has the mask's first spans as its mask.
        for s in range(len(grids)):
            assert mask[:s + 1] == A.build_mask(build_schedule(grids[s], grids[:s + 1]), regime)


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
    allow = span_cover(mask, sched.total) == 1
    scores = q @ k.transpose(0, 2, 1) / math.sqrt(hd) + np.where(allow, 0.0, dense.MASK_VALUE)
    w = np.exp(scores - scores.max(axis=-1, keepdims=True))
    w /= w.sum(axis=-1, keepdims=True)
    np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-6)
    for h in range(heads):
        assert np.all(w[h][~allow] == 0.0)


def mha_oracle(x, params, heads, allow):
    # Row-major float64 reference: softmax(q k^T / sqrt(hd) + mask) v over the
    # last axis, per head, from the query-major allow matrix.
    b, t, d = x.shape
    hd = d // heads

    def split(w):
        return (x @ w.data).reshape(b, t, heads, hd).transpose(0, 2, 1, 3)

    q, k, v = split(params.wq), split(params.wk), split(params.wv)
    scores = q @ k.transpose(0, 1, 3, 2) / math.sqrt(hd) + np.where(allow, 0.0, dense.MASK_VALUE)
    p = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    return (p @ v).transpose(0, 2, 1, 3).reshape(b, t, d) @ params.wo.data


@pytest.mark.parametrize("regime", list(A.AttentionRegime))
def test_masked_mha_matches_row_major_oracle(regime):
    rng = make_rng(8)
    grids = (1, 2, 4, 8)
    sched = build_schedule(8, grids)
    d, heads = 16, 4
    params = random_attn_params(rng, d, dtype=np.float64)
    mask = A.build_mask(sched, regime)
    x = rng.standard_normal((2, sched.total, d))
    out = A.masked_mha(Tensor(x, dtype=np.float64), params, heads, mask)
    allow = oracle_mask(grids, regime)
    np.testing.assert_allclose(out.data, mha_oracle(x, params, heads, allow), rtol=1e-12, atol=1e-12)
    # The mask is its spans alone, a tuple of 4-int tuples, whose cover is
    # the oracle's set.
    assert type(mask) is tuple
    assert all(type(span) is tuple and len(span) == 4 and all(type(v) is int for v in span) for span in mask)
    np.testing.assert_array_equal(span_cover(mask, sched.total), allow)


def weights(params):
    return [w.data for w in (params.wq, params.wk, params.wv, params.wo)]


@pytest.mark.parametrize("grids, b, d, heads", [((1, 2, 4, 8), 16, 64, 4), ((1, 3, 5), 3, 32, 4), ((2, 4), 2, 6, 2)])
@pytest.mark.parametrize("regime", list(A.AttentionRegime))
def test_masked_mha_forward_is_the_dense_composition_bitwise(grids, b, d, heads, regime):
    # float32, as in the model: the skipped score entries added exact zeros.
    rng = make_rng(12)
    sched = build_schedule(grids[-1], grids)
    params = random_attn_params(rng, d)
    mask = A.build_mask(sched, regime)
    x = rng.standard_normal((b, sched.total, d)).astype(np.float32)
    out = A.masked_mha(Tensor(x), params, heads, mask).data
    want, _ = dense.mha(x, weights(params), heads, oracle_mask(grids, regime))
    assert out.dtype == np.float32
    np.testing.assert_array_equal(out.view(np.uint32), want.view(np.uint32))


@pytest.mark.parametrize("grids", [(1, 2, 4), (1, 3, 5)])
@pytest.mark.parametrize("regime", list(A.AttentionRegime))
def test_masked_mha_gradients_match_the_dense_composition(grids, regime):
    rng = make_rng(13)
    sched = build_schedule(grids[-1], grids)
    d, heads = 8, 2
    mask = A.build_mask(sched, regime)
    x = rng.standard_normal((2, sched.total, d))
    seed = rng.standard_normal((2, sched.total, d))
    base = random_attn_params(rng, d, dtype=np.float64)
    params = A.AttentionParams(*(Tensor(w, requires_grad=True) for w in weights(base)))
    xt = Tensor(x, requires_grad=True)
    A.masked_mha(xt, params, heads, mask).backward(seed)
    grads = [xt.grad] + [w.grad for w in (params.wq, params.wk, params.wv, params.wo)]
    _, backward = dense.mha(x, weights(base), heads, oracle_mask(grids, regime))
    for got, want in zip(grads, backward(seed)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("regime", list(A.AttentionRegime))
def test_masked_mha_multiplies_no_two_column_major_operands(regime, monkeypatch):
    # numpy 2.4.6 on its OpenBLAS 0.3.31 returned wrong values for products
    # whose operands are both column-major (transposed) views while a
    # product of another shape ran on a second thread, as training shards
    # do; attention's forward and backward must not issue such products.
    def column_major(a):
        return a.ndim >= 2 and a.strides[-1] != a.itemsize and a.strides[-2] == a.itemsize

    both = []
    real = np.matmul

    def checked(a, b, *args, **kwargs):
        if column_major(np.asarray(a)) and column_major(np.asarray(b)):
            both.append((np.shape(a), np.shape(b)))
        return real(a, b, *args, **kwargs)

    rng = make_rng(14)
    sched = build_schedule(4, [1, 2, 4])
    params = random_attn_params(rng, 16)
    x = Tensor(rng.standard_normal((2, sched.total, 16)).astype(np.float32), requires_grad=True)
    monkeypatch.setattr(np, "matmul", checked)
    out = A.masked_mha(x, params, 4, A.build_mask(sched, regime))
    out.backward(np.ones(out.shape, dtype=np.float32))
    assert not both


def test_masked_mha_merges_heads_without_a_copy(monkeypatch):
    # The output projection's (b * t, d) rows, which linear keeps for its
    # kernel gradient, are a view of the attention output, not a copy.
    seen = {}
    real_span, real_linear = A.span_attention, A.linear

    def span(*args):
        seen["attention"] = real_span(*args)
        return seen["attention"]

    def linear(a, b, *args):
        if b is params.wo:
            seen["wo_input"] = a
        return real_linear(a, b, *args)

    rng = make_rng(15)
    sched = build_schedule(4, [1, 2, 4])
    params = random_attn_params(rng, 16)
    x = Tensor(rng.standard_normal((2, sched.total, 16)).astype(np.float32), requires_grad=True)
    monkeypatch.setattr(A, "span_attention", span)
    monkeypatch.setattr(A, "linear", linear)
    A.masked_mha(x, params, 4, A.build_mask(sched, A.AttentionRegime.SCALE_CAUSAL))
    rows = seen["wo_input"].data.reshape(-1, 16)  # as linear forms them
    assert np.shares_memory(rows, seen["attention"].data)


@pytest.mark.parametrize("regime", [A.AttentionRegime.SCALE_CAUSAL, A.AttentionRegime.FULL])
def test_scale_causal_gradient_never_reaches_finer_tokens(regime):
    # The input gradient of every scale's outputs (and coarser ones) is
    # exactly zero at each finer token under scale-causal attention, through
    # a whole block; under full attention it is not.
    rng = make_rng(9)
    sched = build_schedule(8, [1, 2, 4, 8])
    d = 16
    params = random_block_params(rng, d)
    mask = A.build_mask(sched, regime)
    x = rng.standard_normal((2, sched.total, d)).astype(np.float32)
    for start, count in list(zip(sched.offsets(), sched.counts))[:-1]:
        end = start + count
        xt = Tensor(x, requires_grad=True)
        out = A.transformer_block(xt, params, heads=4, mask=mask)
        tsum(square(slice_axis(out, 1, 0, end))).backward()
        assert np.abs(xt.grad[:, :end]).max() > 0
        if regime is A.AttentionRegime.SCALE_CAUSAL:
            assert (xt.grad[:, end:] == 0.0).all()
        else:
            assert np.abs(xt.grad[:, end:]).max() > 0


def test_mask_of_another_schedule_is_a_shape_error():
    # A (1, 2) schedule's mask covers 5 tokens; a (1, 2, 4) sequence has 21,
    # and the reverse reads keys past a 5-token sequence's end.
    rng = make_rng(11)
    d = 8
    block = random_block_params(rng, d)
    for mask_grids, seq_grids in (((1, 2), (1, 2, 4)), ((1, 2, 4), (1, 2))):
        mask = A.build_mask(build_schedule(mask_grids[-1], mask_grids), A.AttentionRegime.SCALE_CAUSAL)
        x = Tensor(rng.standard_normal((1, build_schedule(seq_grids[-1], seq_grids).total, d)).astype(np.float32))
        with pytest.raises(ShapeError):
            A.masked_mha(x, block.attn, 2, mask)
        with pytest.raises(ShapeError):
            A.transformer_block(x, block, 2, mask)


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
    a = A.transformer_block(x, params, heads=2, mask=None, drop_rate=0.5)
    b = A.transformer_block(x, params, heads=2, mask=None, drop_rate=0.5)
    np.testing.assert_array_equal(a.data, b.data)
    # A generator switches drop_path on: equal generators drop the same rows.
    c, d = (A.transformer_block(x, params, heads=2, mask=None, drop_rate=0.5, rng=make_rng(3)) for _ in range(2))
    np.testing.assert_array_equal(c.data, d.data)
    assert not np.array_equal(c.data, a.data)


@pytest.mark.parametrize("grids, b, d", [((1, 2, 4), 3, 16), ((1, 2, 4, 8), 8, 32)])
@pytest.mark.parametrize("regime", [None, A.AttentionRegime.SCALE_CAUSAL])
@pytest.mark.parametrize("drop_rate, seed", [(0.0, None), (0.5, 3)])
def test_block_is_its_composition_of_separate_nodes_bitwise(grids, b, d, regime, drop_rate, seed):
    # One node per residual branch gives the forward and every gradient of
    # the chain of matmul, gelu, drop_path's mul and add nodes, bit for bit:
    # at 8 x 85 tokens of width 32 the GELU runs over two blocks and the
    # kernel gradients reduce over a 32-row multiple and a tail.
    rng = make_rng(16)
    sched = build_schedule(grids[-1], grids)
    params = random_block_params(rng, d)
    for ln in (params.ln1, params.ln2):
        ln.gain.data[:] = 1.0 + 0.2 * rng.standard_normal(d)
        ln.bias.data[:] = 0.2 * rng.standard_normal(d)
    mask = None if regime is None else A.build_mask(sched, regime)
    x = rng.standard_normal((b, sched.total, d)).astype(np.float32)
    seed_grad = rng.standard_normal(x.shape).astype(np.float32)

    results = []
    for block in (A.transformer_block, composed.transformer_block):
        p = replica(params)
        xt = Tensor(x, requires_grad=True)
        out = block(xt, p, 4, mask, drop_rate=drop_rate, rng=None if seed is None else make_rng(seed))
        out.backward(seed_grad)
        results.append([("out", out.data), ("x", xt.grad)] + [(name, t.grad) for name, t in named_tensors(p).items()])
    for (name, got), (_, want) in zip(*results):
        assert got.dtype == want.dtype == np.float32, name
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32), err_msg=name)
    if seed is not None:
        # Both branches dropped rows; the row scale zeroes a branch's output.
        drawn = make_rng(seed).random((2, b, sched.total)) < 0.5
        assert drawn.any(axis=(1, 2)).all() and (~drawn).any(axis=(1, 2)).all()


def test_block_grad_check():
    rng = make_rng(9)
    d = 4
    params = random_block_params(rng, d, dtype=np.float64)
    sched = build_schedule(2, [1, 2])
    mask = A.build_mask(sched, A.AttentionRegime.SCALE_CAUSAL)
    x = Tensor(rng.standard_normal((1, sched.total, d)))
    coeff = Tensor(rng.standard_normal((sched.total, d)))

    def f(t):
        return tsum(square(mul(A.transformer_block(t, params, heads=2, mask=mask), coeff)))

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
