"""Masked L2 loss identities and the analytic gradient."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbpose import loss as loss_module
from wbpose.encoder import AnnotatedScene, EncoderParams, Person, TargetTensors, Visibility, encode
from wbpose.loss import loss_gradient, masked_l2, multitask_loss
from wbpose.skeleton import PartGroup

from oracles import oracle_per_channel_masked

_BLOCK = loss_module._BLOCK_CHANNELS


def rand_triple(rng, shape=(3, 4, 4)):
    pred = rng.normal(size=shape)
    gt = rng.normal(size=shape)
    mask = (rng.random(shape) < 0.7).astype(np.float64)
    return pred, gt, mask


def test_single_cell_hand_value():
    pred = np.array([[[0.75]]])
    gt = np.array([[[0.25]]])
    mask = np.ones((1, 1, 1))
    assert masked_l2(pred, gt, mask) == 0.25  # (0.5)^2


def test_perfect_prediction_is_zero():
    rng = np.random.default_rng(0)
    gt = rng.normal(size=(4, 5, 5))
    mask = (rng.random((4, 5, 5)) < 0.5).astype(np.float64)
    assert masked_l2(gt.copy(), gt, mask) == 0.0


def test_loss_zero_iff_equal_on_support():
    rng = np.random.default_rng(1)
    pred, gt, mask = rand_triple(rng)
    pred_on_support = np.where(mask > 0, gt, pred)
    assert masked_l2(pred_on_support, gt, mask) == 0.0
    # Any difference on the support makes it strictly positive.
    pred_on_support[tuple(np.argwhere(mask > 0)[0])] += 0.5
    assert masked_l2(pred_on_support, gt, mask) > 0.0


def test_masked_out_perturbation_bit_exact():
    rng = np.random.default_rng(2)
    pred, gt, mask = rand_triple(rng)
    base = masked_l2(pred, gt, mask)
    perturbed = pred.copy()
    perturbed[mask == 0] += rng.normal(size=int((mask == 0).sum())) * 100.0
    assert masked_l2(perturbed, gt, mask) == base  # same bits, same order


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(3)
    pred, gt, mask = rand_triple(rng)
    grad = loss_gradient(pred, gt, mask)
    h = 1e-4
    fd = np.zeros_like(pred)
    for idx in np.ndindex(pred.shape):
        up, down = pred.copy(), pred.copy()
        up[idx] += h
        down[idx] -= h
        fd[idx] = (masked_l2(up, gt, mask) - masked_l2(down, gt, mask)) / (2 * h)
    rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(grad), 1e-12)
    assert rel <= 1e-5
    assert not grad[mask == 0].any()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_loss_nonnegative_and_symmetric_in_sign(seed):
    rng = np.random.default_rng(seed)
    pred, gt, mask = rand_triple(rng, shape=(2, 3, 3))
    v = masked_l2(pred, gt, mask)
    assert v >= 0.0
    # Mirrored residuals give the same loss (up to re-rounding of 2*gt - pred).
    assert np.isclose(masked_l2(2 * gt - pred, gt, mask), v, rtol=1e-12)


def encoded_target(tiny_topo):
    sc = AnnotatedScene(
        image_size=(64, 64),
        people=[Person({i: (12.0 + 8 * i, 16.0 + 6 * i, Visibility.LABELED) for i in range(5)})],
        coverage=frozenset(PartGroup),
    )
    return encode(sc, tiny_topo, EncoderParams(stride=8))


def test_multitask_totals_and_stage_doubling(tiny_topo):
    t = encoded_target(tiny_topo)
    rng = np.random.default_rng(4)
    paf_pred = rng.normal(size=t.l_star.shape)
    cm_pred = rng.normal(size=t.s_star.shape)

    one = multitask_loss([paf_pred], [cm_pred], t, tiny_topo)
    two = multitask_loss([paf_pred, paf_pred], [cm_pred], t, tiny_topo)
    assert two.f_l_per_stage == [one.f_l_per_stage[0]] * 2
    assert two.total == one.total + one.f_l_per_stage[0]
    assert one.total == sum(one.f_l_per_stage) + sum(one.f_s_per_stage)


def test_per_group_attribution_sums_to_total_without_background(tiny_topo):
    assert not tiny_topo.background_channel
    t = encoded_target(tiny_topo)
    rng = np.random.default_rng(5)
    breakdown = multitask_loss(
        [rng.normal(size=t.l_star.shape)], [rng.normal(size=t.s_star.shape)], t, tiny_topo
    )
    assert abs(sum(breakdown.per_group.values()) - breakdown.total) < 1e-9 * max(1.0, breakdown.total)


def test_per_group_attribution_below_total_with_background(topo):
    sc = AnnotatedScene(image_size=(80, 80), people=[], coverage=frozenset(), no_people=True)
    t = encode(sc, topo, EncoderParams(stride=8))
    rng = np.random.default_rng(6)
    breakdown = multitask_loss(
        [rng.normal(size=t.l_star.shape)], [rng.normal(size=t.s_star.shape)], t, topo
    )
    assert sum(breakdown.per_group.values()) < breakdown.total  # background mass excluded


def test_repeated_calls_bit_identical(tiny_topo):
    t = encoded_target(tiny_topo)
    rng = np.random.default_rng(7)
    paf_pred = rng.normal(size=t.l_star.shape)
    cm_pred = rng.normal(size=t.s_star.shape)
    a = multitask_loss([paf_pred], [cm_pred], t, tiny_topo)
    b = multitask_loss([paf_pred], [cm_pred], t, tiny_topo)
    assert a.total == b.total and a.f_l_per_stage == b.f_l_per_stage


@pytest.mark.parametrize("fn", [loss_gradient, loss_module._per_channel_masked])
def test_mismatched_shapes_raise_rather_than_broadcast(fn):
    rng = np.random.default_rng(8)
    pred, gt, mask = rand_triple(rng)
    with pytest.raises(ValueError, match="shape mismatch"):
        fn(pred[:, :, :1], gt, mask)
    with pytest.raises(ValueError, match="shape mismatch"):
        fn(pred, gt, mask[:1])


@pytest.mark.parametrize("kind", ["PAF", "confidence"])
def test_multitask_rejects_prediction_of_another_shape(tiny_topo, kind):
    t = encoded_target(tiny_topo)
    paf, conf = np.zeros(t.l_star.shape), np.zeros(t.s_star.shape)
    # One channel broadcasts against every channel of the ground truth.
    paf_preds = [paf, paf[:1]] if kind == "PAF" else [paf]
    cm_preds = [conf, conf[:1]] if kind == "confidence" else [conf]
    gt_shape = (t.l_star if kind == "PAF" else t.s_star).shape
    with pytest.raises(ValueError) as err:
        multitask_loss(paf_preds, cm_preds, t, tiny_topo)
    msg = str(err.value)
    assert f"{kind} stage 1" in msg
    assert str((1, *gt_shape[1:])) in msg and str(gt_shape) in msg


def _with_special_cells(rng, a):
    """a with a few cells set to NaN, +inf or -inf."""
    if a.size:
        idx = rng.integers(0, a.size, 3)
        a.flat[idx] = rng.choice([np.nan, np.inf, -np.inf], 3)
    return a


def _random_masked(rng, shape, pred_dtype):
    """(pred, gt, mask): pred of pred_dtype with non-finite cells, float32 gt
    and a non-binary float32 mask with zeros."""
    pred = _with_special_cells(rng, (rng.normal(size=shape) * 4).astype(pred_dtype))
    gt = rng.random(shape, dtype=np.float32)
    mask = np.where(rng.random(shape) < 0.3, 0.0, rng.random(shape) * 2.0).astype(np.float32)
    return pred, gt, mask


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 404]),
    h=st.integers(0, 24),
    w=st.integers(0, 24),
    pred_dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_per_channel_sums_equal_oracle(n, h, w, pred_dtype, seed):
    pred, gt, mask = _random_masked(np.random.default_rng(seed), (n, h, w), pred_dtype)
    with np.errstate(invalid="ignore", over="ignore"):  # 0 * inf, inf - inf
        got = loss_module._per_channel_masked(pred, gt, mask)
        want = oracle_per_channel_masked(pred, gt, mask)
    assert got.shape == (n,) and got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


@settings(max_examples=25, deadline=None)
@given(
    use_default=st.booleans(),
    h=st.integers(1, 12),
    w=st.integers(1, 12),
    n_paf=st.integers(1, 3),
    n_conf=st.integers(1, 3),
    pred_dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_multitask_loss_equals_oracle_path(
    topo, tiny_topo_module, use_default, h, w, n_paf, n_conf, pred_dtype, seed
):
    # The default topology has 136 confidence and 268 PAF channels, both
    # ending in a partial block; the tiny one has fewer than a block.
    tp = topo if use_default else tiny_topo_module
    rng = np.random.default_rng(seed)
    n_s, n_l = tp.confidence_channels, tp.paf_channels
    paf_pred, l_star, w_paf = _random_masked(rng, (n_l, h, w), pred_dtype)
    cm_pred, s_star, w_conf = _random_masked(rng, (n_s, h, w), pred_dtype)
    paf_preds = [paf_pred] + [paf_pred * rng.random() for _ in range(n_paf - 1)]
    cm_preds = [cm_pred] + [cm_pred * rng.random() for _ in range(n_conf - 1)]
    targets = TargetTensors(
        s_star=s_star, l_star=l_star, w_mask=np.concatenate([w_conf, w_paf]),
        stride=8, image_size=(8 * w, 8 * h),
    )
    with np.errstate(invalid="ignore", over="ignore"):  # 0 * inf, inf - inf
        got = multitask_loss(paf_preds, cm_preds, targets, tp)
        with mock.patch.object(loss_module, "_per_channel_masked", oracle_per_channel_masked):
            want = multitask_loss(paf_preds, cm_preds, targets, tp)
    assert _bits(got.total) == _bits(want.total)
    assert _bits(got.f_l_per_stage) == _bits(want.f_l_per_stage)
    assert _bits(got.f_s_per_stage) == _bits(want.f_s_per_stage)
    assert list(got.per_group) == list(want.per_group)
    assert _bits(list(got.per_group.values())) == _bits(list(want.per_group.values()))
