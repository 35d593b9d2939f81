"""Tests for losses, optimizers, schedules and the batch iterator."""

import numpy as np
import pytest

from repro.nn.dataloader import BatchIterator, trim_padding
from repro.nn.losses import (
    accuracy_from_logits,
    cross_entropy_logits,
    masked_cross_entropy_logits,
)
from repro.nn.module import Parameter
from repro.nn.optim import SGD, Adam, AdamW
from repro.nn.schedules import LinearWarmupDecay
from repro.nn.tensor import Tensor


class TestCrossEntropy:
    def test_uniform_logits_give_log_n(self):
        logits = Tensor(np.zeros((4, 5)))
        loss = cross_entropy_logits(logits, np.array([0, 1, 2, 3]))
        assert loss.item() == pytest.approx(np.log(5))

    def test_confident_correct_prediction_near_zero(self):
        logits = Tensor(np.array([[20.0, 0.0], [0.0, 20.0]]))
        loss = cross_entropy_logits(logits, np.array([0, 1]))
        assert loss.item() < 1e-6

    def test_gradient_matches_softmax_minus_onehot(self):
        logits = Parameter(np.array([[1.0, 2.0, 0.5]]))
        targets = np.array([1])
        cross_entropy_logits(logits, targets).backward()
        probabilities = np.exp(logits.data) / np.exp(logits.data).sum()
        expected = probabilities.copy()
        expected[0, 1] -= 1.0
        assert np.allclose(logits.grad, expected, atol=1e-8)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            cross_entropy_logits(Tensor(np.zeros((2, 3, 4))), np.array([0, 1]))
        with pytest.raises(ValueError):
            cross_entropy_logits(Tensor(np.zeros((2, 3))), np.array([0]))

    def test_accuracy_from_logits(self):
        logits = np.array([[2.0, 1.0], [0.0, 3.0], [5.0, 1.0], [0.0, 2.0]])
        assert accuracy_from_logits(logits, np.array([0, 1, 1, 1])) == pytest.approx(0.75)


class TestMaskedCrossEntropy:
    def test_only_masked_positions_contribute(self):
        logits = Parameter(np.zeros((1, 3, 4)))
        targets = np.array([[1, 2, 3]])
        mask = np.array([[1.0, 0.0, 0.0]])
        loss = masked_cross_entropy_logits(logits, targets, mask)
        assert loss.item() == pytest.approx(np.log(4))
        loss.backward()
        # Positions 1 and 2 are unmasked: no gradient there.
        assert np.allclose(logits.grad[0, 1], 0.0)
        assert np.allclose(logits.grad[0, 2], 0.0)
        assert not np.allclose(logits.grad[0, 0], 0.0)

    def test_empty_mask_returns_zero(self):
        logits = Tensor(np.zeros((1, 2, 3)))
        loss = masked_cross_entropy_logits(logits, np.zeros((1, 2), dtype=int), np.zeros((1, 2)))
        assert loss.item() == 0.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            masked_cross_entropy_logits(Tensor(np.zeros((2, 3))), np.zeros((2, 3)), np.ones((2, 3)))


def _quadratic_parameters():
    """A simple convex problem: minimise ||p - target||^2."""
    target = np.array([3.0, -2.0, 0.5])
    parameter = Parameter(np.zeros(3))
    return parameter, target


def _loss(parameter, target):
    diff = parameter - Tensor(target)
    return (diff * diff).sum()


class TestOptimizers:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda params: SGD(params, lr=0.1),
            lambda params: SGD(params, lr=0.05, momentum=0.9),
            lambda params: Adam(params, lr=0.2),
            lambda params: AdamW(params, lr=0.2, weight_decay=0.001),
        ],
    )
    def test_converges_on_quadratic(self, factory):
        parameter, target = _quadratic_parameters()
        optimizer = factory([parameter])
        for _ in range(200):
            optimizer.zero_grad()
            _loss(parameter, target).backward()
            optimizer.step()
        assert np.allclose(parameter.data, target, atol=0.05)

    def test_sgd_weight_decay_shrinks_solution(self):
        parameter, target = _quadratic_parameters()
        optimizer = SGD([parameter], lr=0.1, weight_decay=1.0)
        for _ in range(300):
            optimizer.zero_grad()
            _loss(parameter, target).backward()
            optimizer.step()
        assert np.all(np.abs(parameter.data) < np.abs(target))

    def test_skips_parameters_without_grad(self):
        used = Parameter(np.zeros(2))
        unused = Parameter(np.ones(2))
        optimizer = Adam([used, unused], lr=0.1)
        (used * 2.0).sum().backward()
        optimizer.step()
        assert np.allclose(unused.data, 1.0)

    def test_invalid_lr_and_empty_params(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=0.0)
        with pytest.raises(ValueError):
            Adam([], lr=0.1)
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=0.1, momentum=1.5)


class TestSchedules:
    def test_linear_warmup_then_decay(self):
        optimizer = SGD([Parameter(np.zeros(1))], lr=1.0)
        schedule = LinearWarmupDecay(optimizer, peak_lr=1.0, warmup_steps=5, total_steps=20)
        lrs = [schedule.step() for _ in range(20)]
        assert lrs[0] == pytest.approx(0.2)
        assert max(lrs) == pytest.approx(1.0)
        assert lrs[-1] < lrs[5]
        assert optimizer.lr == lrs[-1]

    def test_invalid_schedule_configs(self):
        optimizer = SGD([Parameter(np.zeros(1))], lr=1.0)
        with pytest.raises(ValueError):
            LinearWarmupDecay(optimizer, peak_lr=1.0, warmup_steps=30, total_steps=20)
        with pytest.raises(ValueError):
            LinearWarmupDecay(optimizer, peak_lr=1.0, warmup_steps=1, total_steps=0)


class TestBatchIterator:
    def test_covers_all_rows(self):
        ids = np.arange(20).reshape(10, 2)
        mask = np.ones((10, 2))
        labels = np.arange(10)
        iterator = BatchIterator(ids, mask, labels, batch_size=3, shuffle=True, seed=0)
        seen = []
        for batch_ids, batch_mask, batch_labels in iterator:
            assert batch_ids.shape == batch_mask.shape
            seen.extend(batch_labels.tolist())
        assert sorted(seen) == list(range(10))
        assert len(iterator) == 4

    def test_drop_last(self):
        iterator = BatchIterator(
            np.zeros((10, 2)), np.ones((10, 2)), np.arange(10), batch_size=3, drop_last=True
        )
        assert len(iterator) == 3
        assert sum(len(labels) for _, _, labels in iterator) == 9

    def test_without_labels(self):
        iterator = BatchIterator(np.zeros((4, 2)), np.ones((4, 2)), batch_size=2)
        for _, _, labels in iterator:
            assert labels is None

    def test_batches_cut_to_longest_real_row(self):
        lengths = np.array([1, 5, 2, 3, 1, 2])
        mask = (np.arange(8)[None, :] < lengths[:, None]).astype(float)
        ids = np.where(mask > 0, 7, 0)
        iterator = BatchIterator(ids, mask, np.arange(6), batch_size=2, shuffle=False)
        for batch_ids, batch_mask, batch_labels in iterator:
            width = lengths[batch_labels].max()
            assert batch_ids.shape == batch_mask.shape == (2, width)
            assert batch_mask.sum() == lengths[batch_labels].sum()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BatchIterator(np.zeros((4, 2)), np.ones((3, 2)))
        with pytest.raises(ValueError):
            BatchIterator(np.zeros((4, 2)), np.ones((4, 2)), np.arange(3))
        with pytest.raises(ValueError):
            BatchIterator(np.zeros((4, 2)), np.ones((4, 2)), batch_size=0)


class TestTrimPadding:
    def test_cuts_every_array_to_the_last_real_column(self):
        mask = np.array([[1.0, 1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 0.0, 0.0]])
        ids = np.arange(10).reshape(2, 5)
        targets = ids + 100
        cut_mask, cut_ids, cut_targets = trim_padding(mask, ids, targets)
        assert np.array_equal(cut_mask, mask[:, :3])
        assert np.array_equal(cut_ids, ids[:, :3])
        assert np.array_equal(cut_targets, targets[:, :3])

    def test_full_width_batch_is_unchanged(self):
        mask = np.ones((3, 4))
        (cut_mask,) = trim_padding(mask)
        assert cut_mask.shape == (3, 4)

    def test_all_padding_keeps_one_column(self):
        mask = np.zeros((2, 6))
        cut_mask, cut_ids = trim_padding(mask, np.zeros((2, 6), dtype=np.int64))
        assert cut_mask.shape == cut_ids.shape == (2, 1)
