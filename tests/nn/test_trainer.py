"""Tests for the supervised Trainer."""

import sys
import threading

import numpy as np
import pytest

from repro.nn.layers import Embedding, Linear
from repro.nn.module import Module
from repro.nn.optim import Adam
from repro.nn.trainer import Trainer, TrainerConfig, TrainingHistory
from repro.nn.tensor import Tensor
from repro.nn.transformer import TransformerConfig, TransformerForSequenceClassification


class _BagClassifier(Module):
    """Mean-pooled embedding classifier: simple but trainable."""

    def __init__(self, vocab_size=30, dim=16, num_classes=3, seed=0):
        super().__init__()
        self.embedding = Embedding(vocab_size, dim, seed=seed, pad_id=0)
        self.head = Linear(dim, num_classes, seed=seed + 1)

    def forward(self, ids, mask=None):
        embedded = self.embedding(ids)
        if mask is not None:
            m = Tensor(mask[:, :, None])
            summed = (embedded * m).sum(axis=1)
            denom = Tensor(np.maximum(mask.sum(axis=1, keepdims=True), 1.0))
            pooled = summed / denom
        else:
            pooled = embedded.mean(axis=1)
        return self.head(pooled)


def _toy_classification_data(n=120, length=6, vocab=30, n_classes=3, seed=0):
    """Class c's sequences are dominated by tokens from its own token band."""
    rng = np.random.default_rng(seed)
    ids = np.zeros((n, length), dtype=np.int64)
    labels = rng.integers(0, n_classes, size=n)
    for i, label in enumerate(labels):
        low = 4 + label * 8
        ids[i] = rng.integers(low, low + 8, size=length)
    mask = np.ones((n, length))
    return ids, mask, labels


class TestTrainerFit:
    def test_learns_separable_problem(self):
        ids, mask, labels = _toy_classification_data()
        model = _BagClassifier()
        trainer = Trainer(
            model, Adam(model.parameters(), lr=5e-2), config=TrainerConfig(epochs=6, batch_size=16)
        )
        history = trainer.fit(ids[:90], mask[:90], labels[:90], ids[90:], mask[90:], labels[90:])
        assert history.epochs == 6
        assert history.train_accuracy[-1] > 0.9
        assert history.val_accuracy[-1] > 0.8
        assert history.train_loss[-1] < history.train_loss[0]

    def test_history_records_all_series(self):
        ids, mask, labels = _toy_classification_data(n=40)
        model = _BagClassifier()
        trainer = Trainer(
            model, Adam(model.parameters(), lr=1e-2), config=TrainerConfig(epochs=2, batch_size=8)
        )
        history = trainer.fit(ids[:30], mask[:30], labels[:30], ids[30:], mask[30:], labels[30:])
        assert len(history.train_loss) == len(history.val_loss) == 2
        assert len(history.train_accuracy) == len(history.val_accuracy) == 2
        as_dict = history.as_dict()
        assert set(as_dict) == {"train_loss", "train_accuracy", "val_loss", "val_accuracy"}

    def test_without_validation_data(self):
        ids, mask, labels = _toy_classification_data(n=30)
        model = _BagClassifier()
        trainer = Trainer(
            model, Adam(model.parameters(), lr=1e-2), config=TrainerConfig(epochs=2, batch_size=8)
        )
        history = trainer.fit(ids, mask, labels)
        assert history.val_loss == []

    def test_early_stopping_restores_best_weights(self):
        ids, mask, labels = _toy_classification_data(n=60)
        model = _BagClassifier()
        trainer = Trainer(
            model,
            Adam(model.parameters(), lr=5e-2),
            config=TrainerConfig(epochs=12, batch_size=16, early_stopping_patience=1),
        )
        history = trainer.fit(ids[:45], mask[:45], labels[:45], ids[45:], mask[45:], labels[45:])
        # Early stopping may cut training short; history length reflects that.
        assert history.epochs <= 12
        best_epoch = history.best_epoch
        val_loss, _ = trainer.evaluate(ids[45:], mask[45:], labels[45:])
        assert val_loss == pytest.approx(history.val_loss[best_epoch], abs=0.15)


class TestTrainerEvaluate:
    def test_predict_logits_shape_and_determinism(self):
        ids, mask, labels = _toy_classification_data(n=20)
        model = _BagClassifier()
        trainer = Trainer(model, Adam(model.parameters(), lr=1e-2))
        logits_a = trainer.predict_logits(ids, mask)
        logits_b = trainer.predict_logits(ids, mask)
        assert logits_a.shape == (20, 3)
        assert np.allclose(logits_a, logits_b)

    def test_evaluate_returns_finite_loss_and_accuracy(self):
        ids, mask, labels = _toy_classification_data(n=20)
        model = _BagClassifier()
        trainer = Trainer(model, Adam(model.parameters(), lr=1e-2))
        loss, accuracy = trainer.evaluate(ids, mask, labels)
        assert np.isfinite(loss)
        assert 0.0 <= accuracy <= 1.0


class _BatchRecorder(Module):
    """Wraps a model and records every batch it is called with."""

    def __init__(self, model):
        super().__init__()
        self.model = model
        self.calls = []

    def forward(self, ids, mask=None):
        self.calls.append((ids.copy(), None if mask is None else mask.copy()))
        return self.model(ids, mask=mask)


def _mixed_length_batch(n=11, length=10, vocab=30, seed=4):
    rng = np.random.default_rng(seed)
    lengths = rng.permutation(np.arange(n) % (length - 1) + 1)
    mask = (np.arange(length)[None, :] < lengths[:, None]).astype(float)
    ids = np.where(mask > 0, rng.integers(4, vocab, size=(n, length)), 0)
    return ids, mask


class TestPredictLogitsOrder:
    @pytest.fixture()
    def trainer(self):
        config = TransformerConfig(
            vocab_size=30, max_length=10, dim=16, num_heads=2, num_layers=2, ffn_dim=32
        )
        model = _BatchRecorder(TransformerForSequenceClassification(config, num_classes=3))
        return Trainer(model, Adam(model.parameters(), lr=1e-2))

    def test_rows_come_back_in_input_order(self, trainer):
        ids, mask = _mixed_length_batch()
        logits = trainer.predict_logits(ids, mask, batch_size=4)
        for row in range(len(ids)):
            alone = trainer.predict_logits(ids[row : row + 1], mask[row : row + 1])
            np.testing.assert_allclose(logits[row], alone[0], rtol=0.0, atol=1e-12)

    def test_chunks_are_length_sorted_and_cut_to_longest_row(self, trainer):
        ids, mask = _mixed_length_batch()
        trainer.predict_logits(ids, mask, batch_size=4)
        assert [len(batch_ids) for batch_ids, _ in trainer.model.calls] == [4, 4, 3]
        lengths = [batch_mask.sum(axis=1) for _, batch_mask in trainer.model.calls]
        flat = np.concatenate(lengths)
        assert np.array_equal(flat, np.sort(mask.sum(axis=1), kind="stable"))
        for (batch_ids, batch_mask), chunk in zip(trainer.model.calls, lengths):
            assert batch_ids.shape == batch_mask.shape == (len(chunk), chunk.max())

    def test_without_mask_rows_run_in_order_at_full_width(self, trainer):
        ids, _ = _mixed_length_batch()
        trainer.predict_logits(ids, None, batch_size=4)
        seen = [batch_ids for batch_ids, _ in trainer.model.calls]
        assert all(batch_mask is None for _, batch_mask in trainer.model.calls)
        assert all(batch_ids.shape[1] == ids.shape[1] for batch_ids in seen)
        assert np.array_equal(np.concatenate(seen), ids)


def _fitted_transformer_trainer():
    ids, mask, labels = _toy_classification_data(n=48, length=10)
    config = TransformerConfig(
        vocab_size=30, max_length=10, dim=16, num_heads=2, num_layers=1, ffn_dim=32,
        dropout=0.3,
    )
    model = TransformerForSequenceClassification(config, num_classes=3)
    trainer = Trainer(
        model, Adam(model.parameters(), lr=1e-2), config=TrainerConfig(epochs=1, batch_size=16)
    )
    trainer.fit(ids, mask, labels)
    return trainer, ids, mask


class TestConcurrentPrediction:
    def test_predict_logits_leaves_every_module_in_eval_mode(self):
        trainer, ids, mask = _fitted_transformer_trainer()
        trainer.predict_logits(ids, mask)
        assert not any(module.training for module in trainer.model.modules())

    def test_fit_after_predict_trains_with_dropout(self):
        trainer, ids, mask = _fitted_transformer_trainer()
        trainer.predict_logits(ids, mask)
        trainer.fit(ids, mask, np.zeros(len(ids), dtype=np.int64))
        assert all(module.training for module in trainer.model.modules())

    def test_concurrent_predictions_byte_equal_to_sequential(self):
        trainer, ids, mask = _fitted_transformer_trainer()
        expected = trainer.predict_logits(ids, mask).tobytes()
        n_threads, rounds = 3, 25
        results: list[list[bytes]] = [[] for _ in range(n_threads)]
        start = threading.Barrier(n_threads)

        def worker(slot: int) -> None:
            start.wait()
            for _ in range(rounds):
                results[slot].append(trainer.predict_logits(ids, mask).tobytes())

        # A short switch interval interleaves the forward passes often.
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        for outputs in results:
            assert len(outputs) == rounds
            assert all(output == expected for output in outputs)


class TestTrainingHistory:
    def test_best_epoch_argmin_of_val_loss(self):
        history = TrainingHistory(val_loss=[0.9, 0.4, 0.6], train_loss=[1, 1, 1])
        assert history.best_epoch == 1

    def test_best_epoch_without_validation(self):
        history = TrainingHistory(train_loss=[1.0, 0.5])
        assert history.best_epoch == 1
