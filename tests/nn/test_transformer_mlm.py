"""Tests for the Transformer encoder, MLM pretraining and the state-dict round trip."""

from dataclasses import replace

import numpy as np
import pytest

from repro.nn import mlm
from repro.nn.losses import cross_entropy_logits, masked_cross_entropy_logits
from repro.nn.mlm import MLMConfig, apply_mlm_masking, pretrain_mlm
from repro.nn.transformer import (
    TransformerConfig,
    TransformerEncoder,
    TransformerForMaskedLM,
    TransformerForSequenceClassification,
)
from repro.text.vocabulary import Vocabulary


@pytest.fixture(scope="module")
def vocabulary():
    docs = [[f"tok{i}" for i in range(20)]]
    return Vocabulary.build(docs)


@pytest.fixture()
def config(vocabulary):
    return TransformerConfig(
        vocab_size=len(vocabulary), max_length=12, dim=16, num_heads=4, num_layers=2, ffn_dim=32
    )


class TestTransformerConfig:
    def test_valid_config(self, config):
        assert config.dim % config.num_heads == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"vocab_size": 3},
            {"vocab_size": 30, "dim": 10, "num_heads": 3},
            {"vocab_size": 30, "num_layers": 0},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            TransformerConfig(**kwargs)


class TestTransformerEncoder:
    def test_output_shape(self, config):
        encoder = TransformerEncoder(config)
        ids = np.random.default_rng(0).integers(0, config.vocab_size, size=(3, 10))
        hidden = encoder(ids, mask=np.ones((3, 10)))
        assert hidden.shape == (3, 10, config.dim)

    def test_sequence_length_cap_enforced(self, config):
        encoder = TransformerEncoder(config)
        ids = np.zeros((1, config.max_length + 1), dtype=int)
        with pytest.raises(ValueError):
            encoder(ids)

    def test_order_sensitivity(self, config):
        """The encoder must distinguish permutations of the same tokens."""
        encoder = TransformerEncoder(config)
        encoder.eval()
        ids = np.array([[5, 6, 7, 8]])
        reversed_ids = ids[:, ::-1].copy()
        out_a = encoder(ids).data
        out_b = encoder(reversed_ids).data
        assert not np.allclose(out_a, out_b)

    def test_classification_head_shape(self, config):
        model = TransformerForSequenceClassification(config, num_classes=5)
        ids = np.random.default_rng(1).integers(0, config.vocab_size, size=(4, 8))
        logits = model(ids, mask=np.ones((4, 8)))
        assert logits.shape == (4, 5)

    def test_cls_only_matches_full_pass_in_values_and_gradients(self, config):
        """The [CLS]-only last block leaves position 0 and every gradient as is."""
        model = TransformerForSequenceClassification(replace(config, dropout=0.0), num_classes=3)
        rng = np.random.default_rng(6)
        ids = rng.integers(4, config.vocab_size, size=(4, 9))
        mask = (np.arange(9)[None, :] < np.array([[9], [3], [6], [1]])).astype(float)
        labels = np.array([0, 2, 1, 2])

        def loss_and_grads(hidden_for):
            model.zero_grad()
            hidden = hidden_for(ids, mask)
            logits = model.classifier(model.pooler(hidden[:, 0, :]).tanh())
            cross_entropy_logits(logits, labels).backward()
            grads = {name: p.grad.copy() for name, p in model.named_parameters()}
            return hidden.data[:, 0, :], grads

        cls_hidden, cls_grads = loss_and_grads(
            lambda i, m: model.encoder(i, mask=m, cls_only=True)
        )
        full_hidden, full_grads = loss_and_grads(lambda i, m: model.encoder(i, mask=m))
        np.testing.assert_allclose(cls_hidden, full_hidden, rtol=0.0, atol=1e-13)
        assert cls_grads.keys() == full_grads.keys()
        for name in full_grads:
            np.testing.assert_allclose(cls_grads[name], full_grads[name], rtol=0.0, atol=1e-12)

    def test_classification_rejects_single_class(self, config):
        with pytest.raises(ValueError):
            TransformerForSequenceClassification(config, num_classes=1)

    def test_mlm_head_shape(self, config):
        model = TransformerForMaskedLM(config)
        ids = np.random.default_rng(2).integers(0, config.vocab_size, size=(2, 6))
        logits = model(ids, mask=np.ones((2, 6)))
        assert logits.shape == (2, 6, config.vocab_size)


class TestMLMMasking:
    def test_mask_probability_validation(self):
        with pytest.raises(ValueError):
            MLMConfig(mask_probability=0.0)
        with pytest.raises(ValueError):
            MLMConfig(mask_token_rate=0.9, random_token_rate=0.2)

    def test_masking_only_touches_real_non_special_tokens(self, vocabulary):
        rng = np.random.default_rng(0)
        ids = np.full((4, 10), vocabulary.pad_id)
        ids[:, 0] = vocabulary.cls_id
        ids[:, 1:6] = rng.integers(4, len(vocabulary), size=(4, 5))
        mask = (ids != vocabulary.pad_id).astype(float)
        masked, targets, loss_mask = apply_mlm_masking(
            ids, mask, vocabulary, MLMConfig(mask_probability=0.5), rng
        )
        # Padding and CLS never selected.
        assert loss_mask[:, 0].sum() == 0
        assert loss_mask[:, 6:].sum() == 0
        # Targets preserve the original ids everywhere.
        assert np.array_equal(targets, ids)
        # Unselected positions are unchanged.
        unchanged = loss_mask == 0
        assert np.array_equal(masked[unchanged], ids[unchanged])

    def test_every_sequence_gets_at_least_one_masked_position(self, vocabulary):
        rng = np.random.default_rng(1)
        ids = np.full((6, 8), vocabulary.pad_id)
        ids[:, 0] = rng.integers(4, len(vocabulary), size=6)
        mask = (ids != vocabulary.pad_id).astype(float)
        _, _, loss_mask = apply_mlm_masking(
            ids, mask, vocabulary, MLMConfig(mask_probability=0.01), rng
        )
        assert (loss_mask.sum(axis=1) >= 1).all()

    def test_mask_token_used_for_most_selected_positions(self, vocabulary):
        rng = np.random.default_rng(2)
        ids = rng.integers(4, len(vocabulary), size=(20, 12))
        mask = np.ones_like(ids, dtype=float)
        masked, _, loss_mask = apply_mlm_masking(
            ids, mask, vocabulary, MLMConfig(mask_probability=0.3), rng
        )
        selected = loss_mask.astype(bool)
        fraction_mask_token = np.mean(masked[selected] == vocabulary.mask_id)
        assert 0.6 < fraction_mask_token < 0.95


class TestMLMPretraining:
    def test_pretraining_reduces_loss(self, vocabulary, config):
        rng = np.random.default_rng(3)
        # Corpus with strong structure: token t is always followed by t+1.
        starts = rng.integers(4, len(vocabulary) - 6, size=60)
        ids = np.stack([np.arange(s, s + 6) for s in starts])
        mask = np.ones_like(ids, dtype=float)
        model = TransformerForMaskedLM(config)
        result = pretrain_mlm(
            model, ids, mask, vocabulary, MLMConfig(epochs=4, batch_size=16, peak_lr=5e-3, seed=0)
        )
        assert len(result.losses_per_epoch) == 4
        assert result.losses_per_epoch[-1] < result.losses_per_epoch[0]
        assert result.total_steps == 4 * int(np.ceil(60 / 16))

    def test_trimmed_minibatches_keep_every_loss_position(self, vocabulary, config, monkeypatch):
        rng = np.random.default_rng(7)
        lengths = rng.integers(2, config.max_length + 1, size=40)
        mask = (np.arange(config.max_length)[None, :] < lengths[:, None]).astype(float)
        starts = rng.integers(4, len(vocabulary) - config.max_length, size=40)
        ids = np.where(mask > 0, starts[:, None] + np.arange(config.max_length), 0)

        drawn, seen, widths = [], [], []

        def recording_masking(*args):
            result = apply_mlm_masking(*args)
            drawn.append(result[2].sum())
            return result

        def recording_loss(logits, targets, loss_mask):
            seen.append(loss_mask.sum())
            widths.append(loss_mask.shape[1])
            return masked_cross_entropy_logits(logits, targets, loss_mask)

        monkeypatch.setattr(mlm, "apply_mlm_masking", recording_masking)
        monkeypatch.setattr(mlm, "masked_cross_entropy_logits", recording_loss)
        model = TransformerForMaskedLM(config)
        result = pretrain_mlm(
            model, ids, mask, vocabulary, MLMConfig(epochs=4, batch_size=8, peak_lr=5e-3, seed=0)
        )
        assert len(drawn) == 4
        per_epoch = np.asarray(seen).reshape(4, -1).sum(axis=1)
        assert np.array_equal(per_epoch, drawn)
        assert min(widths) < config.max_length
        assert result.losses_per_epoch[-1] < result.losses_per_epoch[0]

    def test_zero_epochs_is_a_noop(self, vocabulary, config):
        model = TransformerForMaskedLM(config)
        before = {k: v.copy() for k, v in model.state_dict().items()}
        result = pretrain_mlm(
            model,
            np.full((4, 6), vocabulary.unk_id),
            np.ones((4, 6)),
            vocabulary,
            MLMConfig(epochs=0),
        )
        assert result.losses_per_epoch == []
        after = model.state_dict()
        assert all(np.allclose(before[k], after[k]) for k in before)

    def test_static_and_dynamic_masking_both_run(self, vocabulary, config):
        rng = np.random.default_rng(4)
        ids = rng.integers(4, len(vocabulary), size=(20, 6))
        mask = np.ones_like(ids, dtype=float)
        for dynamic in (True, False):
            model = TransformerForMaskedLM(config)
            result = pretrain_mlm(
                model, ids, mask, vocabulary,
                MLMConfig(epochs=1, batch_size=10, dynamic=dynamic, seed=1),
            )
            assert len(result.losses_per_epoch) == 1
            assert np.isfinite(result.final_loss)


class TestSerialization:
    def test_roundtrip(self, config):
        model = TransformerForSequenceClassification(config, num_classes=4)
        clone = TransformerForSequenceClassification(config, num_classes=4)
        clone.encoder.token_embedding.weight.data += 1.0
        clone.load_state_dict(model.state_dict())
        ids = np.random.default_rng(5).integers(0, config.vocab_size, size=(2, 6))
        model.eval(), clone.eval()
        assert np.allclose(model(ids).data, clone(ids).data)
