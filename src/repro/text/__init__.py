"""Text preprocessing substrate.

Implements the preprocessing described in Section IV of the paper: digit and
symbol removal, tokenization, lemmatization, vocabulary construction and
sequence encoding/padding for the neural models.
"""

from repro.text.cleaning import clean_item, remove_digits_and_symbols
from repro.text.lemmatizer import Lemmatizer, lemmatize
from repro.text.pipeline import PipelineConfig, PreprocessingPipeline
from repro.text.sequences import SequenceEncoder, pad_sequences
from repro.text.stages import (
    CleanStage,
    JoinStage,
    LemmatizeStage,
    LowercaseStage,
    Stage,
    StageChain,
    TokenizeStage,
)
from repro.text.tokenizer import tokenize
from repro.text.vocabulary import Vocabulary

__all__ = [
    "CleanStage",
    "JoinStage",
    "LemmatizeStage",
    "LowercaseStage",
    "PipelineConfig",
    "Stage",
    "StageChain",
    "TokenizeStage",
    "clean_item",
    "remove_digits_and_symbols",
    "Lemmatizer",
    "lemmatize",
    "PreprocessingPipeline",
    "SequenceEncoder",
    "pad_sequences",
    "tokenize",
    "Vocabulary",
]
