"""Unit tests for the from-scratch FastText-style model."""

import numpy as np
import pytest

from repro.embedding import FastTextModel, generate_corpus
from repro.errors import ModelNotFittedError, VocabularyError
from repro.vector import cosine_scalar


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(
        n_sentences=500,
        sentence_length=(4, 7),
        topics={
            "db": ["dbms", "rdbms", "sql", "postgres", "sqlite", "mysql"],
            "music": ["guitar", "piano", "violin", "drums", "melody", "chord"],
        },
        seed=21,
    )


@pytest.fixture(scope="module")
def model(corpus):
    m = FastTextModel(dim=32, window=3, negatives=3, seed=21)
    m.fit(corpus.sentences, epochs=2)
    return m


class TestValidation:
    def test_param_checks(self):
        with pytest.raises(ValueError):
            FastTextModel(dim=16, n_buckets=0)
        with pytest.raises(ValueError):
            FastTextModel(dim=16, n_min=0)
        with pytest.raises(ValueError):
            FastTextModel(dim=16, window=0)
        with pytest.raises(ValueError):
            FastTextModel(dim=16, negatives=-1)

    def test_unfitted_embed_raises(self):
        with pytest.raises(ModelNotFittedError):
            FastTextModel(dim=16).embed("word")

    def test_unfitted_neighbors_raises(self):
        with pytest.raises(ModelNotFittedError):
            FastTextModel(dim=16).nearest_neighbors("word")

    def test_min_count_filters_vocab(self):
        m = FastTextModel(dim=8, seed=1)
        with pytest.raises(VocabularyError):
            m.fit([["once"]], min_count=2)


class TestTraining:
    def test_fit_returns_self(self, corpus):
        m = FastTextModel(dim=16, seed=2)
        assert m.fit(corpus.sentences[:50], epochs=1) is m
        assert m.is_fitted

    def test_vocabulary_built(self, model, corpus):
        vocab = set(model.vocabulary)
        assert "dbms" in vocab
        assert "guitar" in vocab

    def test_deterministic_given_seed(self, corpus):
        a = FastTextModel(dim=16, seed=33).fit(corpus.sentences[:100], epochs=1)
        b = FastTextModel(dim=16, seed=33).fit(corpus.sentences[:100], epochs=1)
        assert np.allclose(a.embed("dbms"), b.embed("dbms"))


class TestSemantics:
    def test_same_topic_closer_than_cross_topic(self, model):
        db1 = model.embed("dbms")
        db2 = model.embed("postgres")
        music = model.embed("guitar")
        assert cosine_scalar(db1, db2) > cosine_scalar(db1, music)

    def test_nearest_neighbors_topical(self, model, corpus):
        neighbors = [w for w, _ in model.nearest_neighbors("dbms", k=5)]
        related = corpus.related_words("dbms")
        hits = sum(1 for w in neighbors if w in related)
        assert hits >= 3

    def test_neighbors_exclude_self(self, model):
        assert "dbms" not in [w for w, _ in model.nearest_neighbors("dbms", k=10)]

    def test_neighbors_scores_descending(self, model):
        scores = [s for _, s in model.nearest_neighbors("guitar", k=8)]
        assert scores == sorted(scores, reverse=True)

    def test_oov_embedding_works(self, model):
        """Out-of-vocabulary words embed via subwords (paper Section VI-A)."""
        vec = model.embed("postgresssss")
        assert vec.shape == (32,)

    def test_oov_misspelling_near_original(self, model):
        original = model.embed("postgres")
        misspelled = model.embed("postgers")  # transposition, OOV
        other = model.embed("violin")
        assert cosine_scalar(original, misspelled) > cosine_scalar(
            original, other
        )

    def test_embedding_normalized(self, model):
        vec = model.embed("sql")
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-4)
