"""Table II: semantic matching with a FastText-style model.

Paper setup: FastText trained on a Wikipedia subset, 100-D; top-15 model
matches for sample words (dbms, postgres, clothes) are topically related
terms, plus plural forms and misspellings.  Substitution: our from-scratch
subword SGNS model trained on the synthetic semantic corpus (engineered
topics + injected variants); the probe words and the expected *kind* of
matches are the same.

Expected shape (asserted): for each probe word, a majority of the top-15
neighbours are ground-truth related (same topic or variants).
"""

from __future__ import annotations

import pytest

from repro.bench import FigureReport, time_call
from repro.embedding import FastTextModel, generate_corpus

PROBE_WORDS = ["dbms", "postgres", "clothes"]
TOP_K = 15


@pytest.fixture(scope="module")
def trained():
    corpus = generate_corpus(n_sentences=2500, sentence_length=(5, 9), seed=11)
    model = FastTextModel(dim=48, window=3, negatives=4, seed=11)
    model.fit(corpus.sentences, epochs=2)
    return corpus, model


def test_table2_report(trained):
    corpus, model = trained
    report = FigureReport(
        "table2",
        "semantic matching, subword SGNS on synthetic corpus "
        "(paper: FastText on Wikipedia)",
        ("word", "top_matches", "topical_hits", "lookup_ms"),
    )
    for word in PROBE_WORDS:
        neighbors, seconds = time_call(model.nearest_neighbors, word, TOP_K)
        related = corpus.related_words(word)
        hits = sum(1 for w, _ in neighbors if w in related)
        report.add(
            word,
            ", ".join(w for w, _ in neighbors[:8]),
            f"{hits}/{TOP_K}",
            seconds * 1000,
        )
        assert hits >= TOP_K // 2, (
            f"{word}: only {hits}/{TOP_K} topical neighbours; model failed "
            "to learn the semantic clusters"
        )
    report.note("matches include synonyms, plural forms, and misspellings, "
                "as in the paper's Table II")
    report.emit()
