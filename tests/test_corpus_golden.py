"""Golden digests of every dataset's corpus at seed 0.

One SHA-256 per dataset covers everything corpus construction
produces: document texts and token counts, planted facts, chunks and
their fact placements, queries with their latent truth, and the raw
bytes of the store's embedding matrix. A change to the generator, the
vocabulary draws, the chunker, the tokenizer or the embedder that
moves a single byte fails here, even where the serving goldens would
not notice. A change meant to leave corpora as they are must pass
with these digests untouched.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.data.datasets import build_dataset, get_spec
from repro.data.generator import _build_documents
from repro.llm.tokenizer import SimTokenizer
from repro.util.rng import RngStreams

GOLDEN = {
    "finsec": (
        "180bf46e9b7cf41d6b3cee54abc40f3f"
        "1b8281a9e00338e8cf394e79a15747c7"
    ),
    "musique": (
        "bafc1e8224668b065b2a8590b44fdd78"
        "96a959e1283008b85a45753da471cc44"
    ),
    "qmsum": (
        "2eeb2d204c3789a3e56de4018e511c1f"
        "d33de347519625fee02ea943a18df7aa"
    ),
    "squad": (
        "6d568c6d34f4a1f7e23fe1867880c21d"
        "364c4c307c755c8a49cbaf0d97a73aca"
    ),
}


def corpus_digest(name: str, seed: int = 0) -> str:
    """SHA-256 over the full seed-``seed`` corpus of dataset ``name``."""
    bundle = build_dataset(name, seed=seed)
    # Document texts are not kept on the bundle; rebuild them from the
    # same named stream the generator draws them from.
    _, doc_texts, _, _ = _build_documents(
        get_spec(name), RngStreams(seed).child("dataset", name),
        SimTokenizer(),
    )
    store = bundle.store
    payload = {
        "docs": [
            [doc_id, text, bundle.doc_tokens[doc_id]]
            for doc_id, text in doc_texts.items()
        ],
        "facts": [dataclasses.astuple(f) for f in bundle.facts.values()],
        "chunks": [[c.chunk_id, c.text, c.n_tokens] for c in store._chunks],
        "chunk_facts": sorted(bundle.chunk_facts.items()),
        "queries": [
            [q.query_id, q.text, q.n_tokens, q.answer_tokens_estimate,
             dataclasses.astuple(q.truth)]
            for q in bundle.queries
        ],
    }
    h = hashlib.sha256(json.dumps(payload).encode())
    vectors = store._vectors
    h.update(f"{vectors.dtype.str}{vectors.shape}".encode())
    h.update(vectors.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_corpus_bytes_are_pinned(name):
    assert corpus_digest(name) == GOLDEN[name]
