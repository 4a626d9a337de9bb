"""Word pools and deterministic text generators for synthetic corpora.

All generation is driven by an explicit ``numpy`` Generator so corpora
are exactly reproducible from a seed.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "FILLER_WORDS",
    "VALUE_WORDS",
    "make_entity_name",
    "make_value_phrase",
    "make_filler_sentence",
]

#: Common connective words for filler sentences (low information).
FILLER_WORDS: tuple[str, ...] = (
    "the", "of", "and", "in", "to", "with", "for", "over", "under", "during",
    "report", "section", "notes", "context", "general", "overview", "period",
    "update", "status", "various", "related", "additional", "further",
    "standard", "typical", "regular", "ongoing", "recent", "prior", "annual",
    "summary", "detail", "record", "item", "entry", "matter", "topic",
    "discussion", "review", "analysis", "background", "information",
)

#: Content words used to build fact values (distinct from filler so
#: value tokens are informative for retrieval and F1).
VALUE_WORDS: tuple[str, ...] = (
    "crimson", "azure", "amber", "violet", "emerald", "cobalt", "scarlet",
    "ivory", "obsidian", "silver", "golden", "bronze", "copper", "platinum",
    "delta", "sigma", "omega", "alpha", "theta", "lambda", "kappa", "zeta",
    "harbor", "summit", "valley", "ridge", "meadow", "canyon", "plateau",
    "junction", "crossing", "terrace", "orchard", "quarry", "basin", "grove",
    "seven", "twelve", "forty", "ninety", "eleven", "thirty", "sixty",
    "million", "percent", "units", "shares", "points", "degrees", "meters",
)

_SYLLABLES: tuple[str, ...] = (
    "bar", "cor", "dal", "fen", "gar", "hol", "jun", "kel", "lor", "mar",
    "nor", "pel", "quin", "ros", "sal", "tor", "ul", "ver", "wex", "yor",
    "zan", "bel", "cam", "dor", "el", "fal", "gren", "hart", "ister", "jor",
)

_ENTITY_SUFFIXES: tuple[str, ...] = (
    "corp", "group", "labs", "industries", "holdings", "systems", "partners",
    "county", "city", "university", "institute", "committee", "council",
)


def _draw(rng: np.random.Generator, pool: tuple[str, ...]) -> str:
    """One uniform word from ``pool``.

    Same draw and same generator state as ``rng.choice(pool)``, which
    takes ``integers(0, len(pool))`` and indexes with it, but without
    converting the tuple to an array on every call (~6x faster).
    """
    return pool[rng.integers(len(pool))]


def make_entity_name(rng: np.random.Generator, kind: str = "corp") -> str:
    """Generate a pronounceable two-syllable entity name.

    ``kind`` picks the suffix family (``corp`` for companies, ``place``
    for locations, ``person`` for people, ``team`` for groups).

    Name words are clipped to 6 characters so the tokenizer keeps them
    as single whole tokens — longer words would be split into 4-char
    pieces that alias across entities and blur retrieval.
    """
    first = (_draw(rng, _SYLLABLES) + _draw(rng, _SYLLABLES))[:6]
    if kind == "person":
        second = (_draw(rng, _SYLLABLES) + _draw(rng, _SYLLABLES))[:6]
        return f"{first.capitalize()} {second.capitalize()}"
    if kind == "place":
        suffix = _draw(rng, ("county", "city", "valley", "district"))
        return f"{first.capitalize()} {suffix}"
    if kind == "team":
        suffix = _draw(rng, ("committee", "team", "group", "council"))
        return f"{first.capitalize()} {suffix}"
    suffix = _draw(rng, _ENTITY_SUFFIXES[:7])
    return f"{first.capitalize()} {suffix}"


def make_value_phrase(rng: np.random.Generator, n_words: int) -> str:
    """A value phrase of ``n_words`` content words (no repeats)."""
    if n_words <= 0:
        raise ValueError(f"n_words must be positive, got {n_words}")
    n = min(n_words, len(VALUE_WORDS))
    words = rng.choice(len(VALUE_WORDS), size=n, replace=False)
    phrase = [VALUE_WORDS[int(i)] for i in words]
    # Pad with indexed variants when more words than the pool holds.
    for extra in range(n_words - n):
        phrase.append(f"{VALUE_WORDS[extra % len(VALUE_WORDS)]}{extra}")
    return " ".join(phrase)


def make_filler_sentence(
    rng: np.random.Generator,
    topic_words: tuple[str, ...],
    n_words: int = 12,
    topic_rate: float = 0.25,
) -> str:
    """A low-information sentence mixing filler and topic words.

    ``topic_rate`` controls how on-topic the padding is: higher values
    make a document's chunks look more alike (harder retrieval
    discrimination within the document).
    """
    words: list[str] = []
    for _ in range(n_words):
        use_topic = topic_words and rng.random() < topic_rate
        pool = topic_words if use_topic else FILLER_WORDS
        words.append(_draw(rng, pool))
    words[0] = words[0].capitalize()
    return " ".join(words) + "."
