"""Word pools and deterministic text generators for synthetic corpora.

All generation is driven by an explicit ``numpy`` Generator so corpora
are exactly reproducible from a seed.
"""

from __future__ import annotations

import numpy as np

from repro.llm.tokenizer import SimTokenizer

__all__ = [
    "FILLER_WORDS",
    "VALUE_WORDS",
    "make_entity_name",
    "make_value_phrase",
    "make_filler",
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

#: Words per filler sentence.
_SENTENCE_WORDS = 12
_LOW32 = np.uint64(0xFFFFFFFF)
_TOKENIZER = SimTokenizer()


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
    n_words: int = _SENTENCE_WORDS,
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


def make_filler(
    rng: np.random.Generator,
    topic_words: tuple[str, ...],
    need: int,
    topic_rate: float,
) -> tuple[list[str], int]:
    """Filler sentences until they hold at least ``need`` tokens.

    Returns the sentences and their total token count. The output and
    the generator state afterwards are those of calling
    :func:`make_filler_sentence` in a loop until the running count
    reaches ``need``, but the words come from one block of raw PCG64
    outputs per call (see ``docs/PERFORMANCE.md``, "One block draw per
    document"):

    * each word takes one ``random()``, ``(raw >> 11) * 2**-53`` of a
      fresh raw output, then one ``integers(len(pool))``, Lemire's
      ``(u32 * n) >> 32`` of the next 32-bit half; PCG64 serves the
      halves of one raw output low first and keeps the high half
      buffered, so two words take three raw outputs;
    * every sentence holds at least 13 tokens (12 words and the
      period), so ``ceil(need / 13)`` sentences bound the block;
    * the generator is rewound to exactly the raw outputs the chosen
      words consumed, with its 32-bit buffer as the loop leaves it.

    A topic pool of fewer than two words (``integers(1)`` draws
    nothing) and a block where Lemire could reject a draw take the
    scalar loop instead.
    """
    if need <= 0:
        return [], 0
    if len(topic_words) < 2:
        return _filler_scalar(rng, topic_words, need, topic_rate)
    bitgen = rng.bit_generator
    saved = bitgen.state
    buffered = saved["has_uint32"]
    n_sentences = -(-need // (_SENTENCE_WORDS + 1))
    n_words = _SENTENCE_WORDS * n_sentences
    raw = bitgen.random_raw(buffered + 3 * n_words // 2)
    # Pair j of unbuffered words: word 2j takes the double of raw
    # 3j and the low half of raw 3j+1; word 2j+1 the double of raw
    # 3j+2 and the high half of raw 3j+1.
    pairs = raw[buffered:].reshape(-1, 3)
    doubles = pairs[:, 0::2].ravel()
    halves = np.stack([pairs[:, 1] & _LOW32, pairs[:, 1] >> np.uint64(32)],
                      axis=1).ravel()
    if buffered:
        # The first word's integer is the buffered high half.
        doubles = np.concatenate([raw[:1], doubles])[:n_words]
        halves = np.concatenate(
            [np.array([saved["uinteger"]], dtype=np.uint64), halves]
        )[:n_words]
    uniform = (doubles >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    topic = uniform < topic_rate
    sizes = np.where(topic, len(topic_words), len(FILLER_WORDS)).astype(
        np.uint64)
    index, exact = _lemire(halves, sizes)
    word_ids = np.where(topic, len(FILLER_WORDS) + index, index)
    vocab = FILLER_WORDS + topic_words
    word_tokens = np.array([_TOKENIZER.count(w) for w in vocab])[word_ids]
    totals = np.cumsum(
        word_tokens.reshape(n_sentences, _SENTENCE_WORDS).sum(axis=1) + 1)
    used = int(np.searchsorted(totals, need)) + 1
    n_used = _SENTENCE_WORDS * used
    if not exact[:n_used].all():
        bitgen.state = saved
        return _filler_scalar(rng, topic_words, need, topic_rate)
    # The chosen words consumed 3 * n_used / 2 raw outputs and leave
    # the buffer flag as it was; the buffer holds the high half last
    # taken, which numpy keeps even after handing it out.
    bitgen.state = saved
    bitgen.advance(3 * n_used // 2)
    state = bitgen.state
    state["has_uint32"] = buffered
    state["uinteger"] = int(pairs[n_used // 2 - 1, 1] >> np.uint64(32))
    bitgen.state = state
    ids = word_ids[:n_used].tolist()
    sentences = []
    for start in range(0, n_used, _SENTENCE_WORDS):
        words = [vocab[i] for i in ids[start:start + _SENTENCE_WORDS]]
        words[0] = words[0].capitalize()
        sentences.append(" ".join(words) + ".")
    return sentences, int(totals[used - 1])


def _lemire(halves: np.ndarray,
            sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lemire's bounded integers from 32-bit draws: the index
    ``(u32 * n) >> 32`` into each pool of size ``n``, and whether it is
    final. Where the low 32 bits of the product fall below ``n``, numpy
    may reject the draw and take another."""
    product = halves * sizes
    return product >> np.uint64(32), (product & _LOW32) >= sizes


def _filler_scalar(
    rng: np.random.Generator,
    topic_words: tuple[str, ...],
    need: int,
    topic_rate: float,
) -> tuple[list[str], int]:
    """:func:`make_filler` one :func:`make_filler_sentence` at a time."""
    sentences: list[str] = []
    tokens = 0
    while tokens < need:
        sentence = make_filler_sentence(rng, topic_words,
                                        topic_rate=topic_rate)
        sentences.append(sentence)
        tokens += _TOKENIZER.count(sentence)
    return sentences, tokens
