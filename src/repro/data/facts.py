"""Facts: the atomic pieces of information queries ask about.

A fact is an (entity, attribute, value) triple rendered into a sentence
that is planted in exactly one place in the corpus. Because the
generator knows where every fact lives, retrieval recall and answer
quality can be *measured* rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.llm.quality import FactView
from repro.llm.tokenizer import SimTokenizer

__all__ = ["Fact"]

_TOKENIZER = SimTokenizer()


@dataclass(frozen=True)
class Fact:
    """One planted piece of information.

    Attributes:
        fact_id: globally unique id (``doc_id/fN``).
        doc_id: the document the fact's sentence lives in.
        entity / attribute / value_text: the triple.
        sentence: the exact sentence planted in the document (unique in
            the corpus, so chunk membership is recoverable by substring
            search).
        verbosity: summary tokens needed to preserve the fact through a
            mapper (dataset-dependent).
    """

    fact_id: str
    doc_id: str
    entity: str
    attribute: str
    value_text: str
    sentence: str
    verbosity: float

    @cached_property
    def value_tokens(self) -> tuple[str, ...]:
        """Ground-truth answer tokens contributed by this fact
        (tokenized on first read; equality and hashing see only the
        fields)."""
        return tuple(_TOKENIZER.tokenize(self.value_text))

    def view(self) -> FactView:
        """Project to the quality model's representation."""
        return FactView(
            fact_id=self.fact_id,
            value_tokens=self.value_tokens,
            verbosity=self.verbosity,
        )

    @staticmethod
    def render_sentence(entity: str, attribute: str, value_text: str,
                        style: str = "plain") -> str:
        """Render the planted sentence for a triple.

        Styles give each dataset a distinct surface form:
        ``plain`` (squad/musique), ``report`` (finsec),
        ``meeting`` (qmsum).
        """
        if style == "report":
            return f"{entity} reported {attribute} of {value_text}."
        if style == "meeting":
            return (
                f"Regarding {attribute}, {entity} concluded {value_text}."
            )
        return f"The {attribute} of {entity} is {value_text}."
