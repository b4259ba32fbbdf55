"""Keyword mining over vulnerability text and critical-API selection.

Keywords are ranked by source-weighted TF-IDF over the corpus, the top slice
is matched against platform API documentation, and externally curated tool
lists (source/sink/callback/taint-wrapper files) are filtered by the same
keywords and merged in.
"""

import json
import math
import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .tables import InputError, load_name_list, read_input

# Verified exploit entries carry double weight; everything else is neutral.
DEFAULT_SOURCE_WEIGHTS = {
    "cve": 1.0,
    "exploitdb_verified": 2.0,
    "exploitdb_unverified": 1.0,
    "code_sample": 1.0,
}

DEFAULT_TOP_KEYWORDS = 150
DEFAULT_MIN_MATCHES = 2

_TOKEN_RE = re.compile(r"[a-z0-9.]+")
_WORD_SPLIT_RE = re.compile(r"[^a-zA-Z0-9]+")
_CAMEL_RE = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")


class EmptyCorpusError(InputError):
    """A corpus directory with no documents, or with a malformed index.json."""


class ApiDocsError(InputError):
    """A malformed --api-docs file."""


@dataclass(frozen=True)
class CorpusDocument:
    doc_id: str
    text: str
    source_kind: str = "cve"
    weight: float | None = None

    def effective_weight(self, weights=None) -> float:
        if self.weight is not None:
            if self.weight <= 0:
                raise ValueError(f"document {self.doc_id}: weight must be positive")
            return self.weight
        table = weights or DEFAULT_SOURCE_WEIGHTS
        return table.get(self.source_kind, 1.0)


@dataclass(frozen=True)
class KeywordScore:
    keyword: str
    score: float


@dataclass(frozen=True)
class ApiDoc:
    signature: str
    description: str = ""

    def __post_init__(self):
        if not self.signature:
            raise ValueError("empty API signature")


@dataclass(frozen=True)
class CriticalApiSet:
    """Deduplicated critical-API signatures with lexicographic iteration order."""

    apis: tuple

    @classmethod
    def of(cls, signatures) -> "CriticalApiSet":
        return cls(tuple(sorted(set(signatures))))

    @cached_property
    def _members(self) -> frozenset:
        return frozenset(self.apis)

    def __contains__(self, signature: str) -> bool:
        return signature in self._members

    def __iter__(self):
        return iter(self.apis)

    def __len__(self):
        return len(self.apis)


def tokenize(text: str):
    """Lowercase alphanumeric-plus-dot tokens, stripped of edge dots."""
    tokens = []
    for t in _TOKEN_RE.findall(text.lower()):
        t = t.strip(".")
        if t:
            tokens.append(t)
    return tokens


def word_tokens(text: str):
    """Whole-word tokens of documentation text, with identifiers split on case.

    'sendTextMessage(String s)' yields {send, text, message, string, s} plus
    the unsplit lowercased identifiers, so both 'send' and 'sendtextmessage'
    are matchable keywords.
    """
    words = set()
    for chunk in _WORD_SPLIT_RE.split(text):
        if not chunk:
            continue
        words.add(chunk.lower())
        for part in _CAMEL_RE.split(chunk):
            if part:
                words.add(part.lower())
    return words


def rank_keywords(corpus, stopwords=frozenset(), source_weights=None):
    """Rank corpus keywords by weighted TF-IDF, descending.

    score(t) = sum_d weight(d) * tf(t, d) * idf(t) with tf(t, d) the
    length-normalized count and idf(t) = ln((1 + N) / (1 + df(t))) + 1.
    Ties break lexicographically.
    """
    if not corpus:
        raise EmptyCorpusError("keyword ranking needs a non-empty corpus")
    stopwords = {s.lower() for s in stopwords}
    n_docs = len(corpus)
    doc_freq = {}
    weighted_tf = {}
    for doc in corpus:
        tokens = tokenize(doc.text)
        if not tokens:
            continue
        w = doc.effective_weight(source_weights)
        counts = {}
        for t in tokens:
            counts[t] = counts.get(t, 0) + 1
        for t, c in counts.items():
            if t in stopwords:
                continue
            doc_freq[t] = doc_freq.get(t, 0) + 1
            weighted_tf[t] = weighted_tf.get(t, 0.0) + w * c / len(tokens)
    scored = [
        KeywordScore(t, weighted_tf[t] * (math.log((1 + n_docs) / (1 + doc_freq[t])) + 1.0))
        for t in weighted_tf
    ]
    scored.sort(key=lambda ks: (-ks.score, ks.keyword))
    return scored


def select_top(ranked, k: int = DEFAULT_TOP_KEYWORDS):
    """First k keywords of a ranked list (all of them, with a warning, if short)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(ranked):
        warnings.warn(
            f"requested top {k} keywords but only {len(ranked)} are ranked",
            stacklevel=2,
        )
    return [ks.keyword for ks in ranked[:k]]


def keyword_hits(text: str, keywords) -> set:
    """Distinct keywords occurring as whole words in case-split text."""
    words = word_tokens(text)
    return {k for k in keywords if k in words}


def match_critical_apis(api_docs, keywords, min_matches: int = DEFAULT_MIN_MATCHES) -> CriticalApiSet:
    """APIs whose signature plus description hit at least min_matches distinct keywords."""
    keywords = {k.lower() for k in keywords}
    hits = []
    for doc in api_docs:
        matched = keyword_hits(doc.signature + " " + doc.description, keywords)
        if len(matched) >= min_matches:
            hits.append(doc.signature)
    return CriticalApiSet.of(hits)


def merge_tool_lists(tool_apis, keywords, mined: CriticalApiSet) -> CriticalApiSet:
    """Union of the mined set with tool-list APIs hitting at least one keyword."""
    keywords = {k.lower() for k in keywords}
    extra = [sig for sig in tool_apis if keyword_hits(sig, keywords)]
    return CriticalApiSet.of(list(mined) + extra)


def load_corpus_dir(corpus_dir):
    """One document per text file, with an index.json mapping doc_id to source kind."""
    corpus_dir = Path(corpus_dir)
    index = {}
    index_path = corpus_dir / "index.json"
    if index_path.exists():
        index = read_input(index_path, json.loads)
        if not isinstance(index, dict):
            raise EmptyCorpusError(f"{index_path}: not a JSON object of doc_id -> source kind")
    return [CorpusDocument(path.stem, read_input(path), index.get(path.stem, "cve"))
            for path in sorted(corpus_dir.glob("*.txt"))]


def load_api_docs(path) -> list:
    """ApiDocs of a JSON list of {signature, description} objects, the
    description optional; a malformed entry is an ApiDocsError naming its index."""
    raw = read_input(path, json.loads)
    if not isinstance(raw, list):
        raise ApiDocsError(f"{path}: not a JSON list")
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ApiDocsError(f"{path}: entry {i} is not an object")
        signature, description = entry.get("signature"), entry.get("description", "")
        if not (signature and isinstance(signature, str) and isinstance(description, str)):
            raise ApiDocsError(f"{path}: entry {i} needs a non-empty string signature "
                               "and a string description")
    return [ApiDoc(e["signature"], e.get("description", "")) for e in raw]


def load_stopwords(path) -> frozenset:
    """The lowercased words of a name list (tables.load_name_list), any
    number per line."""
    return frozenset(word for line in load_name_list(path) for word in line.lower().split())


def load_critical_apis(path) -> CriticalApiSet:
    return CriticalApiSet.of(load_name_list(path))


def save_critical_apis(apis: CriticalApiSet, path):
    Path(path).write_text("".join(sig + "\n" for sig in apis))
