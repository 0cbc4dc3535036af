"""Thesaurus: the WordNet substitute.

The paper's linguistic matcher classifies a label match as *exact* when
the labels are equal strings or synonyms, and as *relaxed* when they are
related by hypernymy or acronym expansion (Section 2.1).  WordNet (via
``nltk``) is not available offline, so this module provides a curated
thesaurus with exactly the lookup semantics the matcher needs:

- **synonym sets** (union-find equivalence classes): ``writer`` ~
  ``author``;
- **hypernym edges** (a DAG, queried with a bounded distance):
  ``book`` -> ``publication``;
- **abbreviations**: ``qty`` -> ``quantity``, ``addr`` -> ``address``;
- **acronyms**: ``uom`` -> ``unit of measure``, ``po`` ->
  ``purchase order``.

A default thesaurus covering the paper's four evaluation domains
(purchase orders, bibliographic data, inventory, proteins) ships as TSV
files in :mod:`repro.linguistic.data`; callers can load their own files
or extend an instance programmatically.

A thesaurus also owns the tables derived from it: the token lexicons
(:class:`~repro.linguistic.lexicon.Lexicon`, one per linguistic
config), so every matcher built on one thesaurus shares one warm token
table, and the corpus index's feature memos
(:class:`~repro.corpus.indexes.FeatureMemo`).  Every mutator drops them.

TSV line format (tab-separated, ``#`` comments)::

    syn   word1  word2  [word3 ...]     # synonym set
    hyp   hyponym  hypernym             # one is-a edge
    abbr  short  expansion              # single-word abbreviation
    acr   acronym  word1 word2 ...      # multi-word acronym expansion
"""

from __future__ import annotations

import threading
from importlib import resources
from pathlib import Path
from typing import Iterable, Optional

from repro.linguistic.lexicon import MAX_LEXICONS, Lexicon


class ThesaurusError(ValueError):
    """Raised for malformed thesaurus data."""


class _UnionFind:
    """Union-find over strings, path-halving, union by size."""

    def __init__(self):
        self._parent: dict[str, str] = {}
        self._size: dict[str, int] = {}

    def find(self, item) -> str:
        parent = self._parent
        if item not in parent:
            parent[item] = item
            self._size[item] = 1
            return item
        while parent[item] != item:
            parent[item] = parent[parent[item]]
            item = parent[item]
        return item

    def union(self, left, right):
        left_root, right_root = self.find(left), self.find(right)
        if left_root == right_root:
            return
        if self._size[left_root] < self._size[right_root]:
            left_root, right_root = right_root, left_root
        self._parent[right_root] = left_root
        self._size[left_root] += self._size[right_root]

    def root(self, item) -> Optional[str]:
        """The class representative of a known item; ``None`` (and no
        insertion, unlike :meth:`find`) for an unknown one."""
        return self.find(item) if item in self._parent else None

    def same(self, left, right) -> bool:
        if left not in self._parent or right not in self._parent:
            return False
        return self.find(left) == self.find(right)


class Thesaurus:
    """Synonyms, hypernyms, abbreviations and acronyms for label matching."""

    def __init__(self):
        self._synonyms = _UnionFind()
        self._hypernyms: dict[str, set[str]] = {}
        self._abbreviations: dict[str, str] = {}
        self._acronyms: dict[str, tuple[str, ...]] = {}
        # (kind, config) -> the table of this thesaurus under it
        # (lexicons and feature memos; see table()).
        self._lexicons: dict = {}
        self._lexicon_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lexicons
    # ------------------------------------------------------------------

    def lexicon(self, config) -> Lexicon:
        """The token lexicon of this thesaurus under a linguistic config.

        Matchers with equal configs share it; see :meth:`table`.
        """
        return self.table(config, Lexicon)

    def table(self, config, kind):
        """The table of ``kind`` derived from this thesaurus under
        ``config`` (built as ``kind(self, config)``): token lexicons,
        and the corpus index's feature memos.

        Callers with equal configs share one table.  A table past its
        entry cap (``full()``) is replaced by a fresh one here, so a
        caller that fetches its table once per match reads one table
        throughout; past :data:`~repro.linguistic.lexicon.MAX_LEXICONS`
        tables, the one least recently replaced or added goes.
        """
        key = (kind, config)
        table = self._lexicons.get(key)
        if table is None or table.full():
            with self._lexicon_lock:
                tables = self._lexicons
                table = tables.pop(key, None)
                if table is None or table.full():
                    table = kind(self, config)
                while len(tables) >= MAX_LEXICONS:
                    del tables[next(iter(tables))]
                tables[key] = table
        return table

    def drop_lexicons(self):
        """Forget every table derived from this thesaurus, so the next
        match starts from a cold token table.  Every mutator calls it:
        a lexicon caches synonym classes and token scores, a feature
        memo thesaurus expansions."""
        with self._lexicon_lock:
            self._lexicons = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_synonyms(self, words: Iterable[str]):
        """Merge all ``words`` into one synonym class."""
        words = [word.lower() for word in words]
        if len(words) < 2:
            raise ThesaurusError(f"synonym set needs at least two words: {words}")
        first = words[0]
        for word in words[1:]:
            self._synonyms.union(first, word)
        self.drop_lexicons()
        return self

    def add_hypernym(self, hyponym: str, hypernym: str):
        """Record ``hyponym`` is-a ``hypernym`` (one DAG edge)."""
        self._hypernyms.setdefault(hyponym.lower(), set()).add(hypernym.lower())
        self.drop_lexicons()
        return self

    def add_abbreviation(self, short: str, expansion: str):
        """Record a single-word abbreviation (``qty`` -> ``quantity``)."""
        self._abbreviations[short.lower()] = expansion.lower()
        self.drop_lexicons()
        return self

    def add_acronym(self, acronym: str, words: Iterable[str]):
        """Record a multi-word acronym (``uom`` -> ``unit of measure``)."""
        expansion = tuple(word.lower() for word in words)
        if not expansion:
            raise ThesaurusError(f"acronym {acronym!r} has an empty expansion")
        self._acronyms[acronym.lower()] = expansion
        self.drop_lexicons()
        return self

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def are_synonyms(self, left: str, right: str,
                     expand_abbreviations: bool = True) -> bool:
        """Same word or same synonym class (case-insensitive).

        With ``expand_abbreviations`` (the default) abbreviations are
        expanded first, so ``qty`` ~ ``amount`` holds when ``quantity`` ~
        ``amount`` does.  The matcher passes ``False`` here because the
        taxonomy classifies abbreviation-mediated matches as *relaxed*,
        not exact.
        """
        left, right = left.lower(), right.lower()
        if left == right:
            return True
        if self._synonyms.same(left, right):
            return True
        if not expand_abbreviations:
            return False
        left_full = self._abbreviations.get(left, left)
        right_full = self._abbreviations.get(right, right)
        if (left_full, right_full) != (left, right):
            if left_full == right_full or self._synonyms.same(left_full, right_full):
                return True
        return False

    def synonym_class(self, word: str) -> Optional[str]:
        """A representative of ``word``'s synonym class, or ``None``.

        Two different words are synonyms (``are_synonyms(left, right,
        expand_abbreviations=False)``) exactly when both have a class
        and the classes are equal.
        """
        return self._synonyms.root(word.lower())

    def hypernym_distance(self, left: str, right: str,
                          max_distance: int = 2) -> Optional[int]:
        """Shortest is-a connection between the words.

        Counts direct ancestor chains in either direction (1 = direct
        hypernym) *and* paths through a common ancestor (co-hyponyms:
        ``article`` and ``book`` are both publications, distance 2).
        Returns the number of edges, or ``None`` if no connection of
        length <= ``max_distance`` exists.  Synonym-class members are
        treated as interchangeable endpoints.
        """
        left, right = left.lower(), right.lower()
        up = self._ancestor_distance(left, right, max_distance)
        down = self._ancestor_distance(right, left, max_distance)
        candidates = [d for d in (up, down) if d is not None]
        left_ancestors = self._ancestors_within(left, max_distance)
        right_ancestors = self._ancestors_within(right, max_distance)
        for ancestor, left_steps in left_ancestors.items():
            right_steps = right_ancestors.get(ancestor)
            if right_steps is not None and left_steps + right_steps <= max_distance:
                candidates.append(left_steps + right_steps)
        if not candidates:
            return None
        return min(candidates)

    def _ancestors_within(self, word, max_distance):
        """All ancestors of ``word`` with their BFS distance (<= max)."""
        distances: dict[str, int] = {}
        frontier = {word}
        for distance in range(1, max_distance + 1):
            next_frontier = set()
            for item in frontier:
                for parent in self._hypernyms.get(item, ()):
                    if parent not in distances:
                        distances[parent] = distance
                        next_frontier.add(parent)
            if not next_frontier:
                break
            frontier = next_frontier
        return distances

    def _ancestor_distance(self, start, goal, max_distance):
        frontier = {start}
        for distance in range(1, max_distance + 1):
            next_frontier = set()
            for word in frontier:
                for parent in self._hypernyms.get(word, ()):
                    if parent == goal or self.are_synonyms(parent, goal):
                        return distance
                    next_frontier.add(parent)
            if not next_frontier:
                return None
            frontier = next_frontier
        return None

    def expand_abbreviation(self, token: str) -> Optional[str]:
        """The full form of an abbreviation, or ``None``."""
        return self._abbreviations.get(token.lower())

    def expand_acronym(self, token: str) -> Optional[tuple[str, ...]]:
        """The word sequence an acronym stands for, or ``None``."""
        return self._acronyms.get(token.lower())

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def loads(self, text: str, source: str = "<string>"):
        """Parse thesaurus TSV content into this instance (each record
        goes through an ``add_*`` mutator, which drops the lexicons)."""
        for line_number, raw_line in enumerate(text.splitlines(), start=1):
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            fields = [field.strip() for field in line.split("\t") if field.strip()]
            kind, args = fields[0], fields[1:]
            try:
                if kind == "syn":
                    self.add_synonyms(args)
                elif kind == "hyp":
                    if len(args) != 2:
                        raise ThesaurusError("hyp needs exactly two words")
                    self.add_hypernym(args[0], args[1])
                elif kind == "abbr":
                    if len(args) != 2:
                        raise ThesaurusError("abbr needs exactly two words")
                    self.add_abbreviation(args[0], args[1])
                elif kind == "acr":
                    if len(args) < 2:
                        raise ThesaurusError("acr needs an acronym and words")
                    self.add_acronym(args[0], args[1].split())
                else:
                    raise ThesaurusError(f"unknown record kind {kind!r}")
            except ThesaurusError as exc:
                raise ThesaurusError(
                    f"{source}:{line_number}: {exc}"
                ) from None
        return self

    def load(self, path):
        """Load a thesaurus TSV file into this instance."""
        path = Path(path)
        return self.loads(path.read_text(encoding="utf-8"), source=str(path))

    _default_instance: Optional["Thesaurus"] = None

    @classmethod
    def default(cls) -> "Thesaurus":
        """The bundled thesaurus covering the paper's evaluation domains.

        Cached, lexicons included; mutating the returned instance
        affects later callers, so build a fresh one (:meth:`bundled`,
        or ``Thesaurus().loads(...)``) for custom data.
        """
        if cls._default_instance is None:
            cls._default_instance = cls.bundled()
        return cls._default_instance

    @classmethod
    def bundled(cls) -> "Thesaurus":
        """A new instance holding the bundled data (and its own
        lexicons)."""
        thesaurus = cls()
        data_dir = resources.files("repro.linguistic") / "data"
        for entry in sorted(data_dir.iterdir(), key=lambda item: item.name):
            if entry.name.endswith(".tsv"):
                thesaurus.loads(entry.read_text(encoding="utf-8"),
                                source=entry.name)
        return thesaurus

    @classmethod
    def empty(cls) -> "Thesaurus":
        """A thesaurus with no entries (string metrics only)."""
        return cls()
