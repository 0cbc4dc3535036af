"""Linguistic substrate: tokenization, thesaurus, string metrics, matcher.

This package is the WordNet-backed linguistic component of Cupid-style
matchers, rebuilt from scratch:

- :mod:`repro.linguistic.tokenizer` -- label tokenization and light
  stemming;
- :mod:`repro.linguistic.string_metrics` -- Levenshtein, Jaro(-Winkler),
  n-gram Dice, LCS and an abbreviation heuristic;
- :mod:`repro.linguistic.thesaurus` -- synonym / hypernym / acronym /
  abbreviation knowledge with bundled domain data (the WordNet
  substitute; see DESIGN.md);
- :mod:`repro.linguistic.lexicon` -- the per-label and per-token-pair
  work under one thesaurus and config, shared by every matcher on that
  thesaurus;
- :mod:`repro.linguistic.matcher` -- the linguistic algorithm itself,
  used both standalone (the paper's baseline) and inside QMatch.
"""

from repro.linguistic.matcher import (
    DEFAULT_STOPWORDS,
    LabelComparison,
    LinguisticConfig,
    LinguisticMatcher,
)
from repro.linguistic.thesaurus import Thesaurus, ThesaurusError
from repro.linguistic.tokenizer import initials, is_acronym_shaped, normalize, stem, tokenize

__all__ = [
    "DEFAULT_STOPWORDS",
    "LabelComparison",
    "LinguisticConfig",
    "LinguisticMatcher",
    "Thesaurus",
    "ThesaurusError",
    "initials",
    "is_acronym_shaped",
    "normalize",
    "stem",
    "tokenize",
]
