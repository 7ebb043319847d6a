"""Exception types shared across the package."""


class TextGradeError(Exception):
    """Base class for all errors raised by textgrade."""


class ManifestError(TextGradeError):
    """Corpus manifest cannot be parsed."""


class GradeRangeError(ManifestError):
    """Manifest names a grade outside 1-4."""


class IncompleteCorpusError(ManifestError):
    """At least one grade in 1-4 has no manifest entry."""


class CorpusFileError(TextGradeError):
    """A file the manifest lists cannot be opened, read or decoded.

    The message starts with `<manifest>:<line>:`; the OSError or
    UnicodeDecodeError is the cause.
    """


class EmptyClassError(TextGradeError):
    """A grade's files tokenize to an empty sequence: `EmptyClassError(grade)`."""

    def __str__(self) -> str:
        return f"grade {self.args[0]} has no tokens"


class EmptyQueryError(TextGradeError):
    """Input text contains no tokens after tokenization."""


class VocabularyMismatchError(TextGradeError):
    """Two vectors were built over different vocabularies."""


class ZeroVectorError(TextGradeError):
    """Cosine similarity is undefined for an all-zero vector."""
