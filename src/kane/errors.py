"""Exception types shared across the package."""


class KaneError(Exception):
    """Base class for all package-specific failures."""


class ParseError(KaneError):
    """Malformed input file. Message always names the source and line."""

    def __init__(self, source: str, line: int, reason: str):
        self.source = source
        self.line = line
        self.reason = reason
        super().__init__(f"{source}:{line}: {reason}")


class ShapeError(KaneError):
    """Tensor shapes incompatible with the requested operation."""


class DomainError(KaneError):
    """Input outside what an operation can represent: an attribute literal
    with no tokens, which no encoder can encode, a graph and split that a
    bundle cannot store (an id of 2**31 or more, a split triple the graph
    does not hold), or an entity name that begins a TSV line with ``#``."""


class ConfigError(KaneError):
    """Invalid or inconsistent configuration value."""


class DatasetError(ConfigError):
    """The dataset lacks what an operation needs: training or test triples,
    labels, or labeled entities."""


class SamplingError(KaneError):
    """Negative sampling cannot produce a valid corruption."""


class TrainingError(KaneError):
    """Training aborted (non-finite loss or gradient)."""


class IntegrityError(KaneError):
    """Corrupt or mismatched artifact (bad checksum, wrong magic, ...)."""
