"""Exception hierarchy shared across the package."""


class HypercodeError(Exception):
    """Base class for all domain errors."""


class ParseError(HypercodeError):
    """Malformed input data (bad cell, bad JSON field, ...)."""


class DimensionError(HypercodeError):
    """Ragged matrix or out-of-range neuron index."""


class ConfigError(HypercodeError):
    """Invalid build / nerve / synth configuration."""


class BondLookupError(HypercodeError):
    """Unknown bond id or level in a hyperstructure query."""


class LevelRangeError(BondLookupError):
    """Level index outside the populated range 1..k of a hyperstructure."""


class CompositionError(HypercodeError):
    """Requested bond composition is not gluable."""


class CliqueBudgetError(HypercodeError):
    """Maximal-clique enumeration exceeded its budget."""


class DimCapError(HypercodeError):
    """Requested homology dimension exceeds the face-enumeration cap."""


class UniverseError(HypercodeError):
    """Two structures do not share the same neuron universe."""
