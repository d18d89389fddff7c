"""Exception hierarchy shared across the package."""


class RydnashError(Exception):
    """Base class for every error raised by this package."""


class InvalidInput(RydnashError):
    """Malformed argument: non-finite coordinate, bad waveform, malformed bitstring."""


class DegenerateLayout(RydnashError):
    """Two atoms coincide, so the pair interaction diverges."""


class UndefinedRadius(RydnashError):
    """Blockade radius is undefined when drive and detuning both vanish."""


class InvalidAgent(RydnashError):
    """Agent index outside the graph's node range."""


class TooLarge(RydnashError):
    """2**n work refused: node count above ``_bits.EXHAUSTIVE_LIMIT``."""


class NotIndependent(RydnashError):
    """Operation requires an independent set."""


class InvalidState(RydnashError):
    """State vector has the wrong dimension or is not normalized."""


class IntegrationFailure(RydnashError):
    """Time integration did not converge before reaching the step floor."""


class ConstraintViolation(RydnashError):
    """Requested run breaks a hardware limit; a pipeline run's
    ``RunConfig.validation`` lists every violation."""


class IncompatibleRuns(RydnashError):
    """Attempted to compare results computed on different graphs."""


class ConfigError(RydnashError):
    """Configuration file is missing, malformed, or has unknown fields."""
