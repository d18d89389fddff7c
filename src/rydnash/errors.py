"""Exception hierarchy shared across the package."""


class RydnashError(Exception):
    """Base class for every error raised by this package."""


class InvalidInput(RydnashError):
    """Malformed argument of any kind: a non-finite or coincident atom, an
    undefined blockade radius, a bad waveform or bitstring, an agent out of
    range, a dependent set where an independent one is needed, or a state
    vector of the wrong length or norm."""


class TooLarge(RydnashError):
    """2**n work refused: node count above ``_bits.EXHAUSTIVE_LIMIT``."""


class IntegrationFailure(RydnashError):
    """Time integration did not converge before reaching the step floor."""


class ConstraintViolation(RydnashError):
    """Requested run breaks a hardware limit; a pipeline run's
    ``RunConfig.validation`` lists every violation."""


class IncompatibleRuns(RydnashError):
    """Attempted to compare results computed on different graphs."""


class ConfigError(RydnashError):
    """Configuration file is missing, malformed, or has unknown fields."""
