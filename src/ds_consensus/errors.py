"""Semantic exception hierarchy, and the one [0, 1] check, shared across the package."""


class DSConsensusError(Exception):
    """Base class for all package errors."""


class FrameMismatch(DSConsensusError):
    """Two bodies of evidence do not share the same frame of discernment."""


class NotABeliefFunction(DSConsensusError):
    """A table of belief values has no valid (non-negative) mass function."""


class NodeOutOfRange(DSConsensusError):
    """Node index outside [1, N]."""


class ParameterOutOfRange(DSConsensusError, ValueError):
    """A bound, self-weight or sweep grid outside its range (also a ValueError)."""


class NotDirichlet(DSConsensusError):
    """Operation requires all opinions to be Dirichlet (singletons plus the full frame)."""


class NotRankOne(DSConsensusError):
    """Accumulated matrix product is not numerically rank-one."""


class NotDrivenChain(DSConsensusError):
    """Confidence matrix lacks the block structure of a group-driven chain."""


class EngineMismatch(DSConsensusError):
    """Scenario engine incompatible with the agents' opinion class."""


class InvalidScenario(DSConsensusError):
    """Scenario file parsed but violates a structural invariant."""


class ScenarioParseError(DSConsensusError):
    """Scenario file is not valid JSON or misses required fields."""


def check_unit_interval(name: str, value) -> None:
    """Raise ParameterOutOfRange unless ``value`` is a number in [0, 1]."""
    try:
        inside = 0.0 <= value <= 1.0
    except (TypeError, ValueError):  # not a number, or an array of several
        raise ParameterOutOfRange(f"{name} must be a number in [0, 1], got {value!r}") from None
    if not inside:
        raise ParameterOutOfRange(f"{name} must be in [0, 1], got {value}")
