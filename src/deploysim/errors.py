"""Exception types shared across the library."""


class DeploySimError(Exception):
    """Base class for all library-raised errors."""


class ParameterError(DeploySimError, ValueError):
    """An argument or configuration value is outside its valid range."""


class SingularConfigurationError(DeploySimError, ValueError):
    """A parameter combination makes the requested quantity undefined."""


class DomainError(DeploySimError, ValueError):
    """A query lies outside the validity band of a model."""


class ContractViolationError(DeploySimError, RuntimeError):
    """An operation was invoked in a state its contract forbids."""


class ScenarioError(DeploySimError, ValueError):
    """A scenario file or override failed to parse or validate."""
