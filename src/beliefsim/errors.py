"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Input data violates a structural or value constraint."""


class UnknownAgentError(LookupError):
    """An agent id was referenced that is not part of the population."""


class ConfigurationError(ValidationError):
    """A scenario component is inconsistent or incomplete, so validation fails."""


class OracleDomainError(ValueError):
    """Scenario falls outside the domain of the exact-enumeration oracle."""
