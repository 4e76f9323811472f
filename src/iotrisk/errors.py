"""Shared exception hierarchy.

Library code raises these and never calls sys.exit; the CLI maps each
family onto its exit code.
"""


class IotRiskError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(IotRiskError):
    """Invalid configuration: bad parameter combinations, empty rule sets,
    model families or modes outside their closed sets."""


class DataFormatError(IotRiskError):
    """Malformed input: feed documents, CPE URIs, corpus or artifact files."""


class DomainError(IotRiskError):
    """Input outside an operation's stated domain."""


class TrainingError(IotRiskError):
    """Model fitting failed."""


class EvaluationError(IotRiskError):
    """Cross-validation or metric computation failed."""
