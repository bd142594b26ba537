"""Exception taxonomy shared across the package.

Every error carries a stable kebab-case ``code`` so callers (the command
line in particular) can report failures in a machine-readable way, plus an
``exit_status`` matching the CLI contract: 1 for estimation failures, 2 for
usage or input errors.
"""


class CostSenseError(Exception):
    code = "error"
    exit_status = 1


class UsageError(CostSenseError):
    """Bad inputs: files, schemas, configuration, parameter domains."""

    code = "usage-error"
    exit_status = 2


class InputNotFoundError(UsageError):
    code = "input-not-found"


class SchemaError(UsageError):
    code = "schema-error"


class ParseError(UsageError):
    """A cell could not be parsed; ``row`` is the 1-based data row index."""

    code = "parse-error"

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class EmptyDatasetError(UsageError):
    code = "empty-dataset"


class NoPositiveCostError(UsageError):
    code = "no-positive-cost"


class ConfigError(UsageError):
    code = "config-error"


class MgfDomainError(UsageError):
    """The requested confounder effect lies outside the MGF's domain, or its
    log-MGF overflows a float."""

    code = "mgf-domain"


class CorrelationModelError(UsageError):
    code = "correlation-model"


class EstimationError(CostSenseError):
    """The inputs were readable but estimation could not proceed."""

    code = "estimation-failure"
    exit_status = 1


class SingularDesignError(EstimationError):
    code = "singular-design"


class EmptyFitError(EstimationError):
    code = "empty-fit"


class ZeroProbabilityError(EstimationError):
    """An uncensored record fell where the censoring survival is zero."""

    code = "zero-probability"

    def __init__(self, message: str, record: int | None = None):
        super().__init__(message)
        self.record = record


class SeparationError(EstimationError):
    code = "separation"


class DidNotConvergeError(EstimationError):
    code = "did-not-converge"


class CostOverflowError(EstimationError):
    """A simulated cost overflowed; ``regenerated`` counts the redraws before it."""

    code = "cost-overflow"

    def __init__(self, message: str, regenerated: int = 0):
        super().__init__(message)
        self.regenerated = regenerated
