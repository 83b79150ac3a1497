"""Exception classes with stable exit codes for the CLI."""


class SoficLabError(Exception):
    exit_code = 10


class SchemaError(SoficLabError):
    """Model/config file failed validation."""

    exit_code = 2


class CapExceededError(SoficLabError):
    """Requested object larger than the configured size cap."""

    exit_code = 3


class BudgetExceededError(SoficLabError):
    """Combinatorial search budget exhausted before a definitive answer."""

    exit_code = 4


class NoSafeSymbolError(SoficLabError):
    """Operation requires a safe symbol and the structure has none."""

    exit_code = 5


class NoConsistentColorError(SoficLabError):
    """Greedy extension got stuck; certificate or input was invalid."""

    exit_code = 6


class InconsistentPinsError(SoficLabError):
    """Pins that admit no configuration, such as two adjacent vertices pinned occupied."""

    exit_code = 7


class EmptyFiberError(SoficLabError):
    """No configuration where a measure needs one: no interior completion of
    an admissible boundary, or an empty derived space, which has no Gibbs
    measure and so no entropy."""

    exit_code = 11


class ReducibleTransferError(SoficLabError):
    """The transfer relation is reducible on its core symbols, hence has no unique stationary chain."""

    exit_code = 12


class ZeroProbabilityError(SoficLabError):
    """An oracle conditional is not in (0, 1], so its information -log p is not finite."""

    exit_code = 13
