"""Exception types shared across the package.

Every error raised by the library derives from :class:`CareRankError` so
callers (and the CLI exit-code mapping) can distinguish our failures from
generic ones.
"""


class CareRankError(Exception):
    """Base class for all errors raised by care_rank."""


class InvalidArgumentError(CareRankError, ValueError):
    """Non-finite input, dimension mismatch, or an out-of-range parameter."""


class DimensionError(InvalidArgumentError):
    """Shapes that can never be valid (e.g. more covariates than items allow)."""


class DegenerateDesignError(CareRankError):
    """The augmented covariate matrix is rank deficient."""

    def __init__(self, message: str, rank: int | None = None):
        super().__init__(message)
        self.rank = rank


class DegenerateColumnError(DegenerateDesignError):
    """A covariate column is constant and cannot be standardized."""


class ConnectivityError(CareRankError):
    """The comparison graph is disconnected; consistent ranking is impossible.

    ``components`` holds the item indices of each component.  The message
    gives their count and the first 6, with the first 8 items of each,
    shown as indices or, given ``names`` (the item ids by index), as ids.
    """

    def __init__(self, graph: str, components: list[list[int]], names: list[str] | None = None):
        # args are the constructor's, so the error unpickles when a study
        # worker raises it
        super().__init__(graph, components, names)
        self.graph, self.components, self.names = graph, components, names

    def __str__(self) -> str:
        shown = [
            comp[:8] if self.names is None else [self.names[k] for k in comp[:8]]
            for comp in self.components[:6]
        ]
        return f"{self.graph} has {len(self.components)} components: " + ", ".join(map(str, shown))

    def named(self, item_ids) -> "ConnectivityError":
        """This error with its components shown by item id."""
        return ConnectivityError(self.graph, self.components, item_ids)


class DegenerateContrastError(CareRankError):
    """The requested contrast lies entirely in the unidentifiable space."""


class ConfigurationError(CareRankError):
    """An experiment or CLI configuration that cannot be run as given."""


class ParseError(CareRankError):
    """A malformed input file; carries the offending row when known."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message if row is None else f"row {row}: {message}")
        self.row = row
