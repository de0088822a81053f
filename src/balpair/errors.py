"""Exception types shared across the package."""


class BalpairError(Exception):
    """Base class for all errors raised by this package."""


class RuleSyntaxError(BalpairError):
    """Malformed substitution rule file."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NoExpandingFixedPoint(BalpairError):
    """No power of the substitution has a letter seeding an infinite fixed word."""


class NotBalanced(BalpairError):
    """The two words of a pair are not equivalent under the active relation."""


class ScanOverflow(BalpairError):
    """A splitting scan ran past a length budget without finding a cut."""

    def __init__(self, message, which):
        self.which = which
        super().__init__(message)


class StabilityNotReached(BalpairError):
    """Initial-pair collection kept discovering new pairs until its budget ran out."""

    def __init__(self, message, which):
        self.which = which
        super().__init__(message)


class NotClosed(BalpairError):
    """A pair set handed to the graph builder is not closed under children."""


class EmptyConfig(BalpairError):
    """An analysis was requested with no prefixes or no relations."""


class InternalInvariantError(BalpairError):
    """An internal consistency check failed; indicates a bug, not bad input."""
