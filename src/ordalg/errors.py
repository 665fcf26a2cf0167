"""Exception taxonomy shared by all modules.

Exit-code mapping used by the CLI: counterexamples are ordinary verdicts
(exit 1), while these exceptions signal malformed input or exceeded
capacity (exit 2).
"""


class OrdalgError(Exception):
    """Base class for all library errors."""


class InputError(OrdalgError):
    """Malformed or inconsistent input: unknown identifiers, non-total
    tables, domain mismatches, broken declared invariants."""


class CapacityError(OrdalgError):
    """A desk-scale guard was exceeded (carrier too large, enumeration
    budget too small, recursion depth cap hit)."""


class WindowEscape(CapacityError):
    """A result left the finite representable window.  The offending
    operands are carried so reports can name them."""

    def __init__(self, message: str, *operands):
        super().__init__(message)
        self.operands = tuple(operands)


class PreconditionError(OrdalgError):
    """A stated hypothesis of the checked statement does not hold for the
    given input, so running the check would be meaningless."""


class IncomparableError(InputError):
    """Two values that the operation requires to be comparable are not.
    Carries the witness point or pair."""

    def __init__(self, message: str, *witness):
        super().__init__(message)
        self.witness = tuple(witness)

