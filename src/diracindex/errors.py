"""Exception hierarchy.

Every error a caller can provoke derives from DiracIndexError.  A failed
self-check of the package raises InternalInvariantError instead, which is
a bug rather than a bad input and so is not a DiracIndexError.  A paper
claim that the computation does not confirm raises ClaimMismatch, a
verification failure that is neither.

An error line that echoes refused input shows it through `_echo`, cut to
_ECHO_LIMIT characters, so that no input can make the line long.
"""

# Refused input, such as an unknown "type" value, a malformed coefficient or
# an unparsable DIRAC_MAX_RANK, is echoed in at most this many characters.
_ECHO_LIMIT = 40


def _echo(value: object) -> str:
    """repr(value) as an error line shows it: cut to _ECHO_LIMIT characters."""
    shown = repr(value)
    return shown if len(shown) <= _ECHO_LIMIT else shown[:_ECHO_LIMIT - 3] + "..."


class DiracIndexError(Exception):
    pass


class InternalInvariantError(Exception):
    """An internal consistency check failed."""


class ClaimMismatch(ValueError):
    """A computed result disagrees with the closed form the paper claims."""


class InvalidInput(DiracIndexError, ValueError):
    """Command input that cannot be read: a missing file, malformed or
    non-object JSON, or an unparsable environment setting."""


class IllegalParams(DiracIndexError, ValueError):
    """Group parameters outside the family-legal range."""


class RankCapExceeded(DiracIndexError, ValueError):
    """Requested group exceeds the configured rank cap."""


class EnumerationCapExceeded(DiracIndexError, ValueError):
    """A Weyl group (or similar finite set) is too large to enumerate."""


class CapExceeded(DiracIndexError, ValueError):
    """A configurable size cap (linear algebra, subset enumeration, ...) was hit."""


class DimensionMismatch(DiracIndexError, ValueError):
    """Vector / polynomial arities do not agree."""


class ZeroForm(DiracIndexError, ValueError):
    """A linear form with no nonzero coefficient was supplied."""


class NonIntegralCoefficient(DiracIndexError, ValueError):
    """An index family coefficient is not an integer."""


class NotDominantIntegral(DiracIndexError, ValueError):
    """Highest weight is not dominant integral for the positive system."""


class NegativeOrder(DiracIndexError, ValueError):
    """A series truncation order below zero."""


class SingularDirection(DiracIndexError, ValueError):
    """Series evaluation direction y lies on a root hyperplane."""


class SingularParameter(DiracIndexError, ValueError):
    """Harish-Chandra parameter is singular where regularity is required."""


class OffLattice(DiracIndexError, ValueError):
    """Weight does not lie on the required lattice coset."""


class NotInC(DiracIndexError, ValueError):
    """Weight is outside the closed dominant chamber for the compact group."""


class IndexOutOfRange(DiracIndexError, ValueError):
    """Chamber index outside its legal range."""


class InvalidPartition(DiracIndexError, ValueError):
    """Partition fails the nilpotent-orbit parity rules for the type."""


class UnsupportedFamily(DiracIndexError, ValueError):
    """No catalog entry for this group family."""


class UnknownSuite(DiracIndexError, ValueError):
    """Unrecognized verification suite name."""


class UnsupportedFormat(DiracIndexError, ValueError):
    """Unrecognized output format."""
