"""Exception hierarchy shared by all bfgeo modules.

Errors that carry a mathematical witness (a concrete object demonstrating
the failure) expose it as the ``witness`` attribute.
"""

from __future__ import annotations


class BfgeoError(Exception):
    """Base class for all library errors."""


class TheoremViolated(BfgeoError):
    """A fact the theory guarantees failed to hold on the data at hand.

    Raised by the internal cross-checks; it means the library or its
    inputs are wrong, never that a verifier found a counterexample.
    """


class WitnessError(BfgeoError):
    """Error carrying a concrete counterexample or offending object."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


# --- field construction / arithmetic ---------------------------------------

class NotPrime(BfgeoError):
    pass


class DegreeTooLarge(BfgeoError):
    pass


class UnsupportedField(BfgeoError):
    pass


# --- matrices ---------------------------------------------------------------

class ShapeMismatch(BfgeoError):
    pass


class Singular(BfgeoError):
    pass


class DomainTooLarge(BfgeoError):
    """Work sized by the user is past its bound (``matrices.bounded``)."""


# --- clique geometry ---------------------------------------------------------

class NotAdjacent(BfgeoError):
    pass


class NotAdjacentSet(BfgeoError):
    pass


class NotMaximal(WitnessError):
    """The given clique extends; ``witness`` is a matrix extending it."""


class ZeroNotMember(BfgeoError):
    pass


class WrongKinds(BfgeoError):
    pass


class Disjoint(BfgeoError):
    pass


class PreconditionViolated(BfgeoError):
    pass


# --- map tables and homomorphism machinery ------------------------------------

class InvalidParams(WitnessError):
    """Standard-form parameters fail their invertibility requirement."""


class InvalidXi(BfgeoError):
    pass


class SingularTwist(WitnessError):
    """Twist denominator is singular; ``witness`` is the offending input."""


class NoHomExists(BfgeoError):
    pass


class NotHom(WitnessError):
    """Map is not a graph homomorphism; ``witness`` is a violating pair."""


class Degenerate(WitnessError):
    """Map is degenerate; ``witness`` is (center, clique, clique)."""


class DimDeficient(WitnessError):
    """An image clique has too small a dimension; ``witness`` names it."""


class NoFit(BfgeoError):
    pass


# --- map-table files -----------------------------------------------------------

class FormatError(BfgeoError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class IncompleteDomain(BfgeoError):
    pass


class DuplicateKey(BfgeoError):
    pass
