"""Exception types shared across the package.

Every domain error has its own class so callers (and the CLI) can surface
the failure by name instead of matching message strings.
"""


class StringConeError(Exception):
    """Base class for all package-specific errors."""


class OriginNotInterior(StringConeError):
    """Polar duality requires the origin strictly inside the polytope."""


class NotGorenstein(StringConeError):
    """No integral linear functional takes the value 1 on all generators."""


class DimensionBudgetExceeded(StringConeError):
    """Cone dimension (or facet count) is beyond the enumeration budget."""


class NotReflexivePair(StringConeError):
    """Operation needs a dual pair of cones built from a reflexive polytope."""


class InvalidSubdivision(StringConeError):
    """Candidate fan fails the subdivision validity checks."""


class NotGraded(StringConeError):
    """Poset has maximal chains of different lengths."""


class NotEulerian(StringConeError):
    """Poset has an interval with unequal even/odd rank counts."""


class NotSimplicial(StringConeError):
    """Cone has more extreme rays than its dimension."""


class NotComplete(StringConeError):
    """Fan fails the combinatorial completeness check."""


class ConeNotInFan(StringConeError):
    """Queried cone is not a member of the fan."""


class DivisionNotExact(StringConeError):
    """Monomial division left a remainder; signals an implementation bug."""


class NegativeHodgeNumber(StringConeError):
    """Signed coefficient extraction produced a negative entry."""


class PointOutsideCone(StringConeError):
    """Lattice point does not belong to the expected cone."""


class InvalidField(StringConeError):
    """Field descriptor is not "rational" or "prime:<p>" with p a prime in
    the supported range."""


class NotRegular(StringConeError):
    """Degree-one element failed the regularity test."""


class NotGenericAfterRetries(StringConeError):
    """Random element stayed non-generic after the bounded reseed policy."""


class CapTooSmall(StringConeError):
    """Bidegree cap is below the cone dimension."""


class ParseError(StringConeError):
    """Input file failed to parse; message carries file/field diagnostics."""
