"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; the CLI maps these to exit codes and machine-readable error kinds.
"""

from __future__ import annotations


class JointSelectError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(JointSelectError, ValueError):
    """Invalid user input (malformed preferences, bad matrix entries, ...)."""


class LengthMismatchError(ValidationError):
    """The two preference vectors have different lengths."""


class NegativeWeightError(ValidationError):
    """A weight or matrix entry is negative beyond the -1e-12 clamp tolerance."""


class TotalMismatchError(ValidationError):
    """Preference weights do not sum to the declared total."""


class DimensionMismatchError(JointSelectError):
    """Objects that must share a dimension (arms, players) do not."""


class TotalNotOneError(JointSelectError):
    """Operation requires a unit total but the input carries a different one."""


class PopularityExceedsTotalError(JointSelectError):
    """Some arm's popularity exceeds the total: zero loss is unattainable."""


class NotApplicableError(JointSelectError):
    """The requested construction does not apply to this instance."""


class DegenerateProductError(JointSelectError):
    """All off-diagonal preference products vanish; renormalization undefined."""


class DimensionTooLargeError(JointSelectError):
    """Instance exceeds the desk-scale limit of an exhaustive routine."""


class TooFewArmsError(JointSelectError):
    """Fewer arms than players: no conflict-free assignment exists at all."""


class NonDistinctKeyError(JointSelectError):
    """A joint-tensor key repeats an arm across players."""


class InvalidArmCountError(ValidationError):
    """Arm count outside the range supported by the requested family."""


class InternalInvariantError(JointSelectError):
    """A provable invariant failed at runtime (indicates a bug)."""
