"""Exception hierarchy.

Every failure mode has its own class so callers (and the test suite) can pin
down exactly which contract broke.  The invariant-style errors double as
executable proof obligations: if the underlying theory holds they never fire.
"""


class ChorefairError(Exception):
    """Base class for all errors raised by this package."""


# ---- instance normalization ----------------------------------------------

class ZeroCost(ChorefairError):
    """A cost entry is zero or negative; only strictly positive costs are valid."""


class NotBiValued(ChorefairError):
    """The cost matrix contains more than two distinct values."""


class AlreadyUniform(ChorefairError):
    """All costs are equal, so the value ratio would be 1; rejected, not processed."""


# ---- invariant violations (should never fire if the theory holds) ---------

class InvariantViolation(ChorefairError):
    """Base for asserted structural properties of the algorithms."""


class InternalInvariant(InvariantViolation):
    """Construction-time self check failed (e.g. initial state not at ratio 1)."""


class MPBViolation(InvariantViolation):
    """An item was about to move to an agent for which it is not pain-per-buck minimal."""


class RaiseOverflow(InvariantViolation):
    """A payment raise touched an item whose payment was not 1."""


class MissingIntermediary(InvariantViolation):
    """No unraised agent holds an item from the least earner's initial bundle."""


class GroupPropertyViolation(InvariantViolation):
    """The agent-group partition lost one of its structural guarantees."""


class LemmaViolation(InvariantViolation):
    """A derived structural fact about a violating pair failed to hold."""


class PreconditionViolated(InvariantViolation):
    """A stage was entered with state that breaks its documented precondition."""


class TierViolation(InvariantViolation):
    """Earnings left the three consecutive integer tiers expected at k = 2."""


# ---- resource caps ----------------------------------------------------------

class IterationCapExceeded(ChorefairError):
    """A loop ran past its defensive iteration bound (or revisited a state)."""


class BudgetExceeded(ChorefairError):
    """Exhaustive enumeration would exceed the configured budget."""


# ---- harness ----------------------------------------------------------------

class ParseError(ChorefairError):
    """An instance or report file is malformed; message carries diagnostics."""
