"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed user input (bad JSON, unknown labels, wrong shapes)."""


class MismatchError(InputError):
    """Operands belong to different hyperfields or ground sets."""


class InvalidDualPairError(ValueError):
    """Circuit/cocircuit input does not form a dual pair."""


class RatioInconsistencyError(ValueError):
    """Cocircuit ratios disagree across defining choices."""


class ConsistencyError(RuntimeError):
    """Two checkers that must agree produced different verdicts."""
