"""Exception types shared across the package."""


class HdnormError(Exception):
    """Base class for all package errors."""


class FormatError(HdnormError):
    """A file does not conform to its declared format."""


class ShapeMismatchError(HdnormError):
    """Two maps that must share dimensions do not."""


class EmptyInputError(HdnormError):
    """An operation received no valid pixels / no values."""


class ParameterError(HdnormError, ValueError):
    """An out-of-range or inconsistent parameter."""


class InvalidMapError(HdnormError, ValueError):
    """A map's values or mask are malformed or not finite where valid, or
    a number made from them (an L1 mean, 1 / a pred MAD, an alignment,
    AbsRel, a float32 output) leaves the float range."""


class DegenerateInputError(HdnormError):
    """Every context was filtered out; the loss is undefined."""


class DegenerateAlignmentError(HdnormError):
    """The scale/shift least-squares system is singular (constant prediction)."""


class DivergenceError(HdnormError):
    """No halving of a descent step gave a candidate the loss can evaluate."""

    def __init__(self, step: int):
        super().__init__(step)
        self.step = step

    def __str__(self) -> str:
        return f"no step size gave an evaluable prediction at step {self.step}"
