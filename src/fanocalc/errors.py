"""Exception hierarchy shared across the package."""


class FanoCalcError(Exception):
    """Base class for all domain errors raised by this package."""


class UnsupportedDimensionError(FanoCalcError):
    """Requested construction falls outside the supported dimension range."""


class GeometryError(FanoCalcError):
    """A variety model or divisor class violates a structural constraint."""


class ForeignClassError(FanoCalcError):
    """A divisor class was used with a model it does not belong to."""


class UnknownSymbolError(FanoCalcError):
    """An expression refers to a symbol outside the model's basis."""


class DegreeError(FanoCalcError):
    """An expression is not homogeneous of the required degree."""


class ParseError(FanoCalcError):
    """Syntax error in an expression, recipe or family identifier.

    Carries the byte offset of the offending position within the input.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.message = message
        self.offset = offset


class UnknownFamilyError(FanoCalcError):
    """Family identifier not present in the catalog."""


class NoRecipeError(FanoCalcError):
    """No construction recipe is curated for the requested family."""


class InconsistentModelError(FanoCalcError):
    """A numeric check contradicts a structural fact the model must satisfy."""
