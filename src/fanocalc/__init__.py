"""Exact intersection numbers and anticanonical Seshadri constants for
Fano threefolds."""

from .catalog import (
    Catalog,
    FamilyRecipe,
    FanoFamilyRecord,
    RealizedFamily,
    get_family,
    has_recipe,
    list_families,
    load_catalog,
    realize_recipe,
)
from .classify import (
    ClassificationOutcome,
    EpsilonResult,
    GeneralBound,
    Splitting,
    VerificationReport,
    classify_splitting,
    complete_intersection_check,
    dp_surface_epsilon,
    epsilon_general,
    epsilon_of_family,
    families_with_dp_fibration,
    fibration_degree,
    pencil_check,
    verify_paper,
)
from .errors import (
    DegreeError,
    FanoCalcError,
    ForeignClassError,
    GeometryError,
    InconsistentModelError,
    NoRecipeError,
    ParseError,
    UnknownFamilyError,
    UnknownSymbolError,
    UnsupportedDimensionError,
)
from .parser import (
    FamilyId,
    parse_class_expr,
    parse_family_id,
    parse_recipe,
    pretty_print,
)
from .ring import (
    DivisorClass,
    IntersectionForm,
    VarietyModel,
    intersection_number,
    make_blowup,
    make_del_pezzo_threefold,
    make_divisor_in,
    make_double_cover,
    make_product,
    make_projective_bundle,
    make_projective_space,
    model_from_recipe,
)

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
