"""Exact-arithmetic toolkit for reflective modular forms on prime-level lattices."""

from .catalog import Catalog, default_catalog, parse_lattice
from .classify import (
    CaseRecord,
    apply_bounds,
    class_number,
    class_number_rootsystems,
    classify_symbolic,
    enumerate_genera,
    reflective_genera,
    verdict_table,
)
from .classify import classify as classify_prime
from .discforms import (
    DiscriminantForm,
    GenusSymbol,
    genus_symbol,
    parse_genus,
)
from .lattices import Lattice
from .reflcheck import check_candidate, solve_candidates
from .roots import root_components

__version__ = "0.1.0"

__all__ = [
    "CaseRecord",
    "Catalog",
    "DiscriminantForm",
    "GenusSymbol",
    "Lattice",
    "apply_bounds",
    "check_candidate",
    "class_number",
    "class_number_rootsystems",
    "classify_prime",
    "classify_symbolic",
    "default_catalog",
    "enumerate_genera",
    "genus_symbol",
    "parse_genus",
    "parse_lattice",
    "reflective_genera",
    "root_components",
    "solve_candidates",
    "verdict_table",
    "__version__",
]
