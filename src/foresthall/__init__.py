"""Exact computer algebra for colored rooted forests.

Canonical forms and parsing (:mod:`.forest`), admissible cuts and flags
(:mod:`.cuts`), class-indexed enumeration (:mod:`.enumeration`), the Hall
algebra with its Connes-Kreimer-style dual (:mod:`.hall`), graded
noncommutative symmetric and quasisymmetric functions with the maps between
all of these (:mod:`.nsym`, :mod:`.qsym`), executable identity suites
(:mod:`.verify`), and a CLI (:mod:`.cli`).

All coefficients are exact rationals; equality checks are never approximate.
"""

from .cuts import (
    FULL_CUT,
    CutResult,
    count_cut_pairs,
    cut_census,
    enumerate_cuts,
    enumerate_flags,
    flag_counts,
)
from .enumeration import (
    DEFAULT_SIZE_LIMIT,
    SizeLimitError,
    count_forests_of_class,
    forests_of_class,
    trees_of_class,
)
from .forest import (
    EMPTY_FOREST,
    ColorTable,
    Forest,
    ParseError,
    Tree,
    add_classes,
    basis_class,
    direct_sum,
    format_class,
    format_forest,
    format_tree,
    k0_class,
    parse_class,
    parse_forest,
    single_vertex,
    zero_class,
)
from .hall import (
    antipode,
    ck_comul,
    ck_mul,
    counit,
    delta,
    hall_comul,
    hall_mul,
    kappa,
)
from .linear import LinComb, bilinear, tensor, tensor_mul
from .nsym import (
    format_word,
    js,
    nsym_comul,
    nsym_mul,
    parse_word,
    rho,
    rho_js,
    word_degree,
)
from .qsym import (
    composition_degree,
    deconcat,
    format_composition,
    pair,
    parse_composition,
    quasi_shuffle,
    rho_t,
)
from .verify import SUITE_NAMES, run_all, run_suite

__version__ = "0.1.0"

__all__ = [
    "FULL_CUT",
    "CutResult",
    "count_cut_pairs",
    "cut_census",
    "enumerate_cuts",
    "enumerate_flags",
    "flag_counts",
    "DEFAULT_SIZE_LIMIT",
    "SizeLimitError",
    "count_forests_of_class",
    "forests_of_class",
    "trees_of_class",
    "EMPTY_FOREST",
    "ColorTable",
    "Forest",
    "ParseError",
    "Tree",
    "add_classes",
    "basis_class",
    "direct_sum",
    "format_class",
    "format_forest",
    "format_tree",
    "k0_class",
    "parse_class",
    "parse_forest",
    "single_vertex",
    "zero_class",
    "antipode",
    "ck_comul",
    "ck_mul",
    "counit",
    "delta",
    "hall_comul",
    "hall_mul",
    "kappa",
    "LinComb",
    "bilinear",
    "tensor",
    "tensor_mul",
    "format_word",
    "js",
    "nsym_comul",
    "nsym_mul",
    "parse_word",
    "rho",
    "rho_js",
    "word_degree",
    "composition_degree",
    "deconcat",
    "format_composition",
    "pair",
    "parse_composition",
    "quasi_shuffle",
    "rho_t",
    "SUITE_NAMES",
    "run_all",
    "run_suite",
    "__version__",
]
