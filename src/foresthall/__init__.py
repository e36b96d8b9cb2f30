"""Exact computer algebra for colored rooted forests.

Canonical forms and parsing (:mod:`.forest`), admissible cuts
(:mod:`.cuts`), class-indexed enumeration (:mod:`.enumeration`), the Hall
algebra (:mod:`.hall`), graded noncommutative symmetric and quasisymmetric
functions with the maps between all of these (:mod:`.nsym`, :mod:`.qsym`),
executable identity suites (:mod:`.verify`), and a CLI (:mod:`.cli`).

All coefficients are exact rationals; equality checks are never approximate.
"""

from . import cuts, enumeration, forest, hall, linear, nsym, qsym, verify
from .cuts import *
from .enumeration import *
from .forest import *
from .hall import *
from .linear import *
from .nsym import *
from .qsym import *
from .verify import *

__version__ = "0.1.0"

_MODULES = (cuts, enumeration, forest, hall, linear, nsym, qsym, verify)


def clear_caches() -> None:
    """Empty every memo of the package's modules and the intern table of
    words and compositions, releasing what they hold.

    The memos and that table are unbounded, so a long session grows until
    this is called.  Results are unchanged afterwards; they are only
    recomputed.  The tables of trees and forests are weak: each tree or
    forest leaves its table once nothing else holds it, and one still held
    stays the object of its class.
    """
    forest._WORDS.clear()
    for module in _MODULES:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


__all__ = [name for module in _MODULES for name in module.__all__] + [
    "clear_caches",
    "__version__",
]
