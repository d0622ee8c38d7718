"""Exact combinatorics of complex projective line arrangements.

Arithmetic in cyclotomic fields, incidence structures and their
automorphisms, torsion characters with the inner-cyclic tests, exact
realizations, generic triangle gluings, and the ledgered invariant with
its Zariski-pair certificates.
"""

from ._kernel import BACKEND
from .characters import Character, is_inner_cyclic_def, is_inner_cyclic_remark
from .combinatorics import (
    Combinatorics,
    NoTriangleError,
    Triangle,
    is_isomorphic,
    ordered_equal,
    triangle_cycle,
)
from .cyclotomic import CycloNum, format_cyclo, parse_cyclo
from .gluing import (
    GluingSearchExhausted,
    GluingSpec,
    check_generic,
    check_gluing,
    find_generic_gluing,
    glue_arrangements,
    glue_characters,
    glue_combinatorics,
)
from .invariant import (
    Ledger,
    LedgerEntry,
    ZariskiVerdict,
    detect_zariski,
    invariant_of_conjugate,
    invariant_of_glued,
)
from .realization import (
    Arrangement,
    ProjLine,
    ProjMap,
    ProjPoint,
    apply_map,
    conjugate_arrangement,
    derive_combinatorics,
    intersect,
    rigidify,
)

__version__ = "0.1.0"
