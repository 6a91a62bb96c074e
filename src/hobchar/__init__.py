"""Exact character tables and branching matrices for symmetric and
signed-permutation (hyperoctahedral) groups.

All results are exact integers; every table is cross-checked
by orthogonality relations, a consistency identity between the two
branching routes, and (at small rank) a brute-force oracle over explicitly
enumerated group elements.
"""

import sys

from hobchar.chains import (
    chain_compose,
    hob_chain,
    hob_restriction_matrix,
    method_b_verify,
    sym_chain,
    weyl_matrix,
)
from hobchar.combinatorics import (
    Partition,
    partitions,
    sign_flag_vectors,
)
from hobchar.embedding import (
    fuse_class,
    fusion_map,
    intersection_orders,
    modified_tables,
    permutation_character_F,
)
from hobchar.hyperoct import (
    AlphaSystem,
    SignedSubgroupLabel,
    hob_classes,
    hob_induced_table,
    hob_irreducible_table,
    hob_subgroups,
)
from hobchar.reduction import (
    BranchingMatrix,
    reduce_induced,
    reduce_irreducible,
    verify_consistency,
)
from hobchar.reports import CheckReport
from hobchar.symmetric import (
    sym_classes,
    sym_induced_table,
    sym_irreducible_table,
)
from hobchar.tables import (
    CharacterTable,
    ExactnessError,
    TransitionMatrix,
    weighted_gram_schmidt,
)

__version__ = "0.1.0"


def clear_caches() -> None:
    """Drop all memoized tables (useful before timing runs): every
    function with a ``cache_clear`` defined in a loaded hobchar module."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "hobchar" or name.startswith("hobchar.")):
            continue
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and getattr(value, "__module__", None) == name:
                value.cache_clear()
