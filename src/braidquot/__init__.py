"""Toolkit for the smallest nonabelian quotients of surface braid groups.

Subpackages:

- :mod:`braidquot.fingroup` -- dense finite-group engine (Cayley tables).
- :mod:`braidquot.jn2` -- just-2-step-nilpotent p-groups and their
  classification into the two standard models per class.
- :mod:`braidquot.braid` -- surface braid presentations, reduced relations,
  witness search and the minimal-quotient sweep.
- :mod:`braidquot.oracle` -- independent brute-force cross-checks.
- :mod:`braidquot.cli` -- command-line front end.
"""

from . import errors
from .fingroup import (
    FiniteGroup,
    GroupMap,
    Subgroup,
    alternating,
    cyclic,
    derived_subgroup,
    dicyclic,
    dihedral,
    direct_product,
    from_table,
    is_isomorphic,
    nilpotency_class,
    quotient,
    read_cayley,
    relabel,
    subgroup_generated,
    symmetric,
    to_cayley_text,
    write_cayley,
)
from .jn2 import (
    Jn2Spec,
    SymplecticData,
    classify,
    is_jn2,
    materialize,
    normalize_basis,
    parse_spec,
    symplectic_data,
)
from .braid import (
    Presentation,
    SearchReport,
    SearchStats,
    Witness,
    bellingeri_presentation,
    check_full_quotient,
    check_reduced_witness,
    find_witness,
    minimal_braid_reduced_search,
    predicted_minimum,
    reduced_relations,
    standard_witness,
)
from .oracle import (
    GroupCatalog,
    enumerate_groups_exhaustive,
    is_just_nonabelian,
    nonabelian_catalog_upto,
    normal_subgroups,
)

__all__ = [name for name in dir() if not name.startswith("_")]
