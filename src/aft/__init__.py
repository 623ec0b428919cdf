"""Exact computational toolkit for fixed points of finite abelian actions.

Submodules:

- ``integermat``: Hermite/Smith normal forms and kernels over Z.
- ``groups``: finite abelian groups, subgroup lattices, characters.
- ``simplicial``: complexes and their subcomplexes, homology over Z and
  F_p, subdivisions.
- ``actions``: simplicial actions, good or not, fixed sets as complexes
  of orbit faces, Lefschetz numbers.
- ``linear``: disk and sphere representation models, stability descent,
  the disk and sphere index theorems.
- ``bounds``: all explicit constants and the Minkowski mod-3 check.
- ``corpus``: curated example spaces, actions and models.
- ``pipeline``: the end-to-end pipeline over a corpus action or model.
- ``suites``: verification batteries.
- ``cli``: the ``aft`` command-line front end.
"""

from .bounds import (
    BoundsConfig,
    C_p_chi,
    P_chi,
    chain_bound,
    chain_bound_oracle,
    cohomology_trivializing_subgroup,
    composite_bound,
    f,
    minkowski_injectivity_check,
)
from .groups import (
    Character,
    FiniteAbelianGroup,
    GroupElement,
    Subgroup,
    all_subgroups,
    crt_power_extract,
    intersect,
    kernel,
    p_part,
)
from .actions import (
    SimplicialAction,
    fixed_subcomplex,
    lefschetz_number,
    validate_good,
)
from .linear import (
    LinearActionModel,
    RealRepresentation,
    Summand,
    descent_to_stable,
    disk_theorem,
    fixed_subspace_dim,
    generic_element,
    is_lambda_stable,
    sphere_theorem,
)
from .simplicial import (
    SimplicialComplex,
    barycentric_subdivision,
    build_complex,
    homology,
)
from .suites import run_suite

__version__ = "0.1.0"
