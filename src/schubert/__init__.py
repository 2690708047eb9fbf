"""
Schubert and skew Schubert polynomials over the symmetric group: rc-graph
and labeled-chain enumeration, normal forms in the coinvariant quotient,
and Littlewood-Richardson structure constants by mutually checking routes.
"""

from types import ModuleType as _ModuleType

from .calc import (
    SchubertExpansion,
    expand_in_schubert_basis,
    lr_coefficients,
    pieri,
    psi_alpha,
    schubert,
    skew,
    skew_expansion,
    verify_corollary,
)
from .chains import (
    LabeledChain,
    chain_from_json_obj,
    chain_monomial,
    chain_to_json_obj,
    increasing_chains,
    increasing_chains_to_w0,
)
from .perms import (
    Perm,
    bruhat_covers,
    bruhat_leq,
    code,
    compose,
    embed,
    identity,
    inverse,
    labeled_edges,
    length,
    longest,
    perm_from_code,
    perm_from_str,
    perm_to_str,
)
from .poly import (
    Poly,
    complete_h,
    elementary,
    h_alpha,
    monomial_key,
    normal_form,
    poly_from_json_obj,
    poly_from_text,
    poly_to_json_obj,
    poly_to_text,
    staircase_exponent,
)
from .rcgraphs import (
    RcGraph,
    chain_of_rcgraph,
    enumerate_rcgraphs,
    is_valid,
    perm_of,
    rcgraph_from_json_obj,
    rcgraph_of_chain,
    rcgraph_to_json_obj,
    render_ascii,
    staircase,
    word,
)

__version__ = "0.1.0"

# the public names are the ones imported above; the submodules they load are not
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
