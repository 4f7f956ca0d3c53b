"""Exact rational computations in infinitesimal symmetric spaces.

Builds the odd part of the classical symmetric pairs, constructs
relatively regular nilpotent elements, completes them to rational sl2
triples, materializes the transverse slice, and canonicalizes regular
orbits through it, with every check done in exact arithmetic.
"""

__version__ = "0.1.0"

from .exact import (
    RatMatrix,
    charpoly,
    inverse,
    kernel_basis,
    matrix_from_text,
    matrix_to_text,
    nilpotency_index,
    pfaffian,
    rank,
    solve,
    solve_unique,
    spans_equal,
)
from .pairs import (
    MAX_SIZE,
    ConstraintViolation,
    Family,
    MembershipError,
    SymmetricPair,
    adjoint,
    apply_theta,
    bracket,
    in_algebra,
    in_eigenspace,
    make_pair,
)
from .nilpotent import (
    NilpotentWitness,
    centralizer,
    closed_form_centralizer,
    is_relatively_regular,
    make_witness,
    regular_nilpotent,
)
from .sl2 import NoTriple, Sl2Triple, complete_triple, verify_triple
from .slice import (
    InvariantVector,
    KostantSlice,
    NotFound,
    SliceDimensionError,
    invariant_length,
    invariants,
    invariants_from_json,
    invariants_to_json,
    invert_on_slice,
    jacobian_rank_at,
    make_slice,
    slice_point,
)
from .matspace import (
    GroupElement,
    RetryExhausted,
    act,
    act_mpq,
    cayley,
    from_matrix_space,
    group_element,
    random_group_element,
    to_matrix_space,
)

__all__ = [name for name in dir() if not name.startswith("_")]
