"""Exact determinants of block matrices with partially commuting blocks."""

from .conditions import (
    Condition,
    complete_condition,
    cond_col_permute,
    cond_f,
    cond_f_down,
    cond_f_side,
    cond_kappa,
    cond_named,
    cond_t_col,
    cond_t_row,
    cond_transpose,
    cond_union,
    empty_condition,
    family_condition,
    format_condition,
    is_subgraph,
    matrix_satisfies,
)
from .matrix import (
    BlockMatrix,
    Matrix,
    MatrixFormatError,
    block_view,
    commutes,
    det_commutative,
    format_block_matrix,
    format_matrix,
    parse_block_matrix,
    parse_matrix,
    signed_permutations,
)
from .ncdet import (
    BourbakiChecks,
    BourbakiTrace,
    bourbaki_trace,
    cofactor_column_check,
    nc_cofactor,
    nc_first_row_cofactors,
    nc_minor_det,
    nc_row_det,
)
from .ring import (
    IntegerRing,
    PolynomialRing,
    PrimeField,
    Ring,
    RingMismatchError,
    RingValue,
    ZZ,
    parse_ring,
    poly_degree,
    poly_is_monic,
)
from .traces import (
    check_colswap_identity,
    check_rowswap_identity,
    check_transpose_identity,
    symbolic_row_det,
    word_normal_form,
)
from .verify import (
    IdentityCheck,
    OptimalityScanReport,
    Size2Classification,
    VerificationReport,
    builtin_matrix,
    check_identity,
    classify_size2,
    gen_satisfying,
    optimality_scan,
    run_campaign,
    silvester_check,
    trial_seed,
)

__version__ = "0.1.0"
