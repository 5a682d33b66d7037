"""detbal: verification toolkit for quantum detailed balance in finite dimension.

The package decides whether a quantum channel is balanced with respect to a
faithful state, using several independent characterizations (dual maps,
modular commutation, two-copy correlation identities, mirror operators) and
cross-checking them against each other.  Everything is finite-dimensional
and numpy-backed.

The public names are exactly the ones imported below from the submodules;
__all__ is derived from them.
"""

from types import ModuleType as _ModuleType

from .balance import (
    MODE_CP,
    MODE_POSITIVITY,
    BalanceReport,
    ClassicalChain,
    check_db2_definition,
    check_db2_entangled,
    check_db2_modular,
    check_db2_tfd,
    check_sqdb_definition,
    check_sqdb_entangled,
    check_sqdb_tfd,
    classical_detailed_balance,
    classical_phi_balance,
    delta_commutator_residual,
    in_deadband,
    make_chain,
    require_dynamics,
    run_report,
)
from .duals import (
    ReversingOperation,
    bar_map,
    hs_adjoint,
    kms_dual,
    make_reversing,
    modular_power,
    rho_dual,
    theta_conjugate,
    tilde,
    trace_dual,
    transpose_reversing,
)
from .errors import (
    DetbalError,
    DimensionMismatch,
    InputNotDynamics,
    NonUnitary,
    NotDensity,
    NotHermitian,
    NotInvertible,
    NotInvolutive,
    NotStochastic,
    SchemaError,
)
from .generators import (
    cycle_chain,
    degenerate_db2_channel,
    gad_kraus,
    gad_sqdb_channel,
    metropolis_chain,
    random_density,
    random_unital_channel,
    random_unital_kraus,
    random_unitary,
    schur_db2_channel,
    schur_kraus,
    schur_multiplier_matrix,
    symmetrized_sqdb_channel,
)
from .linalg import (
    DEFAULT_TOL,
    CheckResult,
    Tolerance,
    as_matrix,
    hermitian_eig,
    mat_power,
    require_hermitian,
)
from .states import (
    DensityMatrix,
    Purification,
    expectation,
    make_density,
    marginals_check,
    omega_eval,
    purify,
    theta_eval,
)
from .superop import (
    ChoiMatrix,
    KrausChannel,
    SuperOperator,
    choi,
    from_kraus,
    is_completely_positive,
    is_hermitian_map,
    is_positive_map,
    is_unital,
    make_kraus,
    pi_rep,
    unvec,
    vec,
)

__version__ = "0.1.0"

# every name imported here is public, and only those
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
