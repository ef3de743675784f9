"""Conditional non-unitary dynamics induced by repeated ancilla measurements.

The core objects: a composite Hamiltonian on system (x) ancilla, the exact
conditional step K(tau) = <0|exp(-i H tau)|0>, the stroboscopic effective
generator H_eff = H_0 - i (tau/2) Gamma it converges to, and the inverse
construction dilating a target H_eff back into a Hermitian composite model.
Units are hbar = 1 throughout; couplings and rates share one inverse-time
unit and times are measured in its inverse.
"""

from .dilation import (
    DilationResult,
    RoundTripReport,
    choose_tau,
    dilate,
    roundtrip_check,
    validate_stroboscopic,
)
from .dynamics import (
    ConditionalState,
    DensityMatrix,
    P_MIN,
    conditional_final_state,
    conditional_trajectory,
    default_time_step,
    evolve_conditional,
    expectation,
    integrate_nonlinear,
    normalize,
)
from .effective import (
    AncillaSpec,
    EffectiveHamiltonian,
    decay_generator,
    derive_effective,
    remove_identity_shift,
)
from .entanglement import (
    BELL_STATES,
    TwoLevelBlockParams,
    bell_fidelity,
    block_decompose,
    block_propagator,
    block_rows,
    concurrence,
    embed_block_state,
    evolve_block_state,
)
from .errors import (
    BadDimensionError,
    NotBlockDiagonalError,
    NotHermitianError,
    NotPSDError,
    NumericalError,
    ProbabilityUnderflowError,
    RoundTripFailureError,
    SiteOutOfRangeError,
    StepTooLargeError,
    StroboscopicRegimeWarning,
    ValidationError,
    ZenonError,
    ZeroAntiHermitianPartError,
)
from .linalg import (
    EigenDecomposition,
    expm,
    hermitian_eig,
    is_hermitian,
    matrix_from_json,
    matrix_to_json,
)
from .protocol import (
    ProtocolConfig,
    TrajectoryEnsemble,
    conditional_survival_curve,
    simulate_conditional,
    simulate_trajectories,
    stroboscopic_error,
)
from .spin_models import (
    AnisotropicParams,
    SymmetricParams,
    build_anisotropic,
    build_symmetric,
    xyz_hamiltonian,
)

__version__ = "0.1.0"
