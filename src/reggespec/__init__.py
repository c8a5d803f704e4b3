"""Spectra of the Schrodinger operator with spectral-parameter boundary terms.

The library computes and cross-validates the characteristic functions
of -y'' + q y = lam^2 y on (0, a) with boundary conditions linear in
lam at both ends, localizes their zeros, checks the closed-form
identities and asymptotic lattices they satisfy, and runs the inverse
direction: rebuilding characteristic functions from zero sets and
probing the partial-data uniqueness diagnostics.
"""

from .asympt import (
    AsymptoticModel,
    appendix_P,
    asymptotic_model,
    lattice_indices,
    mu_k,
    phi1_eval,
    predicted_lambda,
    recover_alphas,
    residual_tail,
    write_residual_tail_csv,
)
from .charfn import (
    delta,
    delta_dot,
    delta_zero,
    delta_zero_dot,
    energy_identity_residual,
    identity_residual,
    robin_charfn,
    robin_dot,
    wronskian_delta,
)
from .errors import (
    BoundaryZero,
    BranchAmbiguity,
    CountMismatch,
    DegenerateCase,
    DegenerateSigma,
    InconsistentInput,
    InconsistentRealFlag,
    LimitNotConverged,
    MisalignedInput,
    MultiplicityCap,
    NegativeAlpha0,
    NewtonDivergence,
    NoConvergence,
    NonPositiveAlpha,
    NonPositiveLength,
    NumericalError,
    OutOfDomain,
    Overflow,
    ReggeError,
    TruncationDominates,
    ValidationError,
    ZeroAtOrigin,
)
from .model import (
    Potential,
    ReggeProblem,
    Sign,
    dump_problem,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    validate_problem,
)
from .odecore import (
    DEFAULT_STEPS,
    DerivState,
    KernelGrid,
    ScaledState,
    kernel_K,
    solve_phi,
    solve_sc,
    solve_y,
    solve_y_lambda_derivative,
    solve_y_trajectory,
    transform_rep_s,
)
from .partialinv import (
    CriticalDiagnostics,
    DensityReport,
    DeviationReport,
    F_mismatch,
    IndicatorEstimate,
    PartialDiagnostics,
    critical_diagnostics,
    default_radius_schedule,
    density_check,
    f_mismatch_logabs,
    indicator_estimate,
    partial_diagnostics,
    refine_subset,
    sparse_subset,
    weighted_deviation,
    write_critical_csv,
)
from .reconstruct import (
    EvenMinusEvaluator,
    HadamardModel,
    ZeroSet,
    delta0_from_pair,
    even_delta_minus,
    even_minus,
    hadamard_build,
    read_zeroset_csv,
    two_spectra_robin,
    write_zeroset_csv,
)
from .roots import (
    InterlaceReport,
    Rectangle,
    Spectrum,
    SpectrumEntry,
    compute_spectrum,
    find_zeros,
    imaginary_axis_zeros,
    index_eigenvalues,
    interlace_and_signs,
    locate_zeros,
    newton_refine,
    pair_symmetry_check,
    pair_zeros,
    robin_zeros,
    winding_count,
    write_spectrum_csv,
)

__version__ = "0.1.0"
