"""Semiclassical propagation on the line: classical manifold transport,
a Fourier-multiplier dispersion correction, and an exact grid reference."""

from .errors import (
    SemiwkbError,
    GridMismatchError,
    BandwidthError,
    BoundaryMassError,
    CausticError,
    CausticDomainError,
    NotHyperbolicError,
    DegenerateLinesError,
    OutOfDomainError,
    ConvergenceError,
    StepSizeError,
    UnsupportedOracleError,
    InvalidInputError,
    SpecError,
    SpecNotFoundError,
)
from .grids import (
    GridSpec,
    WaveFunction,
    hbar_fourier_transform,
    overlap,
    band_mass,
    refine_wavefunction,
    edge_mass_fraction,
    spectral_edge_fraction,
)
from .hamiltonians import (
    PhasePoint,
    QuadraticPhase,
    FreeParticle,
    IntegrableMomentum,
    ParabolicBarrier,
    KickedHarmonic,
)
from .dynamics import (
    FlowResult,
    FlowBundle,
    flow,
    flow_bundle,
    period_tangent,
    lyapunov_exponent,
    ehrenfest_time,
    hyperbolic_subspaces,
)
from .transport import (
    TrajectoryBundle,
    TransportMap,
    build_bundle,
    build_transport_map,
    refined_transport_map,
    invert_transport,
    evolved_phase,
    transport_operator,
    transport_operator_adjoint,
)
from .metaplectic import (
    PropagationResult,
    gaussian_profile,
    profile_for_slope,
    center_kernel,
    apply_metaplectic,
    propagate_extended_wkb,
    propagate_thawed_gaussian,
    backward_wkb_test,
    BackwardTestResult,
)
from .reference import (
    ExactResult,
    exact_state,
    fidelity,
    expectation_q,
    expectation_p,
)
from .experiments import (
    Case,
    ExperimentSpec,
    build_model,
    initial_coherent_state,
    load_baselines,
    write_table,
    read_table,
    run_experiment,
    builtin_specs,
    get_builtin_spec,
    load_spec_file,
    resolve_outdir,
)

__version__ = "0.1.0"
