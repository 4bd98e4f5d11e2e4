"""bellsim: exact four-mode boson algebra plus a truncated Fock-space
simulator for optical Bell-inequality experiments."""

__version__ = "0.1.0"

from .algebra import (
    A,
    B,
    C,
    BasisElement,
    Kind,
    QuadOp,
    commutator,
    dagger,
    hermitian,
    verify_closure,
    verify_structure_constants,
)
from .adjoint import FloatOp, ad_matrix, conjugate
from .catalog import catalog, dump_catalog, names
from .fock import (
    EvolveError,
    FockBasis,
    SparseOperator,
    StateVector,
    evolve,
    expect_product,
    fock_state,
    get_basis,
    leakage,
    matrix,
    project_pi,
    vacuum,
)
from .experiments import (
    CHSH_MAXIMIZER,
    ChshAngles,
    ChshReport,
    ConfigError,
    CorrelationReport,
    ExperimentSpec,
    chsh,
    chsh_grid_search,
    correlation,
    correlation_conditioned,
    correlation_raw,
    horne_spec,
    ideal_spec,
    ou_mandel_spec,
    run,
    scan,
    verify_rotation_identity,
)

__all__ = [name for name in dir() if not name.startswith("_")]
