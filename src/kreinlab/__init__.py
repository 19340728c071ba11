"""kreinlab: layer potentials, spectral boundary maps, and self-adjoint
Laplacian extensions verified on computable model domains."""

from .errors import (
    BackendUnsupported,
    BadNodeCount,
    BracketSingular,
    CountFailed,
    DomainError,
    KreinlabError,
    NearEigenvalue,
    NearSingular,
    QuadratureUnavailable,
    RangeExceeded,
    SpecInvalid,
    TargetTooClose,
)
from .extensions import (
    Extension,
    ExtensionSpec,
    apply_resolvent,
    boundary_residual,
    direct_solve,
    is_nonnegative,
    make_extension,
)
from .geometry import BoundaryGrid, CurveSpec, make_grid
from .kreinformulas import (
    Abstract1D,
    SignLedger,
    abstract_deficiency,
    abstract_krein_check,
    donoghue_m,
    friedrichs_krein_domains,
    herglotz_defect,
    mfunc,
    resolve_sign_conventions,
    smoothing_factorization_check,
    two_extension_transfer,
)
from .layerpot import (
    JUMP_SIGN,
    BoundaryOperator,
    assemble_adjoint_double_layer,
    assemble_single_layer_trace,
    evaluate_potential,
    neumann_trace_of_single_layer,
)
from .oracles import DiskModel, Model1D, disk_mode_dtn, interval_dtn
from .specfun import bessel_j, hankel1, sqrt_upper
from .spectral import SpectrumRequest, eigenvalues, ordering_check
from .traces import gamma_D, gamma_N, green_defect, tau_D, tau_N
from .weyl import BemBackend, dtn, ntd, solve_dirichlet, solve_neumann

__version__ = "0.1.0"
