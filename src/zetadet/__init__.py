"""zetadet: zeta-regularized determinants, eta invariants, and refined torsion
for operators with explicitly known discrete spectra."""

from .complexcut import CutAngle, log_cut, pow_cut
from .config import DEFAULT_TOLERANCES, Tolerances
from .circle import (
    CircleModel,
    ConnectionFamily,
    HolomorphyReport,
    TorsionReport,
    TrsReport,
    arg_class,
    arg_derivative_check,
    build_from_monodromy,
    build_rank1,
    eta_variation_check,
    holomorphy_scan,
    monodromy,
    ray_singer_torsion,
    refined_torsion,
    torsion_ldet,
    trs_comparison,
)
from .determinant import (
    DetEtaReport,
    LDetResult,
    SymmetricDetReport,
    angle_shift_count,
    graded_ldet,
    ldet,
    pick_det_eta_cut,
    symmetric_spectrum_det,
    verify_det_eta,
    verify_det_eta_upper,
    verify_spectrum,
)
from .errors import (
    DomainError,
    EigenFailureError,
    HypothesisViolatedError,
    InfiniteCrossingError,
    NonAcyclicError,
    NotAgmonError,
    NotSymmetricError,
    OnCutError,
    PoleError,
    RealityViolatedError,
    SchemaError,
    ZeroInputError,
    ZetaDetError,
)
from .spectrum import (
    AgmonCertificate,
    DirectSum,
    Eigenvalue,
    Finite,
    GradedSpectrum,
    HermQuadLattice,
    Lattice,
    QuadLattice,
    Restricted,
    Spectrum,
    certify_agmon,
    imaginary_axis_counts,
    is_symmetric_about_real_axis,
    negate_spectrum,
    square_spectrum,
)
from .zetafun import (
    ZetaResult,
    eta_function,
    eta_invariant,
    hurwitz_zeta,
    hurwitz_zeta_ds0,
    spectral_zeta,
    zeta_at_zero,
    zeta_ds_at_zero,
)

__version__ = "0.1.0"
