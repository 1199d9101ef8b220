"""Distance to normality for dense complex matrices.

Measures how far a matrix is from the normal matrices (commutator lower
bounds, certified witness upper bounds), builds normal approximants with
finite spectrum or controlled norm, performs spectrum surgery on normal
inputs, and runs the truncation / pseudospectrum / scatter experiments.
"""

from __future__ import annotations

from .core import (
    CLUSTER_TOL,
    RECONSTRUCT_TOL,
    SpectralDecomp,
    adjoint,
    as_cmatrix,
    hermitian_part,
    normal_spectral_decomp,
    normality_defect,
    operator_norm,
    schatten_norm,
    self_commutator,
)
from .errors import (
    DomainError,
    EmptyTruncation,
    NotNormal,
    SpectrumOffContour,
    UncoveredSpectrum,
)
from .experiments import (
    GridSpec,
    PseudospectrumReport,
    SCATTER_COLUMNS,
    TruncationModel,
    counting_functions,
    f_scatter,
    laurent_truncation_model,
    pseudospectrum,
    truncate,
    truncation_model,
    truncation_scaling,
    verify_truncation_bounds,
)
from .fileio import (
    ARTIFACT_VERSION,
    load_matrix,
    save_matrix,
    write_csv,
    write_report,
)
from .gallery import (
    EnsembleSpec,
    almost_commuting_pair,
    laurent_multiplication,
    materialize,
    perturbed_normal,
    shift_example,
)
from .nearest import (
    DistanceReport,
    commutator_lower_bound,
    nearest_normal,
)
from .partition import (
    Cover,
    FiniteSpectrumApprox,
    OpenDisc,
    OpenSquare,
    ResolutionOfIdentity,
    finite_spectrum_approx,
    resolution_of_identity,
    square_cover,
)
from .surgery import (
    Affine,
    BoundaryPush,
    ChordSnap,
    GraphReport,
    Oscillator,
    RadialCollapse,
    SurgeryResult,
    graph_normal_approx,
    remove_arc,
    remove_region,
    transport,
)

__version__ = "0.1.0"
