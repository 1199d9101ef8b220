"""Distance to normality for dense complex matrices.

Measures how far a matrix is from the normal matrices (commutator lower
bounds, certified witness upper bounds), builds normal approximants with
finite spectrum or controlled norm, performs spectrum surgery on normal
inputs, and runs the truncation / pseudospectrum / scatter experiments.

The names from nearest and experiments load with their module on first
use (PEP 562) and are then kept in this module's globals, so the CLI starts
without those two modules.  partition and surgery load here because
perfbench's tracer reads them from sys.modules.
"""

from __future__ import annotations

import importlib

from .core import (
    CLUSTER_TOL,
    RECONSTRUCT_TOL,
    SpectralDecomp,
    SpectrumMove,
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
    Oscillator,
    RadialCollapse,
    graph_normal_approx,
    remove_arc,
    remove_region,
    transport,
)

__version__ = "0.1.0"

# name -> the module that defines it, for the names loaded on first use
_LAZY = {
    **dict.fromkeys(("DistanceReport", "commutator_lower_bound", "nearest_normal"), "nearest"),
    **dict.fromkeys((
        "GridSpec", "PseudospectrumReport", "SCATTER_COLUMNS", "TruncationModel",
        "counting_functions", "f_scatter", "laurent_truncation_model", "pseudospectrum",
        "truncate", "truncation_model", "truncation_scaling", "verify_truncation_bounds",
    ), "experiments"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
