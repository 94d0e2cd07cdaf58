"""Perturbation analysis of double eigenvalues of complex matrix families.

Detection and classification of diabolic (semisimple) and exceptional
(defective) points, Jordan chains and bi-orthonormal frames, first-order
eigenvalue-surface asymptotics, crossing/avoided-crossing classification,
eigenvalue-trajectory tracing, and a crystal-optics front end.
"""

from . import (
    cli,
    crystal_optics,
    degeneracy,
    dp_asymptotics,
    ep_asymptotics,
    errors,
    family,
    numkit,
    pairmodel,
)
from .degeneracy import (
    DPFrame,
    JordanChain,
    classify,
    codimension,
    dp_frame,
    dp_frame_of,
    find_double_eigenvalues,
    find_ep,
    jordan_chain,
    jordan_chain_of,
)
from .dp_asymptotics import (
    DPLocalModel,
    avoided_crossing_1p,
    dp_sensitivities,
    one_param_slopes,
    persistence_conditions,
    reduced_problem,
    split_multiparam,
    surface_classification_2p,
)
from .ep_asymptotics import (
    EPLocalModel,
    LoopSpec,
    branch_cuts,
    complex_plane_conic,
    cross_section,
    curve_split,
    eigenvalue_pair,
    loop_trajectory,
    sensitivities,
    surface_eval,
    tangency_conditions,
)
from .family import (
    DirectionalCurve,
    MatrixFamily,
    PolynomialFamily,
    derivative,
    evaluate,
    evaluate_many,
    parse_family,
    second_derivative,
    taylor_along_curve,
)
from .numkit import eig_all, hermitian_inner, null_vector, rank_at, solve_on_complement
from .pairmodel import PairSheets, sheets

__version__ = "0.1.0"
