"""Absolute-value preconditioned MINRES for complex-shifted Laplacians.

Solves (K + (alpha + beta i) I) z = f on the unit square by rewriting it as
a real symmetric indefinite block system and preconditioning with the
matrix absolute value of the block operator (or its coefficient-averaged
variant), applied in O(M log M) through discrete sine transforms.
"""

from .bench import (ExperimentSpec, RandomStream, ReportRow, emit_report,
                    generate_rhs, run_experiment, solve_shifted)
from .dst import SineTransform
from .grid import (CoefficientField, GridSpec, StencilOperator,
                   assemble_laplacian_2d_constant, assemble_laplacian_2d_variable,
                   constant_coefficient, laplacian_eigenvalues,
                   separable_quadratic_coefficient, smallest_laplacian_eigenvalue)
from .minres import SolveReport, SolverConfig, bound_iterations, minres_solve
from .precond import SpectralPreconditioner, build_averaged, build_ideal
from .saddle import SaddleOperator, Shift, real_to_complex, saddle_rhs
from .spectral import (BoundSet, SpectrumCertificate, abs_block_2x2, compute_bounds,
                       iteration_bound, verify_sandwich, verify_spectrum)

__version__ = "0.1.0"

__all__ = [
    "CoefficientField", "ExperimentSpec", "GridSpec", "RandomStream",
    "ReportRow", "SaddleOperator", "Shift", "SineTransform", "SolveReport",
    "SolverConfig", "SpectralPreconditioner", "SpectrumCertificate", "BoundSet",
    "StencilOperator", "abs_block_2x2", "assemble_laplacian_2d_constant",
    "assemble_laplacian_2d_variable", "bound_iterations", "build_averaged",
    "build_ideal", "constant_coefficient", "emit_report", "generate_rhs",
    "iteration_bound", "laplacian_eigenvalues", "minres_solve", "real_to_complex",
    "run_experiment", "saddle_rhs", "separable_quadratic_coefficient",
    "smallest_laplacian_eigenvalue", "solve_shifted", "verify_sandwich", "verify_spectrum",
]
