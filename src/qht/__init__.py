"""Error exponents and finite-blocklength bounds for quantum hypothesis testing.

The library decides between two i.i.d. quantum states using a projection
test built from the pinched null state, evaluates both error
probabilities exactly at finite blocklength, and computes the exponent
functions and the trade-off rate that bound them.
"""

from .config import MAX_TENSOR_DIM
from .errors import (
    DimensionBudgetExceeded,
    DimensionMismatch,
    InvariantViolation,
    NegativeSpectrum,
    NonHermitianInput,
    NonpositiveRate,
    NotPositiveSemidefinite,
    ParseError,
    QhtError,
    RateAboveDivergence,
    RateTooSmallWarning,
    SingularInput,
)
from .exponents import (
    classical_hoeffding,
    classical_psi,
    hoeffding_rate,
    phi,
    phi_bar,
    psi,
    psi_bar,
    psi_bar_values,
    psi_derivatives,
    psi_values,
    relative_entropy,
    solve_rate_parameter,
)
from .finite_n import (
    BoundReport,
    ConjectureReport,
    SteinPoint,
    conjecture_probe,
    stein_trace,
    verify_bounds,
)
from .operators import (
    SpectralDecomposition,
    check_hermitian,
    eigendecompose,
    key_inequality_residual,
    matrix_power,
    min_eigenvalue,
    operator_convexity_gap,
    pinch,
    positive_projection,
    tensor_power,
)
from .pairs import (
    HypothesisPair,
    PRESETS,
    check_density,
    preset_pair,
    random_density,
    random_diagonal_pair,
    random_pair,
    random_unitary,
)
from .serialization import load_pair, pair_from_json, pair_to_json

__version__ = "0.1.0"
