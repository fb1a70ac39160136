"""Information-leakage analysis for shuffle-based anonymization.

Exact oracles at small scale, seeded Monte Carlo estimators at large
scale, closed-form leading rates, and local-DP-derived bounds for the
position and value of a target user's message in a shuffled batch.
"""

from .asymptotics import (
    AsymptoticTerm,
    clone_message_bound,
    input_mi_dp_bound,
    mean_chi2,
    message_mi_expansion,
    optimal_cover,
    position_mi_dp_bound,
    position_mi_expansion,
    signal_rate,
)
from .errors import (
    AbsoluteContinuityError,
    InvalidInputError,
    InvalidParameterError,
    ResourceLimitError,
    ShuffleLeakError,
)
from .exact import (
    input_mi_fixed_others,
    input_mi_iid_others,
    input_mi_shuffle_only,
    matched_message_mi,
    message_mi_exact,
    message_minus_position_mi,
    position_mi_exact,
    position_mi_fixed_inputs,
)
from .mechanisms import (
    BOT,
    BlanketDecomposition,
    Randomizer,
    blanket_of_randomizer,
    ldp_epsilon,
    make_krr,
)
from .montecarlo import (
    EstimatorResult,
    estimate_input_mi,
    estimate_message_mi,
    estimate_position_mi,
)
from .probability import (
    Categorical,
    align,
    chi2_divergence,
    entropy,
    kl_divergence,
    make_uniform,
    make_zipf,
    split_support,
)
from .shuffle import (
    ShuffleSample,
    position_posterior,
    sample_shuffle_only,
)

__version__ = "0.1.0"
