"""Bayesian inference of k-th order Markov chains from discrete symbol data:
parameter estimation with full marginal densities, model-order comparison,
and entropy-rate estimation via partition-function derivatives."""

from .comparison import (
    OrderPosterior,
    compare_penalized,
    compare_uniform,
    free_params,
    map_order,
)
from .core import (
    Alphabet,
    CountTable,
    HyperTable,
    SymbolSequence,
    count_words,
    hyper_from_fake_counts,
    lower_order_counts,
    read_sequence,
    uniform_hyper,
    word_strings,
)
from .entropy import (
    WordConditional,
    energy_moments,
    energy_moments_of,
    hmu_of,
    kl_of,
    r_from,
    weighted_energy,
)
from .inference import (
    confidence_region,
    log_evidence,
    log_evidences,
    log_predictive,
    marginal,
    posterior,
    posterior_mean,
    posterior_variance,
    sample_posterior,
)
from .processes import (
    SNS_ENTROPY_RATE,
    LabeledHMM,
    average_counts,
    even_process,
    golden_mean,
    load_hmm,
    markov_approximation,
    sample_sequence,
    sns,
    stationary,
    true_entropy_rate,
    word_distribution,
    word_probability,
)
from .special import (
    BetaParams,
    digamma,
    inv_reg_inc_beta,
    log_gamma,
    log_gamma_diff,
    reg_inc_beta,
    trigamma,
)

__version__ = "0.1.0"
