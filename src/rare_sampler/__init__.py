"""Adaptive multifidelity sampling for rare-failure discovery and unbiased
rate estimation over a finite pool of embedding points."""

from .acquisition import (PendingSet, acquisition_J, forward_point_variance,
                          point_variance_beta, select_batch)
from .baselines import (CeState, gaussian_pdf_scores, mc_scores, random_acquisition,
                        run_cross_entropy, scores_from_csv)
from .clustering import (ClusterAssignment, cluster_with_merges, hausdorff_distance,
                         kmeans, scale_points)
from .driver import (BatchRecord, ExperimentResult, RunConfig, run_bams_batch,
                     run_experiment, run_random_batch)
from .errors import (ConfigError, EmptySelectionError, InvalidInputError,
                     NumericalError, OracleError, RareSamplerError)
from .estimator import (FailureField, bivariate_normal_cdf, estimator_variance_exact,
                        failure_prob, std_normal_cdf, variance_upper_bound)
from .evaluation import (RateReport, ScoreVector, SplittingBound, importance_scores,
                         is_rate_trial, recall_at_budget, repeated_is_trials,
                         retention_recall_curve, splitting_bound)
from .gp import (GpHyperparams, PosteriorState, TrainOptions, fit_posterior,
                 marginal_log_likelihood, matern25_kernel, multifidelity_kernel,
                 posterior_cross_cov, posterior_mean_var, train_hyperparameters)
from .oracles import CsvOracle, ExternalOracle
from .pool import AugmentedInput, EmbeddingPool, EvaluationLog, FidelityConfig
from .synthetic import (SyntheticOracle, SyntheticSpec, generate_pool,
                        ground_truth_labels, metric_level0)

__version__ = "0.1.0"
