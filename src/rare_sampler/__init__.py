"""Adaptive multifidelity sampling for rare-failure discovery and unbiased
rate estimation over a finite pool of embedding points."""

from .acquisition import PendingSet, acquisition_J, point_variance_beta, select_batch
from .baselines import (CeState, ce_picks, elite_gaussian, gaussian_pdf_scores,
                        mc_scores, random_acquisition, scores_from_csv)
from .clustering import (ClusterAssignment, cluster_with_merges, hausdorff_distance,
                         kmeans, scale_points)
from .driver import (BatchRecord, ExperimentResult, RunConfig, run_bams_batch,
                     run_experiment)
from .errors import (ConfigError, InvalidInputError, NumericalError, OracleError,
                     RareSamplerError)
from .estimator import (FailureField, bivariate_normal_cdf, estimator_variance_exact,
                        failure_prob, variance_upper_bound)
from .evaluation import (IsOptions, RateReport, ScoreVector, SplittingBound,
                         importance_scores, recall_at_budget, repeated_is_trials,
                         retention_recall_curve, splitting_bound)
from .gp import (GpHyperparams, PosteriorState, fit_posterior, marginal_log_likelihood,
                 posterior_mean_var, train_hyperparameters)
from .oracles import CsvOracle, ExternalOracle
from .pool import EmbeddingPool, EvaluationLog, FidelityConfig
from .synthetic import (SyntheticOracle, SyntheticSpec, generate_pool,
                        ground_truth_labels, metric_level0)

__version__ = "0.1.0"
