"""Sparse partially linear Cox regression with a small neural risk term.

The hazard is modeled as baseline * exp(beta'x + g(z)): a SCAD-penalized
linear term over the x covariates fitted by coordinate descent, and a
small dropout-regularized ReLU network g over the z covariates trained by
Adam on the partial-likelihood loss, alternating until both stabilize.
"""

from .coordinate_descent import cd_fit
from .errors import NumericalDivergence
from .estimator import (FitConfig, FittedModel, fit, model_from_dict,
                        model_to_dict, predict_eta, tune_architecture,
                        tune_lambda)
from .network import (Network, NetworkArch, adam_fit, center, forward,
                      init_network, network_from_dict, network_to_dict,
                      zero_network)
from .scad import scad_threshold, scad_value
from .simulation import (ReplicateRow, SelectionRow, SimConfig,
                         SimulatedData, c_index, calibrate_censoring, g0_eval,
                         gen_beta0, gen_covariates, gen_survival,
                         run_experiment, selection_metrics, simulate_dataset)
from .survival import SurvivalDataset, cox_terms, stratified_split, subset

__version__ = "0.1.0"
