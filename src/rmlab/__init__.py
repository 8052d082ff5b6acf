"""rmlab: a synthetic lab for studying text-only shortcut learning in
multimodal reward models, and for training shortcut-aware ones."""

from .envs import (DirectionRule, EnvironmentFamily, EnvironmentSpec, PreferenceSample,
                   Dataset, default_family, sample_env)
from .net import NetDims, RewardNet, batch_scores, batch_pair_grads, fd_check
from .training import TrainConfig, TrainRun, sfc, train
from .evaluation import accuracy, gen_matrix, sfd_report, sfc_rho_diagnostic
from .bestofn import (CandidatePools, simulated_judge, make_pools, score_pool,
                      bon_exhaustive, bon_estimates, bon_fast, bon_mc_check, bon_curve)

__version__ = "0.1.0"
