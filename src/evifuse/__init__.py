"""Uncertainty-aware incomplete multi-view classification.

Pipeline pieces: multi-view dataset handling with controlled missingness,
neighbor-conditioned Gaussian imputation with multiple completions,
per-view evidential classifiers trained under a multi-task objective,
belief-mass fusion across views, and vote-based prediction with
uncertainty reporting.
"""

from evifuse.dataset import (
    MissingnessSpec,
    MultiViewDataset,
    SplitSpec,
    generate_missing_mask,
    load_dataset,
    split,
    zscore_fit_transform,
)
from evifuse.evidential import AnnealSchedule, SubjectiveOpinion, anneal_lambda
from evifuse.fusion import FusionConflictError
from evifuse.imputer import CompletionSet, sample_completions
from evifuse.network import Adam, EvidenceNetwork
from evifuse.predictor import evaluate, predict_sample, stability_experiment
from evifuse.trainer import TrainConfig, TrainedModel, load_model, save_model, train

__version__ = "0.1.0"

__all__ = [
    "AnnealSchedule",
    "Adam",
    "CompletionSet",
    "EvidenceNetwork",
    "FusionConflictError",
    "MissingnessSpec",
    "MultiViewDataset",
    "SplitSpec",
    "SubjectiveOpinion",
    "TrainConfig",
    "TrainedModel",
    "anneal_lambda",
    "evaluate",
    "generate_missing_mask",
    "load_dataset",
    "load_model",
    "predict_sample",
    "sample_completions",
    "save_model",
    "split",
    "stability_experiment",
    "train",
    "zscore_fit_transform",
]
