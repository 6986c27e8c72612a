"""Datasets: synthetic CTDG generators, container, and negatives."""

from .analysis import WorkloadProfile, batch_duplication_ratio, profile_dataset
from .dataset import TemporalDataset, available_datasets, get_dataset
from .negative import NegativeSampler
from .synthetic import (
    derive_rng,
    DATASETS,
    GeneratorSpec,
    generate_edges,
    generate_features,
    generate_labels,
)

__all__ = [
    "TemporalDataset",
    "WorkloadProfile",
    "batch_duplication_ratio",
    "profile_dataset",
    "available_datasets",
    "get_dataset",
    "NegativeSampler",
    "DATASETS",
    "GeneratorSpec",
    "derive_rng",
    "generate_edges",
    "generate_features",
    "generate_labels",
]
