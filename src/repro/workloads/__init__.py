"""Synthetic workloads: problems, datasets, and step-length trace models."""

from repro.workloads.datasets import DATASETS, DatasetProfile, build_dataset
from repro.workloads.problem import Dataset, Problem
from repro.workloads.traces import StepLengthModel

__all__ = [
    "Problem",
    "Dataset",
    "StepLengthModel",
    "build_dataset",
    "DATASETS",
    "DatasetProfile",
]
