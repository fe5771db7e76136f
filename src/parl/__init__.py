"""Peer-assisted robotic learning testbed.

Style-disjoint robot agents learn driving torques locally, share semantic
maps and models with a cloud node that augments the data semantically,
labels it by crowdsourcing the local policies, trains a shared policy, and
sends it back for local fine-tuning. The harness compares this against
local-only and centralized imitation learning on identical splits.
"""

from .augment import (
    AugmentationCandidate,
    AugmentStats,
    PlausibilityScorer,
    WhatPredictor,
    WherePredictor,
    augment_semantic,
    fit_scorer,
    fit_what,
    fit_where,
)
from .baselines import (
    baseline_color_jitter,
    baseline_random_resized_crop,
    pooled_style,
    qualitative_table,
)
from .config import ExperimentConfig, parse_config, read_config, render_config, write_config
from .errors import (
    ConfigurationError,
    DegenerateInputError,
    EvaluationError,
    FittingError,
    ParlError,
    RenderError,
    TrainingError,
)
from .harness import ComparisonReport, StageFailure, check_acceptance, run_experiment
from .policy import (
    EvaluationReport,
    FeatureVector,
    PolicyModel,
    crowdsource_labels,
    evaluate,
    featurize,
    fine_tune,
    train,
)
from .protocol import CloudNode, NodeId, RobotNode, SimNetwork, run_round
from .styles import StyleModel, built_in_style, cross_render, fit_style, style_affinity
from .world import (
    AgentProfile,
    ClassId,
    DrivingSample,
    InstanceMap,
    InstanceRecord,
    Provenance,
    Scenario,
    ScenarioGenerator,
    SemanticMap,
    TaskType,
    WorldConfig,
    render,
    segment,
    torque_from_geometry,
)

__version__ = "0.1.0"

__all__ = [
    "AgentProfile",
    "AugmentStats",
    "AugmentationCandidate",
    "ClassId",
    "CloudNode",
    "ComparisonReport",
    "ConfigurationError",
    "DegenerateInputError",
    "DrivingSample",
    "EvaluationError",
    "EvaluationReport",
    "ExperimentConfig",
    "FeatureVector",
    "FittingError",
    "InstanceMap",
    "InstanceRecord",
    "NodeId",
    "ParlError",
    "PlausibilityScorer",
    "PolicyModel",
    "Provenance",
    "RenderError",
    "RobotNode",
    "Scenario",
    "ScenarioGenerator",
    "SemanticMap",
    "SimNetwork",
    "StageFailure",
    "StyleModel",
    "TaskType",
    "TrainingError",
    "WhatPredictor",
    "WherePredictor",
    "WorldConfig",
    "augment_semantic",
    "baseline_color_jitter",
    "baseline_random_resized_crop",
    "built_in_style",
    "check_acceptance",
    "cross_render",
    "crowdsource_labels",
    "evaluate",
    "featurize",
    "fine_tune",
    "fit_scorer",
    "fit_style",
    "fit_what",
    "fit_where",
    "parse_config",
    "pooled_style",
    "qualitative_table",
    "read_config",
    "render",
    "render_config",
    "run_experiment",
    "run_round",
    "segment",
    "style_affinity",
    "torque_from_geometry",
    "train",
    "write_config",
]
