"""Shared fixtures: a small two-agent world and a reusable dataset.

With CI set in the environment, Hypothesis runs under the `ci` profile: no
example database (a shared runner starts clean anyway), no deadline (a slow
runner must not fail a property test on time alone) and the reproduction
blob printed with every failure, so a failure seen once can be replayed.
"""

import os

import pytest
from hypothesis import settings

from parl.augment import fit_scorer, fit_what, fit_where
from parl.styles import styles_for_agents
from parl.world import (
    AgentProfile,
    ScenarioGenerator,
    TaskType,
    extract_instances,
    segment,
)

settings.register_profile("ci", database=None, deadline=None, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def generator():
    styles = styles_for_agents(range(2), seed=5)
    profile = AgentProfile(curvature_range=(0.05, 0.15), avoid_gap=0.12, turn_right_bias=0.5)
    return ScenarioGenerator(styles, {sid: profile for sid in styles})


@pytest.fixture(scope="session")
def small_dataset(generator):
    """18 labeled samples for agent 0, six per task."""
    tasks = [task for task in TaskType for _ in range(6)]
    seeds = list(range(100, 100 + len(tasks)))
    return generator.generate_dataset(0, tasks, seeds)


@pytest.fixture(scope="session")
def layouts(generator, small_dataset):
    """The small dataset segmented under its own style, with its instances."""
    style = generator.styles[0]
    semantics = segment([s.scenario for s in small_dataset], style)
    return [(m, extract_instances(m.classes)) for m in semantics]


@pytest.fixture(scope="session")
def predictors(layouts):
    return fit_where(layouts), fit_what(layouts)


@pytest.fixture(scope="session")
def scorer(layouts):
    return fit_scorer(layouts, threshold=0.5, seed=0xD15C)

