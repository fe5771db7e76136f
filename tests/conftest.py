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
from parl.styles import built_in_style
from parl.world import AgentProfile, TaskType, extract_instances, generate_dataset, segment

settings.register_profile("ci", database=None, deadline=None, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def styles():
    """The built-in styles of agents 0 and 1."""
    return [built_in_style(agent, seed=5) for agent in range(2)]


@pytest.fixture(scope="session")
def profile():
    """The one world regime both agents share."""
    return AgentProfile(curvature_range=(0.05, 0.15), avoid_gap=0.12, turn_right_bias=0.5)


@pytest.fixture(scope="session")
def small_dataset(styles, profile):
    """18 labeled samples for agent 0, six per task."""
    tasks = [task for task in TaskType for _ in range(6)]
    seeds = list(range(100, 100 + len(tasks)))
    return generate_dataset(styles[0], profile, tasks, seeds)


@pytest.fixture(scope="session")
def layouts(styles, small_dataset):
    """The small dataset segmented under its own style, with its instances."""
    semantics = segment([s.scenario for s in small_dataset], styles[0])
    return [(m, extract_instances(m.classes)) for m in semantics]


@pytest.fixture(scope="session")
def predictors(layouts):
    return fit_where(layouts), fit_what(layouts)


@pytest.fixture(scope="session")
def scorer(layouts):
    return fit_scorer(layouts, threshold=0.5, seed=0xD15C)

