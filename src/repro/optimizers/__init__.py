"""Configuration optimizers: SMAC, GP-BO, DDPG, and random search."""

from repro.optimizers.acquisition import expected_improvement
from repro.optimizers.base import Optimizer, RandomSearchOptimizer
from repro.optimizers.ddpg import DDPGOptimizer
from repro.optimizers.encoding import SpaceEncoding
from repro.optimizers.forest import RandomForestRegressor, RegressionTree
from repro.optimizers.gp import GaussianProcess
from repro.optimizers.gpbo import GPBOOptimizer
from repro.optimizers.smac import SMACOptimizer

#: Registry used by experiments and the CLI.
OPTIMIZERS = {
    "smac": SMACOptimizer,
    "gp-bo": GPBOOptimizer,
    "ddpg": DDPGOptimizer,
    "random": RandomSearchOptimizer,
}


def make_optimizer(name: str, space, seed: int = 0, **kwargs):
    """Instantiate an optimizer from the registry by name."""
    key = name.lower()
    if key not in OPTIMIZERS:
        raise KeyError(f"unknown optimizer {name!r}; available: {sorted(OPTIMIZERS)}")
    return OPTIMIZERS[key](space, seed=seed, **kwargs)


__all__ = [
    "DDPGOptimizer",
    "GPBOOptimizer",
    "GaussianProcess",
    "OPTIMIZERS",
    "Optimizer",
    "RandomForestRegressor",
    "RandomSearchOptimizer",
    "RegressionTree",
    "SMACOptimizer",
    "SpaceEncoding",
    "expected_improvement",
    "make_optimizer",
]
