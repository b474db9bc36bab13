"""Random surfaces: height functions on Z^m with a height-axis potential.

Submodules:

* ``lattice``    finite regions of Z^m, adjacency, distances, boundaries
* ``heights``    height functions, extendability, extension sets
* ``potential``  the random environment on height-axis edges
* ``gibbs``      quenched and annealed Gibbs measures, structure identities
* ``sampler``    exact sampling and checkerboard heat-bath sweeps, with
                 the exact single-site kernel and coupled ordered pairs
                 run on the sweep engine
* ``analysis``   stochastic dominance, martingale audits, concentration
                 experiments
* ``cli``        the ``randomsurfaces`` command line tool
"""

from . import analysis, gibbs, heights, lattice, potential, sampler
from .heights import (
    ExtensionSet,
    HeightFunction,
    NoExtensionError,
    enumerate_extensions,
    kirszbraun_extendable,
    min_max_extensions,
)
from .lattice import Region, make_box
from .potential import Potential, PotentialModel, sample_potential
from .gibbs import QuenchedMeasure, annealed_expectation, quenched_measure

__version__ = "0.1.0"

__all__ = [
    "analysis",
    "cli",
    "gibbs",
    "heights",
    "lattice",
    "potential",
    "sampler",
    "Region",
    "make_box",
    "HeightFunction",
    "ExtensionSet",
    "NoExtensionError",
    "enumerate_extensions",
    "kirszbraun_extendable",
    "min_max_extensions",
    "Potential",
    "PotentialModel",
    "sample_potential",
    "QuenchedMeasure",
    "quenched_measure",
    "annealed_expectation",
    "__version__",
]


def __getattr__(name):
    # ``cli`` loads on first use, so ``python -m randomsurfaces.cli`` does
    # not find the module already imported by the package
    if name == "cli":
        from importlib import import_module

        return import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
