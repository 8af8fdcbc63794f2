"""Simulation and optimal control of stochastic Volterra cash-flow models.

Subpackage map:

* ``model``     -- grids, kernels, jump measures, scenario validation
* ``paths``     -- seeded Brownian/jump noise generation
* ``_kernels``  -- the triangular sweep of the two-time scheme
* ``fsvie``     -- forward simulation, mean oracle, first variations
* ``condexp``   -- regression-based conditional expectations
* ``bsde``      -- backward solver and the recursive-utility evaluator
* ``bsvie``     -- two-time backward solver (freeze / solve / iterate)
* ``malliavin`` -- B(T), Ñ(T) and their powers; duality-identity checkers
* ``controls``  -- consumption-rate controls
* ``control``   -- multipliers, memory Hamiltonian, performance, bump derivatives
* ``acceptance``-- reference-scenario acceptance checks
* ``cli``       -- command line: one writer for every subcommand's tables and checks
"""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    Kernel,
    LevyMeasure,
    ScenarioSpec,
    TimeGrid,
    ValidationError,
    build_time_grid,
    validate_scenario,
)
from .paths import NoiseBundle, generate_noise  # noqa: F401
from .controls import ControlFn  # noqa: F401
from .fsvie import ForwardPaths, simulate_fsvie  # noqa: F401
