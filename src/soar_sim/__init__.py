"""Deterministic 2D navigation kit with semantic per-class obstacle clearances.

The steering law keeps a per-class clearance distance from every obstacle
it recognizes and ignores classes whose clearance is zero, so a robot can
drive straight through harmless objects while circumnavigating real ones.
A synthetic labeled-stereo sensor, a kinematic robot with a turn-rate
limit, seeded disturbances and a trial harness reproduce the matched
"semantic vs. opaque" navigation experiments at desk scale.
"""

from soar_sim.scenario_io import ScenarioSpec, load_scenario, load_scenario_file, serialize_scenario
from soar_sim.sim import MODE_NON_SOAR, MODE_SOAR, TrialResult, run_trial
from soar_sim.steering import SteeringDecision, steering_direction
from soar_sim.world import ClearancePolicy, ObstacleInstance, Vec2, effective_d0

__version__ = "0.1.0"

__all__ = [
    "MODE_NON_SOAR",
    "MODE_SOAR",
    "ClearancePolicy",
    "ObstacleInstance",
    "ScenarioSpec",
    "SteeringDecision",
    "TrialResult",
    "Vec2",
    "effective_d0",
    "load_scenario",
    "load_scenario_file",
    "run_trial",
    "serialize_scenario",
    "steering_direction",
    "__version__",
]
