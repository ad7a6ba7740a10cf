"""States, exact stepping, dataset layout, and the trajectory feature basis.

A joint state is one (4k,) array holding (px, py, vx, vy) per agent. Propagate
an agent under acceleration, write a two-agent path to an interchange file to
see its dataset rows (position, speed, heading) and read it back, and compute
the three trajectory features for a small scene.
"""
import tempfile
from pathlib import Path

import numpy as np

from crowdirl import (
    ScenarioSpec,
    CostParams,
    RolloutSet,
    expected_features,
    read_demonstrations,
    rollout_openloop,
    write_demonstrations,
)
from crowdirl.trajectory import propagate_joint

print("== exact double-integrator stepping ==")
state = np.array([0.0, 0.0, 1.0, 0.0])  # (px, py, vx, vy) of one agent
push = np.array([[2.0, 0.0]])  # (ax, ay) per agent
after = propagate_joint(state, push, dt=0.5)
print(f"start (px, py, vx, vy) = {state}")
print(f"after 0.5 s under acceleration {push[0]}: {after}")
print(f"(hand check: px = 0 + 1*0.5 + 0.5*2*0.25 = {0 + 0.5 + 0.25})")

print("\n== dataset row layout: (px, py, speed, heading) per agent ==")
joint = np.array([0.0, 0.0, 0.0, 1.0, 3.0, 1.0, -1.0, 0.0])  # two agents
# one step of coasting, as a set of one path
coast = RolloutSet.from_states([[joint, propagate_joint(joint, np.zeros((2, 2)), dt=0.1)]], 0.1)
with tempfile.TemporaryDirectory() as tmp:
    file = Path(tmp) / "path.traj"
    write_demonstrations(file, coast, goals=None)
    print(f"first body row of the file: {file.read_text().splitlines()[1]}")
    back, _ = read_demonstrations(file)
print(f"round trip error: {np.max(np.abs(back.states - coast.states)):.2e}")

print("\n== trajectory features ==")
# two walkers heading toward each other for two seconds
spec = ScenarioSpec(
    k=2,
    x0=np.array([[-2.0, 0.0, 1.0, 0.0], [2.0, 0.3, -1.0, 0.0]]),  # (k, 4) rows, kept as (4k,)
    goals=np.array([[2.0, 0.0], [-2.0, 0.3]]),
    horizon=20,
    dt=0.1,
    sigma=1.5,  # width (m) of the crowding kernel
)
traj = rollout_openloop(spec, np.zeros((spec.horizon, spec.k, 2)))  # a set of one row
# one row (goal_dist, proximity, effort) per agent, here over that one trajectory
phi = expected_features(traj, range(spec.k), spec.goals, spec.sigma)
for i, (goal_dist, proximity, effort) in enumerate(phi):
    print(
        f"agent {i}: goal_dist {goal_dist:7.3f} m^2 | "
        f"proximity {proximity:6.4f} | effort {effort:.4f}"
    )
theta = CostParams(np.array([1.0, 0.5, 0.2]))
print(f"weighted cost for agent 0 at theta {theta.weights}: {theta.weights @ phi[0]:.3f}")
