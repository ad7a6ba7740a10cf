"""The comparison baselines: mixture model, implicit BC, constant velocity.

Each baseline predicts agents independently. The Gaussian mixture is fitted
with EM and queried by conditioning on the observed state; the implicit
behavior cloner scores actions with a quadratic energy and takes the argmin;
the `cv` predictor (the same one `crowdirl eval --baseline cv` runs) just
coasts from a demonstration's start state. All three are deterministic
predictors.
"""
import numpy as np

from crowdirl import (
    AgentState,
    PredictorContext,
    ScenarioSpec,
    action_grid,
    ebm_argmin,
    ebm_minimizer,
    ebm_train,
    gmm_conditional_mean,
    gmm_fit,
    make_predictor,
    rollout_openloop,
)

rng = np.random.default_rng(5)

print("== Gaussian mixture over (state, action) pairs ==")
# synthetic behavior: action is a damped pursuit of the origin from position x
X = rng.uniform(-4, 4, size=(3000, 2))
U = -0.6 * X + 0.05 * rng.standard_normal((3000, 2))
model = gmm_fit(np.concatenate([X, U], axis=1), K=3, seed=1)
print(f"fitted 3 components over 4-d data; final log-likelihood "
      f"{model.log_likelihoods[-1]:.1f} after {len(model.log_likelihoods)} EM steps "
      f"(converged: {model.converged})")
probe = np.array([2.0, -1.0])
cond = gmm_conditional_mean(model, probe, n_cond=2)
print(f"E[action | state {probe}] = {np.round(cond, 3)} (behavior says {-0.6 * probe})")

print("\n== implicit behavior cloning with a quadratic energy ==")
params = ebm_train(X, U)
print(f"learned action map: u = Lx + b with L ~\n{np.round(params.L, 3)}")
x = np.array([1.0, 1.0])
u_star = ebm_minimizer(params, x)
print(f"analytic minimizer at state {x}: {np.round(u_star, 3)}")
grid = action_grid(-3.0, 3.0, 61)
picked = ebm_argmin(params, x, grid)
print(f"argmin over a 61x61 grid: {np.round(picked, 3)} "
      f"(within half a grid cell of the minimizer)")

print("\n== constant velocity ==")
spec = ScenarioSpec(k=1, x0=(AgentState(0.0, 0.0, 1.2, -0.3),), goals=None,
                    horizon=4, dt=0.5)
# a walker who turns north; the predictor sees only the start state
walker = rollout_openloop(spec, np.tile([0.0, 0.8], (4, 1, 1)))  # a set of one row
coast = make_predictor("cv", PredictorContext(spec=spec, train_demos=walker))(walker)[0]
print("next four positions, predicted:", np.round(coast[1:, 0], 2).tolist())
print("next four positions, walked:   ", np.round(walker.states[0, 1:, :2], 2).tolist())
