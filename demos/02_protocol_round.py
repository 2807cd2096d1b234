"""One full two-flyover aggregation round, step by step.

The collector never decodes individual sensors.  It flies the stop plan
twice: the first pass measures the per-stop sum of channel gains (every
sensor reflects an unmodulated carrier), the second pass collects the
per-stop sum of gain-weighted readings.  A linear combination of the
second pass then estimates the wanted function of the readings; the
pilot measurements from the first pass choose the combining weights.
"""

import numpy as np

from aircomp import (
    ChannelParams,
    beta_heuristic,
    build_target,
    computation_phase,
    deploy_sensors,
    draw_sensor_data,
    effective_gain_matrix,
    estimate,
    plan_diameter_trajectory,
    sampling_phase,
    spawn_seeds,
    target_value,
)

N, K = 20, 5
NOISE_VAR = 1e-12
rng_seeds = spawn_seeds(7, 4)

# ---------------------------------------------------------------------------
# 1. Scene: sensors, stops, per-link gains, and the aggregation target
#    (here the plain sum of the readings).
# ---------------------------------------------------------------------------
field = deploy_sensors(N, 10.0, zeta=0.99, seed=rng_seeds[0])
traj = plan_diameter_trajectory(K, 10.0, 50.0)
gains = effective_gain_matrix(field, traj, ChannelParams())
tspec = build_target("config-1", N)

# ---------------------------------------------------------------------------
# 2. Pilot flyover: per-stop sums of gains, observed in receiver noise.
# ---------------------------------------------------------------------------
pilots = sampling_phase(gains, NOISE_VAR, seed=rng_seeds[1])
true_sums = gains.g.sum(axis=1)
print("pilot flyover (per stop):")
for k in range(K):
    print(f"  stop {k}: true sum {true_sums[k]:.4e}  measured {pilots.alpha[k]:.4e}")

# ---------------------------------------------------------------------------
# 3. The pilot sums choose the combining coefficients.  Stops with a
#    weaker measured sum get a different weight than stronger ones.
# ---------------------------------------------------------------------------
beta = beta_heuristic(pilots, tspec, data_mean=0.0, data_var=1.0,
                      noise_vars=NOISE_VAR, n_sensors=N)
print("\ncombining coefficients:", np.round(beta.beta, 1))

# ---------------------------------------------------------------------------
# 4. Data flyover: sensors modulate their readings onto the reflection;
#    the channel itself adds them up.  One linear pass estimates the sum.
# ---------------------------------------------------------------------------
data = draw_sensor_data(field, seed=rng_seeds[2])
aggregates = computation_phase(gains, data, NOISE_VAR, seed=rng_seeds[3])
estimated = estimate(aggregates, beta)
truth = target_value(tspec, data)
print(f"\ntrue sum of readings   {truth:+.4f}")
print(f"over-the-air estimate  {estimated:+.4f}")
print(f"squared error          {(estimated - truth) ** 2:.6f}")
