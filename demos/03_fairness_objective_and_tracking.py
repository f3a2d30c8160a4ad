"""
The fairness-weighted objective and its tracking variable
=========================================================

The training objective is a softmax-weighted sum of per-sample losses,
where the weights come from a lower-level score u (the negative
solver-normalized rate). Written as a composition f(g(theta); theta) it
admits a cheap stochastic scheme in which a scalar y tracks the inner
mean g. This script shows the weights concentrating on the worst samples
and the tracker converging onto g during training.
"""

import numpy as np

from faircl import channels, model, objective, trainer

rng = np.random.default_rng(4)
noise = 1.0  # the noise power the labels are solved at, and u's rates taken at

pool = channels.gen_rayleigh(2, 8, rng)
channels.add_wmmse_labels(pool)
params = model.init((4, 12, 2), 1.0, rng)

# Untrained network: sample ratios are all over the place, and the softmax
# weights single out whoever underperforms the solver the most.
u = objective.lower_values(noise, params, pool)
lam = objective.softmax_weights(u)
print("sample   rate/solver   weight")
for i in range(len(pool)):
    print(f"  {i}        {-u[i]:8.4f}   {lam[i]:8.4f}")
print(f"worst sample {int(np.argmax(u))} carries the largest weight")

# The weighted sum and the composed form are the same number; the chain rule
# through (g, f) matches the direct gradient to machine precision.
value, grad = objective.full_objective(noise, params, pool)
ev = objective.eval_composition(noise, params, pool)
chain = ev.grad_g * ev.grad1_f + ev.grad2_f
print(f"\nweighted objective {value:.10f}")
print(f"composed  f(g)     {ev.f_value:.10f}")
print(f"gradient gap       {np.max(np.abs(chain - grad)):.2e}")

# Training with the two-sequence scheme: y is corrected toward the running
# value of g each step, so the outer gradient stays honest even though each
# step only touches a minibatch.
pool = channels.gen_rayleigh(2, 50, rng)
channels.add_wmmse_labels(pool)
params = model.init((4, 8, 2), 1.0, rng)
state = trainer.init_state(params, alpha=0.005, beta=0.05, rng=rng)
rows = []
state = trainer.scsc_train(state, noise, pool, iters=800, minibatch_size=10,
                           trace=rows)
print("\nstep   objective        y        |y - g|^2")
for row in rows[::100] + [rows[-1]]:
    print(f"{row.step:5d}   {row.objective:.6f}   {row.y:.6f}   "
          f"{row.tracking_error:.2e}")
