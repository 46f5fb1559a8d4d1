"""Reference updates the production dual-averaging step is checked against.

groupopt runs one update rule, optimizers.step_group. These two updates are
written in their conventional direct form and share no algebra with it:

* vanilla_step, the plain adaptive step x <- x - alpha_t * m_t / denom_t:
  step_group with every penalty zero must follow it within 1e-9;
* ftrl_step, FTRL-Proximal (McMahan et al., KDD 2013): step_group on the
  adagrad schedule at epsilon 0 with lambda1 alone must follow it within
  1e-9.

Both step an optimizers.OptimizerState in place and run its input checks.
"""

import numpy as np

from groupopt.blocks import ParamBlock
from groupopt.optimizers import MomentSchedule, OptimizerState, _check_step


def vanilla_step(
    state: OptimizerState,
    block: ParamBlock,
    grad: np.ndarray,
    schedule: MomentSchedule,
    lr: float,
) -> None:
    """Reference unregularized update x <- x - alpha_t * m_t / denom_t.

    Written in the conventional direct form (uncorrected moments, bias
    corrections folded into the step size for adam/amsgrad) so it shares no
    algebra with the dual path of step_group.
    """
    grad = _check_step(state, block, grad, lr)
    t = state.t + 1
    kind = schedule.kind
    if kind == "sgd":
        delta = (lr / np.sqrt(float(t))) * grad
    elif kind == "momentum":
        state.m_hat = schedule.gamma * state.m_hat + grad
        delta = lr * state.m_hat
    elif kind == "adagrad":
        inc = grad * grad
        if t == 1:
            inc += schedule.epsilon
        state.v_hat = state.v_hat + inc
        # a coordinate that never had a gradient (v_hat = 0 at epsilon 0)
        # stays put, as it does on the group path, instead of taking 0/0
        delta = np.divide(lr * grad, np.sqrt(state.v_hat), out=np.zeros(grad.shape),
                          where=state.v_hat != 0.0)
    else:  # adam, amsgrad
        b1, b2 = schedule.beta1, schedule.beta2
        state.m_hat = b1 * state.m_hat + (1.0 - b1) * grad
        raw = b2 * state.v_hat + (1.0 - b2) * grad * grad
        if kind == "amsgrad":
            raw = np.maximum(state.v_hat, raw)
        state.v_hat = raw
        alpha_t = lr * np.sqrt(1.0 - b2**t) / (1.0 - b1**t)
        delta = alpha_t * state.m_hat / (np.sqrt(state.v_hat) + schedule.epsilon)
    state.t = t
    block.values = block.values - delta
    if not np.isfinite(block.values).all():
        state.poisoned = True
        raise PoisonedStateError(f"non-finite parameters for block {block.name!r}")


def ftrl_step(
    state: OptimizerState,
    block: ParamBlock,
    grad: np.ndarray,
    lr: float,
    lambda1: float = 0.0,
) -> None:
    """Proximal FTRL coordinate update with an l1 dead zone; mutates in place.

    Per coordinate: sigma_t = (sqrt(n + g^2) - sqrt(n)) / lr, z += g - sigma*x,
    n += g^2, then x = 0 where |z| <= lambda1 and (sign(z)*lambda1 - z)*lr/sqrt(n)
    elsewhere. With lambda1 = 0 this is the adagrad trajectory. n lives in
    state.v_hat: it is the running sum of g^2 that adagrad keeps with eps = 0.
    """
    grad = _check_step(state, block, grad, lr)
    n_next = state.v_hat + grad * grad
    sigma = (np.sqrt(n_next) - np.sqrt(state.v_hat)) / lr
    state.z = state.z + grad - sigma * block.values
    state.v_hat = n_next
    state.t += 1
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(
            np.abs(state.z) <= lambda1,
            0.0,
            (np.sign(state.z) * lambda1 - state.z) * lr / np.sqrt(state.v_hat),
        )
    # coordinates never touched by any gradient stay at the dead-zone zero
    block.values = np.where(state.v_hat > 0.0, x, 0.0)
