"""Reference updates the production dual-averaging step is checked against,
and the per-step bookkeeping of the regret lab.

groupopt runs one update rule, optimizers.step_group. These two updates are
written in their conventional direct form and share no algebra with it:

* vanilla_step, the plain adaptive step x <- x - alpha_t * m_t / denom_t:
  step_group with every penalty zero must follow it within 1e-9;
* ftrl_step, FTRL-Proximal (McMahan et al., KDD 2013): step_group on the
  adagrad schedule at epsilon 0 with lambda1 alone must follow it within
  1e-9.

Both step an optimizers.OptimizerState of their schedule's kind in place
(ftrl_step an "adagrad" state, whose v_hat holds its running sum of g^2),
reaching its arrays through state.arrays, and run the step's input checks,
optimizers._check_step: a state of another kind is refused, and a
non-finite gradient poisons the state.

generate is data.generate as it was before it built its ids in place and
drew the labels row chunk by row chunk: data.generate must give its bits.

scatter_rows gives a row-compact gradient, such as model.backward's
embedding gradient, its dense table-shaped form, for the tests that compare
it with a dense reference.

fresh_step_group is optimizers.step_group as it was before it advanced
the state in place, before sgd, momentum and adagrad states stopped storing
R_{t-1}, and before the step left the dual's finiteness to the prox's result
check: each step rebinds the entries of state.arrays to fresh arrays, keeps
R_{t-1} in roots, a mapping beside the state, and checks the dual itself.
step_group must give its bits, state, returned (m_t, R_t) and error
messages included, and store that R_{t-1} where the state keeps one (the
oracle leaves an adam or amsgrad state's prev_scaled_root at zero).

prox_objective evaluates the objective prox.prox_oracle minimizes, for the
tests that compare the closed form with nearby points.

per_step_regret is regret.run_regret's loop as it was before the loop kept
a chunk of gradients and roots and folded grad_bound and kappa once per
chunk: it updates both after every step. run_regret must give its bits.
"""

import math

import numpy as np

from groupopt.blocks import ParamBlock, make_rng
from groupopt.data import Dataset, SynthSpec
from groupopt.model import sigmoid
from groupopt.optimizers import (NO_REG, MomentSchedule, OptimizerState, PoisonedStateError,
                                 RegConfig, _check_step, step_group)
from groupopt.prox import NonpositiveDiagonalError, ProxProblem, group_shrink, soft_threshold
from groupopt.regret import (OnlineProblem, _checkpoints, _logistic_prefix_min,
                             _make_stream, _quadratic_prefix_min)


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
    grad = _check_step(state, block, grad, schedule.kind, lr)
    a = state.arrays
    t = state.t + 1
    kind = schedule.kind
    if kind == "sgd":
        delta = (lr / np.sqrt(float(t))) * grad
    elif kind == "momentum":
        a["m_hat"] = schedule.gamma * a["m_hat"] + grad
        delta = lr * a["m_hat"]
    elif kind == "adagrad":
        inc = grad * grad
        if t == 1:
            inc += schedule.epsilon
        a["v_hat"] = a["v_hat"] + inc
        # a coordinate that never had a gradient (v_hat = 0 at epsilon 0)
        # stays put, as it does on the group path, instead of taking 0/0
        delta = np.divide(lr * grad, np.sqrt(a["v_hat"]), out=np.zeros(grad.shape),
                          where=a["v_hat"] != 0.0)
    else:  # adam, amsgrad
        b1, b2 = schedule.beta1, schedule.beta2
        a["m_hat"] = b1 * a["m_hat"] + (1.0 - b1) * grad
        raw = b2 * a["v_hat"] + (1.0 - b2) * grad * grad
        if kind == "amsgrad":
            raw = np.maximum(a["v_hat"], raw)
        a["v_hat"] = raw
        alpha_t = lr * np.sqrt(1.0 - b2**t) / (1.0 - b1**t)
        delta = alpha_t * a["m_hat"] / (np.sqrt(a["v_hat"]) + schedule.epsilon)
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
    v_hat: it is the running sum of g^2 that adagrad keeps with eps = 0.
    """
    grad = _check_step(state, block, grad, "adagrad", lr)
    a = state.arrays
    n_next = a["v_hat"] + grad * grad
    sigma = (np.sqrt(n_next) - np.sqrt(a["v_hat"])) / lr
    a["z"] = a["z"] + grad - sigma * block.values
    a["v_hat"] = n_next
    state.t += 1
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(
            np.abs(a["z"]) <= lambda1,
            0.0,
            (np.sign(a["z"]) * lambda1 - a["z"]) * lr / np.sqrt(a["v_hat"]),
        )
    # coordinates never touched by any gradient stay at the dead-zone zero
    block.values = np.where(a["v_hat"] > 0.0, x, 0.0)


def _fresh_moments(state, grad, schedule, lr):
    """Advance accumulators and return (m_t, R_t) for step t = state.t + 1."""
    a = state.arrays
    t = state.t + 1
    kind = schedule.kind
    if kind == "sgd":
        m = grad
        scaled_root = np.full(grad.shape, math.sqrt(t) / lr)
    elif kind == "momentum":
        a["m_hat"] = schedule.gamma * a["m_hat"] + grad
        m = a["m_hat"]
        scaled_root = np.full(grad.shape, 1.0 / lr)
    elif kind == "adagrad":
        inc = grad * grad
        if t == 1:
            inc += schedule.epsilon
        a["v_hat"] = a["v_hat"] + inc
        m = grad
        scaled_root = np.sqrt(a["v_hat"])
        scaled_root /= lr
    else:  # adam, amsgrad
        b1, b2 = schedule.beta1, schedule.beta2
        a["m_hat"] = b1 * a["m_hat"] + (1.0 - b1) * grad
        raw = b2 * a["v_hat"] + (1.0 - b2) * grad * grad
        if kind == "amsgrad":
            raw = np.maximum(a["v_hat"], raw)
        a["v_hat"] = raw
        bc1 = 1.0 - b1**t
        bc2 = 1.0 - b2**t
        m = a["m_hat"] / bc1
        v = a["v_hat"] / bc2
        eps_t = schedule.epsilon / np.sqrt(bc2)
        scaled_root = (np.sqrt(v) + eps_t) / lr
    return m, scaled_root


def fresh_step_group(
    state: OptimizerState,
    block: ParamBlock,
    grad: np.ndarray,
    schedule: MomentSchedule,
    lr: float,
    reg: RegConfig = NO_REG,
    *,
    roots: dict,
) -> tuple[np.ndarray, np.ndarray]:
    """step_group with every state array rebound to a fresh one each step
    and R_{t-1} in roots["prev_scaled_root"], zeros before step 1."""
    grad = _check_step(state, block, grad, schedule.kind, lr)
    a = state.arrays
    t = state.t + 1
    lam1, lam21, lam2 = ((reg.lambda1, reg.lambda21, reg.lambda2)
                         if reg.applies_to(block.name) else (0.0, 0.0, 0.0))
    group_size = block.group_size if block.grouped else 1

    m, scaled_root = _fresh_moments(state, grad, schedule, lr)
    # z + m - (R_t - R_{t-1}) * x in its left-to-right order, on fresh arrays
    drift = scaled_root - roots["prev_scaled_root"]
    drift *= block.values
    z = a["z"] + m
    z -= drift
    a["z"] = z
    if not np.logical_and.reduce(np.isfinite(z), axis=None):
        state.poisoned = True
        raise PoisonedStateError("non-finite dual", block.name, t, "dual")
    roots["prev_scaled_root"] = scaled_root
    state.t += 1

    s = soft_threshold(a["z"], lam1)
    try:
        block.values = group_shrink(s, scaled_root, group_size, lam21, lam2, reg.variant)
    except NonpositiveDiagonalError as exc:
        state.poisoned = True
        raise PoisonedStateError(f"{exc}: no finite parameters", block.name, t,
                                 "prox") from exc
    return m, scaled_root


def prox_objective(p: ProxProblem, x: np.ndarray) -> float:
    """The objective the oracle minimizes, evaluated at x."""
    x = np.asarray(x, dtype=np.float64)
    half = 0.5 * p.cum_diag + p.lambda2
    groups = x.reshape(-1, p.group_size)
    halfg = half.reshape(-1, p.group_size)
    group_norms = np.sqrt(np.einsum("ij,ij->i", halfg * groups, groups))
    return float(
        p.z @ x
        + 0.5 * (p.cum_diag * x) @ x
        + p.lambda1 * np.sum(np.abs(x))
        + p.lambda21 * np.sqrt(p.group_size) * np.sum(group_norms)
        + p.lambda2 * (x @ x)
    )


def per_step_regret(problem: OnlineProblem, kind: str = "adagrad", lr: float = 0.5,
                    reg: RegConfig = NO_REG, step_decay: str = "none"):
    """(xs, ms, regrets, kappa, grad_bound) of run_regret, with grad_bound
    and kappa = max (R_{t-1}/R_t)^2 updated after every step."""
    schedule = MomentSchedule(kind=kind)
    stream = _make_stream(problem)
    T, d = problem.horizon, problem.dim

    if problem.kind == "quadratic":
        targets = stream["targets"]
        prefix_sum = np.vstack([np.zeros(d), np.cumsum(targets, axis=0)])
        prefix_sq = np.concatenate([[0.0], np.cumsum(np.sum(targets**2, axis=1))])

    block = ParamBlock("x", np.zeros(d))
    state = OptimizerState(d, schedule.kind)
    checkpoints = _checkpoints(T)
    xs = np.zeros((T, d))
    ms = np.zeros((T, d))
    cum_loss = 0.0
    kappa = 0.0
    grad_bound = 0.0
    cum_at, minima = [], []
    next_cp = 0

    warm = np.zeros(d)
    for t in range(1, T + 1):
        x = block.values
        xs[t - 1] = x
        if problem.kind == "quadratic":
            a = targets[t - 1]
            diff = x - a
            cum_loss += 0.5 * float(diff @ diff)
            grad = diff
        else:
            b = stream["features"][t - 1]
            y = stream["labels"][t - 1]
            margin = y * float(b @ x)
            cum_loss += float(np.logaddexp(0.0, -margin))
            grad = -y * b * np.exp(-np.logaddexp(0.0, margin))
        grad_bound = max(grad_bound, float(np.abs(grad).max()))
        if not math.isfinite(cum_loss):
            raise FloatingPointError("divergent trajectory: non-finite loss")

        lr_t = lr / np.sqrt(float(t)) if step_decay == "sqrt_t" else lr
        ms[t - 1], root_new = step_group(state, block, grad, schedule, lr_t, reg)
        if t >= 2:
            ratio = np.divide(root_prev, root_new, out=np.zeros(d), where=root_new > 0)
            kappa = max(kappa, float((ratio**2).max()))
        root_prev = root_new

        if t == checkpoints[next_cp]:
            if problem.kind == "quadratic":
                value, x_star = _quadratic_prefix_min(prefix_sum[t], prefix_sq[t], t)
            else:
                value, x_star = _logistic_prefix_min(
                    stream["features"][:t], stream["labels"][:t], warm)
                warm = x_star
            cum_at.append(cum_loss)
            minima.append(value)
            next_cp += 1

    regrets = np.array(cum_at) - np.array(minima)
    return xs, ms, regrets, kappa, grad_bound


def generate(spec: SynthSpec) -> Dataset:
    """data.generate with every (n, fields) array whole: the per-field
    columns, their stack, ids + offsets and weights[ids]."""
    rng = make_rng(spec.seed)
    vocab = spec.vocab
    k = math.ceil(spec.informative_fraction * vocab)
    support = rng.choice(vocab, size=k, replace=False)
    weights = np.zeros(vocab)
    weights[support] = rng.uniform(1.0, 3.0, k) * rng.choice([-1.0, 1.0], k)

    offsets = np.arange(spec.num_fields) * spec.vocab_per_field
    if spec.skew == 0:
        ids = rng.integers(0, spec.vocab_per_field, (spec.num_samples, spec.num_fields))
    else:
        probs = (np.arange(spec.vocab_per_field) + 1.0) ** -spec.skew
        probs /= probs.sum()
        cols = []
        for _ in range(spec.num_fields):
            perm = rng.permutation(spec.vocab_per_field)
            ranks = rng.choice(spec.vocab_per_field, size=spec.num_samples, p=probs)
            cols.append(perm[ranks])
        ids = np.stack(cols, axis=1)
    ids = ids + offsets[None, :]
    logits = weights[ids].sum(axis=1)
    labels = (rng.random(spec.num_samples) < sigmoid(logits)).astype(np.int64)
    if spec.noise > 0:
        flips = rng.random(spec.num_samples) < spec.noise
        labels = np.where(flips, 1 - labels, labels)

    n_train = int(0.9 * spec.num_samples)
    return Dataset(
        train_ids=ids[:n_train],
        train_labels=labels[:n_train],
        test_ids=ids[n_train:],
        test_labels=labels[n_train:],
        support=frozenset(int(i) for i in support),
    )


def scatter_rows(block: ParamBlock, values, rows) -> np.ndarray:
    """A flat zero vector of block's size whose groups rows (distinct ids in
    [0, num_groups)) hold values, len(rows) * group_size values in the
    order of rows."""
    out = np.zeros((block.num_groups, block.group_size))
    out[rows] = np.reshape(values, (-1, block.group_size))
    return out.ravel()
