"""First-order Takagi-Sugeno neuro-fuzzy inference core.

Five-layer forward pass (memberships -> rule firing -> normalization ->
weighted linear consequents -> sum) over a full grid-partition rule base,
trained by the classic hybrid rule: a linear least-squares solve for the
consequent coefficients each epoch, followed by one gradient-descent step
on the generalized-bell membership parameters.

The premise is held in one form: flat (total MFs,) arrays of widths,
slopes and centres, laid out input by input, which the firing layers,
the gradient and training all read.  The consequents are held in one
form too: a (k, n_rules, n_inputs + 1) stack, k output channels over the
one premise (k = 1 for a single output).  forward, fit_consequents,
premise_gradient and train all work on (N, k) outputs, and the role
bundles are such models; roles stores them.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

__all__ = [
    "AnfisModel",
    "TrainConfig",
    "TrainingDivergedError",
    "bell", "overflow_guard",
    "grid_partition_init",
    "forward", "forward_row",
    "normalized_firing",
    "design_matrix",
    "fit_consequents",
    "linear_consequent_prior",
    "solve_consequents",
    "premise_gradient",
    "train",
]

FIRING_FLOOR = 1e-300
FIRING_BLOCK = 64          # samples per gathered block of rule memberships
MIN_WIDTH = 1e-9
MIN_SLOPE = 0.1
DECAY = 0.5                # learning-rate factor when an epoch's RMSE worsens
_GUARDED = contextvars.ContextVar("overflow_guarded", default=False)   # see overflow_guard


class TrainingDivergedError(RuntimeError):
    """Raised when the hybrid training loop produces a non-finite loss or
    premise gradient."""


@contextlib.contextmanager
def overflow_guard():
    """Silences bell's overflow in the block: a closed-loop run holds it once."""
    token = _GUARDED.set(True)
    try:
        with np.errstate(over="ignore"):
            yield
    finally:
        _GUARDED.reset(token)


def _bell(x, a, b, c):
    return 1.0 / (1.0 + np.abs((x - c) / a) ** (2.0 * b))


_quiet_bell = np.errstate(over="ignore")(_bell)    # as a decorator: 2/3 of a with block's cost


def bell(x, a, b, c):
    """Generalized bell membership: 1 / (1 + |((x-c)/a)|^(2b)).

    An overflowing power far from the center correctly saturates to 0; bell
    silences the overflow itself unless its caller holds overflow_guard.
    """
    return (_bell if _GUARDED.get() else _quiet_bell)(x, a, b, c)


@dataclass
class AnfisModel:
    """Premise and consequent parameters over a full Cartesian rule grid.

    The premise is three flat (total MFs,) arrays a (width), b (slope
    exponent) and c (center), laid out input by input: input i's functions
    are a[start:stop] for (start, stop) = bounds[i], and columns[j] is the
    input that function j reads.  Rules run in row-major order over the
    inputs' MF indices (the first input slowest); rule_mfs[i, r] is the
    flat index of the function input i contributes to rule r.  Consequents
    are a (k, n_rules, n_inputs + 1) stack, one table per output channel
    with one row per rule: linear coefficients followed by the bias, laid
    out rule-major (here and by fit_consequents) as forward's table C.
    """
    mfs_per_input: tuple[int, ...]
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    coeffs: np.ndarray
    input_ranges: np.ndarray

    def __post_init__(self):
        mfs = self.mfs_per_input = tuple(int(m) for m in self.mfs_per_input)
        self.a, self.b, self.c = (np.asarray(p, dtype=float) for p in (self.a, self.b, self.c))
        if not self.a.shape == self.b.shape == self.c.shape == (sum(mfs),):
            raise ValueError(f"premise arrays of shapes {self.a.shape}, {self.b.shape} and "
                             f"{self.c.shape} do not hold the {sum(mfs)} membership "
                             f"functions of mfs_per_input {mfs}")
        ranges = self.input_ranges = np.asarray(self.input_ranges, dtype=float)
        if ranges.shape != (len(mfs), 2):
            raise ValueError(f"input ranges of shape {ranges.shape}, not ({len(mfs)}, 2)")
        stops = np.cumsum(mfs).tolist()
        self.bounds = tuple(zip([0] + stops[:-1], stops))
        self.columns = np.repeat(np.arange(len(mfs)), mfs)
        self.rule_mfs = np.indices(mfs).reshape(len(mfs), -1) + np.array(self.bounds)[:, :1]
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.ndim != 3 or self.coeffs.shape[1:] != (self.n_rules, len(mfs) + 1):
            raise ValueError(f"consequents of shape {self.coeffs.shape} are not a "
                             f"(k, {self.n_rules}, {len(mfs) + 1}) stack of rule tables")
        self.coeffs = np.ascontiguousarray(self.coeffs.swapaxes(0, 1)).swapaxes(0, 1)
        for name in ("a", "b", "c", "coeffs", "input_ranges"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"the model's {name} hold non-finite values")

    def __reduce__(self):     # through the constructor, which lays the stack out rule-major
        return AnfisModel, tuple(getattr(self, f.name) for f in fields(self))

    @property
    def n_inputs(self) -> int:
        return len(self.mfs_per_input)

    @property
    def n_rules(self) -> int:
        return math.prod(self.mfs_per_input)

    def copy(self) -> "AnfisModel":
        return replace(self, a=self.a.copy(), b=self.b.copy(), c=self.c.copy(),
                       coeffs=self.coeffs.copy(), input_ranges=self.input_ranges.copy())


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    learning_rate: float = 0.01
    ridge: float = 1e-8

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate < 0.0:
            raise ValueError("learning rate must be nonnegative")
        if self.ridge < 0.0:
            raise ValueError("ridge must be nonnegative")


def grid_partition_init(ranges, mfs_per_input) -> AnfisModel:
    """Evenly spaced bell MFs over each input range; one output channel of
    zero consequents.

    Centers span [min, max], widths are half the center spacing, slope
    exponent b = 2 everywhere.
    """
    ranges = np.atleast_2d(np.asarray(ranges, dtype=float))
    mfs_per_input = tuple(int(m) for m in np.atleast_1d(mfs_per_input))
    if len(mfs_per_input) == 1 and ranges.shape[0] > 1:
        mfs_per_input = mfs_per_input * ranges.shape[0]
    if ranges.shape[0] != len(mfs_per_input):
        raise ValueError("ranges and mfs_per_input disagree on input count")
    a, c = [], []
    for (lo, hi), m in zip(ranges, mfs_per_input):
        if not hi > lo:
            raise ValueError(f"degenerate input range [{lo}, {hi}]")
        if m < 2:
            raise ValueError("need at least 2 membership functions per input")
        a.append(np.full(m, 0.5 * ((hi - lo) / (m - 1))))   # half the center spacing
        c.append(np.linspace(lo, hi, m))
    coeffs = np.zeros((1, math.prod(mfs_per_input), ranges.shape[0] + 1))
    return AnfisModel(mfs_per_input, np.concatenate(a), np.full(sum(mfs_per_input), 2.0),
                      np.concatenate(c), coeffs, ranges.copy())


def _firing(model: AnfisModel, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """Layers 1-2 for the rows of a 2-D x of n_inputs columns (else a
    ValueError): all memberships (N, total MFs) from one bell evaluation,
    the (N, n_rules) firing strengths, their (N, 1) sums and no-rule mask.

    A rule fires with the product of its memberships (gathered by rule_mfs),
    input by input, left to right; a batch goes FIRING_BLOCK rows at a time.
    A row whose every rule underflows falls back to uniform weights (with a
    diagnostic counting such rows) instead of dividing by zero.
    """
    if x.ndim != 2 or x.shape[1] != model.n_inputs:
        raise ValueError(f"expected rows of {model.n_inputs} inputs, got shape {x.shape}")
    # the take methods gather as indexing does, at under half the cost per call
    mu = bell(x.take(model.columns, axis=1), model.a, model.b, model.c)
    w = np.empty((len(mu), model.n_rules))
    for i in range(0, len(mu), FIRING_BLOCK):
        np.multiply.reduce(mu[i:i + FIRING_BLOCK].take(model.rule_mfs, axis=1), axis=1,
                           out=w[i:i + FIRING_BLOCK])
    s = np.add.reduce(w, axis=1, keepdims=True)
    dead = s < FIRING_FLOOR
    if dead.any():
        warnings.warn(f"{int(dead.sum())} sample(s) fired no rule above the underflow "
                      "floor; using uniform rule weights", stacklevel=3)
        w = np.where(dead, 1.0, w)
        s = np.where(dead, float(w.shape[-1]), s)
    return mu, w, s, dead


def normalized_firing(model: AnfisModel, x: np.ndarray) -> np.ndarray:
    """Layer-3 outputs: (N, n_rules) normalized firing strengths of a model."""
    return np.divide(*_firing(model, np.atleast_2d(np.asarray(x, dtype=float)))[1:3])


def forward(model: AnfisModel, x) -> np.ndarray:
    """(N, k) outputs for the rows of x (one row for a 1-D x), each row, in any
    batch, ((w @ C).reshape(k, n_inputs + 1) @ [x, 1]) / s with C the consequent
    table: layers 4-5 are linear in w / s (Jang 1993), so the rules are summed
    first.  Raises ValueError if x does not have n_inputs columns."""
    x = np.asarray(x, dtype=float)
    k, n_rules, width = model.coeffs.shape
    table = model.coeffs.swapaxes(0, 1).reshape(n_rules, k * width)    # a view, no copy
    x = x[None] if x.ndim == 1 else x     # one row, at half the cost of a reshape
    _, w, s, _ = _firing(model, x)
    # (N, 1, n_rules) @ table sums as w.dot(table); a 2-D GEMM rounds by N
    v = (w[:, None, :] @ table).reshape(len(x), k, width)
    return (v @ np.column_stack([x, np.ones(len(x))])[:, :, None])[..., 0] / s


def forward_row(model: AnfisModel, xa: np.ndarray) -> np.ndarray:
    """forward's (k,) outputs for one row, the float array xa = [x, 1.0], unchecked:
    1-D dots, at 0.6x forward's cost; a row firing no rule goes to forward."""
    k, n_rules, width = model.coeffs.shape
    mu = bell(xa.take(model.columns), model.a, model.b, model.c)
    w = np.multiply.reduce(mu.take(model.rule_mfs), axis=0)
    s = np.add.reduce(w)
    if s < FIRING_FLOOR:
        return forward(model, xa[None, :-1])[0]
    table = model.coeffs.swapaxes(0, 1).reshape(n_rules, k * width)    # a view, no copy
    return w.dot(table).reshape(k, width).dot(xa) / s


def design_matrix(model: AnfisModel, x: np.ndarray) -> np.ndarray:
    """Least-squares design matrix: row blocks wbar_r * [x, 1] per rule."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    wbar = normalized_firing(model, x)
    xaug = np.column_stack([x, np.ones(len(x))])
    n, r, d = len(x), model.n_rules, xaug.shape[1]
    return np.einsum("nr,nd->nrd", wbar, xaug).reshape(n, r * d)


def linear_consequent_prior(model: AnfisModel, inputs: np.ndarray,
                            targets: np.ndarray) -> np.ndarray:
    """Global linear least-squares fit tiled across all rules.

    The normalized firing strengths sum to one, so identical consequents
    in every rule reproduce the global linear fit exactly; tiling it makes
    a shrinkage target that keeps sparsely-fired rules from extrapolating
    wildly.  Returns (n_rules * (n_inputs + 1),) or (..., k) for k targets.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    xaug = np.column_stack([inputs, np.ones(len(inputs))])
    beta, *_ = np.linalg.lstsq(xaug, targets, rcond=None)
    reps = (model.n_rules,) + (1,) * (beta.ndim - 1)
    return np.tile(beta, reps)


def solve_consequents(a_mat: np.ndarray, targets: np.ndarray, ridge: float) -> np.ndarray:
    """Ridge (or, at ridge 0, minimum-norm least-squares) solve of
    a_mat @ sol = targets, shared by all output channels and shrunk toward
    zero.  targets may be (N,) or (N, k); the result has matching trailing
    shape.
    """
    if ridge > 0.0:
        import scipy.linalg     # here, not at import: only a fit solves, and runs do not fit
        g = a_mat.T @ a_mat
        g[np.diag_indices_from(g)] += ridge
        rhs = a_mat.T @ targets
        cf = scipy.linalg.cho_factor(g, check_finite=False)
        return scipy.linalg.cho_solve(cf, rhs, check_finite=False)
    sol, _, rank, _ = np.linalg.lstsq(a_mat, targets, rcond=None)
    if rank < a_mat.shape[1]:
        warnings.warn(f"rank-deficient consequent system (rank {rank} of "
                      f"{a_mat.shape[1]}); minimum-norm solution returned", stacklevel=2)
    return sol


def fit_consequents(model: AnfisModel, x, y, ridge: float) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares consequents of the (N, k) targets y for the model's
    premise: one ridge solve for all k channels, shrunk toward each
    channel's global linear fit (the prior plus solve_consequents' fit of
    the prior's residual).  At ridge 0 on a full-rank system that is the
    plain least-squares solve.  Returns the (k, n_rules, n_inputs + 1)
    stack and the training RMSE of each channel.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    if len(x) == 0:
        raise ValueError("training set is empty")
    if y.ndim != 2 or len(y) != len(x):
        raise ValueError(f"targets of shape {y.shape} are not an (N, k) array for "
                         f"the {len(x)} input rows")
    k, n_params = y.shape[1], model.n_rules * (model.n_inputs + 1)
    if len(x) < n_params:
        warnings.warn(f"{len(x)} samples for {n_params} consequent parameters; "
                      "the least-squares problem is underdetermined", stacklevel=2)
    a_mat = design_matrix(model, x)
    prior = linear_consequent_prior(model, x, y).reshape(-1, k)
    sol = prior + solve_consequents(a_mat, y - a_mat @ prior, ridge)
    coeffs = np.ascontiguousarray(sol.reshape(model.n_rules, -1, k).swapaxes(1, 2)).swapaxes(0, 1)
    resid = a_mat @ sol - y
    return coeffs, np.sqrt(np.mean(resid ** 2, axis=0))


def premise_gradient(model: AnfisModel, x, y):
    """Gradient of the squared error summed over the (N, k) targets y
    w.r.t. all (a, b, c).

    Analytic backpropagation through the five layers, each rule's output
    f_r kept apart (sum_r wbar_r f_r).  A row that fired no rule takes
    uniform weights, which do not depend on the
    premise, so it adds nothing.  Returns three flat (total MFs,) arrays in
    the layout of model.a / model.b / model.c.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    mu, w, s, dead = _firing(model, x)
    wbar = w / s
    f = (model.coeffs @ np.column_stack([x, np.ones(len(x))])[:, None, :, None])[..., 0]
    out = (f @ wbar[:, :, None])[..., 0]
    y = np.asarray(y, dtype=float)
    if y.shape != out.shape:
        raise ValueError(f"targets of shape {y.shape} for outputs of shape {out.shape}")
    g = 2.0 * (out - y)                                    # dE/dy per sample, channel
    # dE/dw_r * w_r: dy_k/dw_r = (f_kr - y_k) / s, and w_r / s = wbar_r
    dedw_w = np.where(dead, 0.0, (g[:, :, None] * (f - out[:, :, None])).sum(axis=1) * wbar)

    # dE/dmu for every MF: dE/dw_r * w_r summed over the rules that use it,
    # over mu.  With the rules as an (N, *mfs_per_input) grid, input i's
    # MF m is the slice at index m of axis i + 1.
    n, mfs = len(x), model.mfs_per_input
    grid = dedw_w.reshape(n, *mfs)
    dedmu = np.concatenate([np.moveaxis(grid, i + 1, 1).reshape(n, m, -1).sum(axis=2)
                            for i, m in enumerate(mfs)], axis=1) / np.maximum(mu, 1e-300)
    diff = x[:, model.columns] - model.c
    u = (diff / model.a) ** 2
    mom = mu * (1.0 - mu)                             # = mu^2 * u^b
    dmu_da = 2.0 * model.b * mom / model.a
    with np.errstate(divide="ignore", invalid="ignore"):
        dmu_dc = np.where(diff != 0.0, 2.0 * model.b * mom / diff, 0.0)
        dmu_db = np.where(mom > 0.0, -mom * np.log(np.maximum(u, 1e-300)), 0.0)
    return ((dedmu * dmu_da).sum(axis=0), (dedmu * dmu_db).sum(axis=0),
            (dedmu * dmu_dc).sum(axis=0))


def train(model: AnfisModel, x, y,
          config: TrainConfig = TrainConfig()) -> tuple[AnfisModel, list[float]]:
    """Hybrid training on the (N, k) targets y: per epoch, a least-squares
    consequent fit then one premise gradient-descent step.  Returns the best
    model seen and the history of the RMSE over all channels.
    """
    current = model.copy()
    history: list[float] = []
    best_model = None
    best_rmse = np.inf
    lr = config.learning_rate
    prev_rmse = np.inf
    for epoch in range(config.epochs):
        current.coeffs, channel_rmse = fit_consequents(current, x, y, config.ridge)
        rmse = float(np.sqrt(np.mean(channel_rmse ** 2)))
        if not np.isfinite(rmse):
            raise TrainingDivergedError(f"non-finite training loss at epoch {epoch}")
        history.append(rmse)
        if rmse < best_rmse:
            best_rmse = rmse
            best_model = current.copy()
        if rmse > prev_rmse:
            lr *= DECAY
        prev_rmse = rmse
        if lr > 0.0 and epoch < config.epochs - 1:
            ga, gb, gc = premise_gradient(current, x, y)
            # normalize the step so the learning rate is scale-free
            gnorm = np.sqrt(float(ga @ ga + gb @ gb + gc @ gc))
            if not np.isfinite(gnorm):
                raise TrainingDivergedError(f"non-finite premise gradient at epoch {epoch}")
            if gnorm > 0.0:
                step = lr / gnorm
                current.a = np.maximum(current.a - step * ga, MIN_WIDTH)
                current.b = np.maximum(current.b - step * gb, MIN_SLOPE)
                current.c = current.c - step * gc
    return best_model, history
