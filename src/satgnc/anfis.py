"""First-order Takagi-Sugeno neuro-fuzzy inference core.

Five-layer forward pass (memberships -> rule firing -> normalization ->
weighted linear consequents -> sum) over a full grid-partition rule base,
trained by the classic hybrid rule: a linear least-squares solve for the
consequent coefficients each epoch, followed by one gradient-descent step
on the generalized-bell membership parameters.

The premise is held in one form: flat (total MFs,) arrays of widths,
slopes and centres, laid out input by input, which the firing layers,
the gradient, training and persistence all read.  The forward pass and
training work on single-output models.  A model may also carry a
(k, n_rules, n_inputs + 1) stack of consequents, k output channels over
one shared premise; that is how the role bundles store their channels,
and save_model/load_model persist either form.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

__all__ = [
    "AnfisModel",
    "TrainingSet",
    "TrainConfig",
    "TrainingDivergedError",
    "ModelFormatError",
    "bell",
    "grid_partition_init",
    "forward_batch",
    "normalized_firing",
    "design_matrix",
    "lse_consequents",
    "linear_consequent_prior",
    "solve_consequents",
    "premise_gradient",
    "train",
    "save_model",
    "load_model",
    "MODEL_FORMAT_VERSION",
]

MODEL_FORMAT_VERSION = 1
FIRING_FLOOR = 1e-300
MIN_WIDTH = 1e-9
MIN_SLOPE = 0.1


class TrainingDivergedError(RuntimeError):
    """Raised when the hybrid training loop produces a non-finite loss."""


class ModelFormatError(ValueError):
    """Raised on malformed or version-incompatible model files."""


def bell(x, a, b, c):
    """Generalized bell membership: 1 / (1 + |((x-c)/a)|^(2b)).

    An overflowing power far from the center correctly saturates to 0.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.abs((np.asarray(x, dtype=float) - c) / a) ** (2.0 * b))


@dataclass
class AnfisModel:
    """Premise and consequent parameters over a full Cartesian rule grid.

    The premise is three flat (total MFs,) arrays a (width), b (slope
    exponent) and c (center), laid out input by input: input i's functions
    are a[start:stop] for (start, stop) = bounds[i], and columns[j] is the
    input that function j reads.  Rules run in row-major order over the
    inputs' MF indices (the first input slowest); order maps each rule to
    its position in the firing product that _layers builds.  Consequents
    are one (n_inputs + 1) row per rule: linear coefficients followed by
    the bias; a multi-output model stacks k such tables as
    (k, n_rules, n_inputs + 1).
    """
    mfs_per_input: tuple[int, ...]
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    coeffs: np.ndarray
    input_ranges: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        mfs = self.mfs_per_input = tuple(int(m) for m in self.mfs_per_input)
        self.a, self.b, self.c = (np.asarray(p, dtype=float) for p in (self.a, self.b, self.c))
        if not self.a.shape == self.b.shape == self.c.shape == (sum(mfs),):
            raise ValueError(f"premise arrays of shapes {self.a.shape}, {self.b.shape} and "
                             f"{self.c.shape} do not hold the {sum(mfs)} membership "
                             f"functions of mfs_per_input {mfs}")
        stops = np.cumsum(mfs).tolist()
        self.bounds = tuple(zip([0] + stops[:-1], stops))
        self.columns = np.repeat(np.arange(len(mfs)), mfs)
        layout = np.arange(self.n_rules).reshape(mfs[::-1])
        self.order = layout.transpose(range(len(mfs) - 1, -1, -1)).ravel()

    @property
    def n_inputs(self) -> int:
        return len(self.mfs_per_input)

    @property
    def n_rules(self) -> int:
        return math.prod(self.mfs_per_input)

    def copy(self) -> "AnfisModel":
        return replace(self, a=self.a.copy(), b=self.b.copy(), c=self.c.copy(),
                       coeffs=self.coeffs.copy(), input_ranges=self.input_ranges.copy(),
                       metadata=dict(self.metadata))


@dataclass
class TrainingSet:
    """Input/target pairs of a single-output fit."""
    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        self.targets = np.asarray(self.targets, dtype=float).ravel()
        if len(self.targets) != self.inputs.shape[0]:
            raise ValueError("inputs and targets disagree on sample count")

    def __len__(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    learning_rate: float = 0.01
    decay: float = 0.5          # step-decay factor applied when epoch RMSE worsens
    ridge: float = 1e-8
    linear_prior: bool = True   # shrink consequents toward the global linear fit

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate < 0.0:
            raise ValueError("learning rate must be nonnegative")
        if self.ridge < 0.0:
            raise ValueError("ridge must be nonnegative")


def grid_partition_init(ranges, mfs_per_input) -> AnfisModel:
    """Evenly spaced bell MFs over each input range; zero consequents.

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
    coeffs = np.zeros((math.prod(mfs_per_input), ranges.shape[0] + 1))
    return AnfisModel(mfs_per_input, np.concatenate(a), np.full(sum(mfs_per_input), 2.0),
                      np.concatenate(c), coeffs, ranges.copy())


def _layers(model: AnfisModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Layers 1-2 for the rows of a 2-D x: all memberships (N, total MFs)
    from one bell evaluation, and the (N, n_rules) firing strengths in rule
    order.

    The firing vector is a running Kronecker product that multiplies input
    by input, left to right.  Each new input's memberships scale whole rows
    of the partial product, so the newest input ends up outermost; one
    gather then restores the rule order.
    """
    mu = bell(x[:, model.columns], model.a, model.b, model.c)
    (start, stop), *rest = model.bounds
    w = mu[:, start:stop]
    for start, stop in rest:
        w = (mu[:, start:stop, None] * w[:, None, :]).reshape(len(mu), -1)
    return mu, np.take(w, model.order, axis=1)


def _normalize(w: np.ndarray) -> np.ndarray:
    """Layer 3, over the rules of each sample's firing strengths.  If every
    rule underflows for a sample, that row falls back to uniform weights
    (with a diagnostic counting such rows) instead of dividing by zero."""
    s = w.sum(axis=-1, keepdims=True)
    dead = s < FIRING_FLOOR
    if dead.any():
        warnings.warn(f"{int(dead.sum())} sample(s) fired no rule above the underflow "
                      "floor; using uniform rule weights", stacklevel=2)
        w = np.where(dead, 1.0, w)
        s = np.where(dead, float(w.shape[-1]), s)
    return w / s


def normalized_firing(model: AnfisModel, x: np.ndarray) -> np.ndarray:
    """Layer-3 outputs: (N, n_rules) normalized firing strengths of a model."""
    return _normalize(_layers(model, np.atleast_2d(np.asarray(x, dtype=float)))[1])


def _rule_outputs(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-rule linear consequents f_r(x), shape (N, n_rules).

    Each row is its own vector-matrix product, so a sample's output does not
    depend on the batch it is evaluated in.
    """
    return (x[:, None, :] @ coeffs[:, :-1].T)[:, 0] + coeffs[:, -1]


def _check_inputs(model: AnfisModel, x) -> np.ndarray:
    x = np.ascontiguousarray(np.atleast_2d(np.asarray(x, dtype=float)))
    if x.shape[1] != model.n_inputs:
        raise ValueError(f"expected {model.n_inputs} inputs, got {x.shape[1]}")
    return x


def forward_batch(model: AnfisModel, x: np.ndarray) -> np.ndarray:
    """Output of a single-output model for each row of x."""
    x = _check_inputs(model, x)
    return (_normalize(_layers(model, x)[1]) * _rule_outputs(model.coeffs, x)).sum(axis=1)


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


def solve_consequents(a_mat: np.ndarray, targets: np.ndarray, ridge: float,
                      prior: np.ndarray | None = None) -> np.ndarray:
    """Ridge (or minimum-norm) linear solve shared by all output channels.

    targets may be (N,) or (N, k); the result has matching trailing shape.
    With a prior, the ridge penalty shrinks toward it instead of zero.
    """
    if prior is not None:
        return prior + solve_consequents(a_mat, targets - a_mat @ prior, ridge)
    if ridge > 0.0:
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


def lse_consequents(model: AnfisModel, data: TrainingSet, ridge: float = 1e-8,
                    prior: np.ndarray | None = None) -> tuple[AnfisModel, float]:
    """Optimal consequents for the current premises; returns (model, RMSE)."""
    if len(data) == 0:
        raise ValueError("training set is empty")
    n_params = model.n_rules * (model.n_inputs + 1)
    if len(data) < n_params:
        warnings.warn(f"{len(data)} samples for {n_params} consequent parameters; "
                      "the least-squares problem is underdetermined", stacklevel=2)
    a_mat = design_matrix(model, data.inputs)
    if prior is not None:
        prior = np.asarray(prior, dtype=float).reshape(n_params)
    sol = solve_consequents(a_mat, data.targets, ridge, prior)
    out = model.copy()
    out.coeffs = sol.reshape(model.n_rules, model.n_inputs + 1)
    resid = a_mat @ sol - data.targets
    return out, float(np.sqrt(np.mean(resid ** 2)))


def premise_gradient(model: AnfisModel, data: TrainingSet):
    """Gradient of the summed squared error w.r.t. all (a, b, c).

    Analytic backpropagation through the five layers.  Returns three flat
    (total MFs,) arrays in the layout of model.a / model.b / model.c.
    """
    x = _check_inputs(model, data.inputs)
    mu, w = _layers(model, x)
    s = w.sum(axis=1, keepdims=True)
    s = np.maximum(s, FIRING_FLOOR)
    wbar = w / s
    f = _rule_outputs(model.coeffs, x)
    y = (wbar * f).sum(axis=1)
    g = 2.0 * (y - data.targets)                      # dE/dy per sample
    dedw = (g / s[:, 0])[:, None] * (f - y[:, None])  # dE/dw_r

    # dE/dmu for every MF: dE/dw_r * w_r summed over the rules that use it,
    # over mu.  With the rules as an (N, *mfs_per_input) grid, input i's
    # MF m is the slice at index m of axis i + 1.
    n, mfs = len(x), model.mfs_per_input
    grid = (dedw * w).reshape(n, *mfs)
    dedmu = np.concatenate([np.moveaxis(grid, i + 1, 1).reshape(n, m, -1).sum(axis=2)
                            for i, m in enumerate(mfs)], axis=1) / np.maximum(mu, 1e-300)
    diff = x[:, model.columns] - model.c
    u = (diff / model.a) ** 2
    mom = mu * (1.0 - mu)                             # = mu^2 * u^b
    dmu_da = 2.0 * model.b * mom / model.a
    with np.errstate(divide="ignore", invalid="ignore"):
        dmu_dc = np.where(diff != 0.0, 2.0 * model.b * mom / diff, 0.0)
        dmu_db = np.where(u > 0.0, -mom * np.log(np.maximum(u, 1e-300)), 0.0)
    return ((dedmu * dmu_da).sum(axis=0), (dedmu * dmu_db).sum(axis=0),
            (dedmu * dmu_dc).sum(axis=0))


def train(model: AnfisModel, data: TrainingSet,
          config: TrainConfig = TrainConfig()) -> tuple[AnfisModel, list[float]]:
    """Hybrid training: per epoch, an LSE consequent solve then one premise
    gradient-descent step.  Returns the best model seen and the RMSE history.
    """
    current = model.copy()
    history: list[float] = []
    best_model = None
    best_rmse = np.inf
    lr = config.learning_rate
    prev_rmse = np.inf
    prior = (linear_consequent_prior(current, data.inputs, data.targets)
             if config.linear_prior else None)
    for epoch in range(config.epochs):
        current, rmse = lse_consequents(current, data, config.ridge, prior)
        if not np.isfinite(rmse):
            raise TrainingDivergedError(f"non-finite training loss at epoch {epoch}")
        history.append(rmse)
        if rmse < best_rmse:
            best_rmse = rmse
            best_model = current.copy()
        if rmse > prev_rmse:
            lr *= config.decay
        prev_rmse = rmse
        if lr > 0.0 and epoch < config.epochs - 1:
            ga, gb, gc = premise_gradient(current, data)
            # normalize the step so the learning rate is scale-free
            gnorm = np.sqrt(float(ga @ ga + gb @ gb + gc @ gc))
            if gnorm > 0.0 and np.isfinite(gnorm):
                step = lr / gnorm
                current.a = np.maximum(current.a - step * ga, MIN_WIDTH)
                current.b = np.maximum(current.b - step * gb, MIN_SLOPE)
                current.c = current.c - step * gc
    # training metadata travels with the model file
    best_model.metadata.update({
        "epochs": config.epochs,
        "learning_rate": config.learning_rate,
        "ridge": config.ridge,
        "final_rmse": best_rmse,
    })
    return best_model, history


def save_model(model: AnfisModel, path) -> None:
    """Serialize to a self-describing JSON document (bit-exact round trip)."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "n_inputs": model.n_inputs,
        "mfs_per_input": list(model.mfs_per_input),
        "input_ranges": model.input_ranges.tolist(),
        "premise": [
            {"input": i, "a": model.a[start:stop].tolist(),
             "b": model.b[start:stop].tolist(), "c": model.c[start:stop].tolist()}
            for i, (start, stop) in enumerate(model.bounds)
        ],
        "consequents": model.coeffs.tolist(),
        "metadata": model.metadata,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path) -> AnfisModel:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"malformed model file {path}: {exc}") from exc
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format version {version!r} in {path} "
            f"(expected {MODEL_FORMAT_VERSION})")
    try:
        # the file holds one premise entry per input; the model holds them end to end
        a, b, c = (np.concatenate([np.asarray(p[k], dtype=float) for p in doc["premise"]])
                   for k in "abc")
        model = AnfisModel(
            mfs_per_input=tuple(doc["mfs_per_input"]),
            a=a, b=b, c=c,
            coeffs=np.asarray(doc["consequents"], dtype=float),
            input_ranges=np.asarray(doc["input_ranges"], dtype=float),
            metadata=doc.get("metadata", {}),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model file {path}: {exc}") from exc
    if (model.coeffs.ndim not in (2, 3)
            or model.coeffs.shape[-2:] != (model.n_rules, model.n_inputs + 1)):
        raise ModelFormatError(f"inconsistent consequent table in {path}")
    return model
