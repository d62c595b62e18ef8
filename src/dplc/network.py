"""Small fully connected ReLU network for the nonparametric risk term.

The network maps the z covariates to a scalar log-hazard contribution.
Hidden layers use ReLU with inverted dropout (survivors scaled at train
time, so evaluation is a plain forward pass); the output layer is linear
because the risk term must take both signs.  All weights and biases are
views into one flat parameter vector, `Network.params`, and gradients and
Adam moments are flat vectors with the same layout, so one Adam step
updates every layer in a few whole-vector operations.  Training runs a
fixed number of Adam steps at a caller's step size on the
partial-likelihood loss with the linear coefficients held fixed,
optionally continuing a caller's Adam moments; the decay rates and the
denominator guard are the constants ADAM_R1, ADAM_R2 and ADAM_EPS.
`adam_fit` runs its steps through one training pass, `_TrainPass`,
which is set up once per call and then writes each forward pass, each
dropout draw, the loss and gradient of the Cox kernel (not its
curvature) and the backward pass into buffers it already holds; the Adam
update is Kingma & Ba's expressions over the flat vectors.  The fitted
network is recentered so its average over the training z is zero.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalDivergence
from .survival import SurvivalDataset, _loss_terms

# Adam's moment decay rates and denominator guard (Kingma & Ba 2015)
ADAM_R1 = 0.9
ADAM_R2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class NetworkArch:
    """Layer plan: hidden widths and dropout rate.

    The input width is the number of z columns of the data the network is
    built for, so it is an argument of `init_network`, not a setting.
    """

    hidden_widths: tuple = (8, 8)
    dropout_rate: float = 0.3

    def __post_init__(self):
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))
        if any(w < 1 for w in self.hidden_widths):
            raise ValueError("hidden widths must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")

    def layer_dims(self, input_dim: int) -> tuple:
        """Widths from the input layer through the scalar output."""
        if input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        return (input_dim,) + self.hidden_widths + (1,)


def _layer_views(flat: np.ndarray, shapes) -> tuple:
    """Tuples of the per-layer weight and bias views into flat, layer by
    layer, each layer's weight matrix (row-major) followed by its bias."""
    weights, biases, at = [], [], 0
    for w_shape, b_shape in shapes:
        size = w_shape[0] * w_shape[1]
        weights.append(flat[at:at + size].reshape(w_shape))
        at += size
        biases.append(flat[at:at + b_shape[0]])
        at += b_shape[0]
    return tuple(weights), tuple(biases)


@dataclass
class Network:
    """Weights, biases, and the centering offset subtracted at evaluation.

    All parameters live in one contiguous float64 vector `params`, and
    `weights[l]` and `biases[l]` are views into it, so an in-place edit of
    either is an edit of `params` and an update of `params` moves every
    layer.  The arrays passed in are copied, never kept, and `weights` and
    `biases` are stored as tuples, so a layer cannot be swapped for an
    array outside `params`.
    """

    arch: NetworkArch
    weights: Sequence
    biases: Sequence
    center_offset: float = 0.0
    params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pairs = [(np.asarray(w, dtype=float), np.asarray(b, dtype=float))
                 for w, b in zip(self.weights, self.biases)]
        self.params = np.concatenate([a.ravel() for pair in pairs for a in pair])
        self.weights, self.biases = _layer_views(
            self.params, [(w.shape, b.shape) for w, b in pairs])

    @property
    def input_dim(self) -> int:
        """Number of z columns the first layer takes."""
        return self.weights[0].shape[1]

    def copy(self) -> "Network":
        return Network(arch=self.arch, weights=self.weights,
                       biases=self.biases, center_offset=self.center_offset)


def init_network(arch: NetworkArch, input_dim: int, seed) -> Network:
    """Xavier-uniform weights on +-sqrt(6 / (fan_in + fan_out)), zero biases."""
    dims = arch.layer_dims(input_dim)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return Network(arch=arch, weights=weights, biases=biases, center_offset=0.0)


def zero_network(input_dim: int) -> Network:
    """Single linear layer with all-zero parameters: g identically zero.

    Used as the disabled nonparametric term when fitting the plain
    penalized Cox baseline.
    """
    arch = NetworkArch(hidden_widths=(), dropout_rate=0.0)
    return Network(arch=arch, weights=[np.zeros((1, input_dim))],
                   biases=[np.zeros(1)], center_offset=0.0)


def _raw_forward(net: Network, z: np.ndarray) -> np.ndarray:
    """Evaluation outputs before the centering offset: no dropout."""
    a = z
    last = len(net.weights) - 1
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        a = a @ w.T + b
        if l < last:
            a = np.maximum(a, 0.0)
    return a[:, 0]


def forward(net: Network, z_batch) -> np.ndarray:
    """Evaluation outputs for a batch of z rows.

    No dropout is applied and the centering offset is subtracted; training
    passes with dropout run inside `adam_fit`.
    """
    z = np.atleast_2d(np.asarray(z_batch, dtype=float))
    if z.shape[1] != net.input_dim:
        raise ValueError("z has %d columns, network expects %d"
                         % (z.shape[1], net.input_dim))
    return _raw_forward(net, z) - net.center_offset


def _split_rows(flat: np.ndarray, n: int, widths) -> list:
    """Consecutive (n, width) views into flat, one per width."""
    views, at = [], 0
    for width in widths:
        views.append(flat[at:at + n * width].reshape(n, width))
        at += n * width
    return views


class _TrainPass:
    """Training passes of one network on one dataset, beta held fixed.

    Built once per `adam_fit` call: it computes
    x @ beta_fixed, lays per-layer (weight, bias) gradient views over the
    flat vector `self.grad` (laid out like net.params), and allocates every
    activation, gate, dropout and backward buffer, so a pass writes only
    into memory it already holds.  Each pass reads the current net.params.
    Hidden layers use ReLU with inverted dropout; a hidden layer's gate is
    its ReLU derivative times its dropout mask, so the backward pass
    multiplies by it once.  The dropout uniforms of all hidden layers come
    from one rng.random call into one buffer, split layer by layer in
    order (the same values and stream position as one draw per layer).
    The loss and its gradient in eta, the output delta, come from
    `survival._loss_terms`, which skips the curvature and the predictor
    checks of `cox_terms`, so passes run with floating-point warnings
    ignored and a non-finite predictor shows up as a non-finite loss,
    which callers check.
    """

    def __init__(self, net: Network, dataset: SurvivalDataset, beta_fixed,
                 rng):
        if net.arch.dropout_rate > 0.0 and rng is None:
            raise ValueError("dropout needs an rng")
        n = dataset.n
        self.net, self.dataset, self.rng = net, dataset, rng
        self.xb = dataset.x @ np.asarray(beta_fixed, dtype=float)
        self.grad = np.empty_like(net.params)
        self.grads_w, self.grads_b = _layer_views(
            self.grad, [(w.shape, b.shape)
                        for w, b in zip(net.weights, net.biases)])
        widths = [w.shape[0] for w in net.weights[:-1]]
        size = n * sum(widths)
        self.dropout = size > 0 and net.arch.dropout_rate > 0.0
        # The activations, gates and dropout masks of all hidden layers are
        # one flat buffer each, in the layout of the one rng.random draw,
        # so the masks and the gates of every layer are each formed in two
        # whole-buffer operations.
        self.acts, self.gates, self.masks = \
            np.empty(size), np.empty(size), np.empty(size)
        self.layer_acts, self.layer_gates, self.layer_masks = (
            _split_rows(flat, n, widths)
            for flat in (self.acts, self.gates, self.masks))
        self.deltas = [np.empty((n, k)) for k in widths]
        self.out = np.empty((n, 1))
        self.eta = np.empty(n)
        self.ones = np.ones(n)

    def forward(self) -> np.ndarray:
        """Train-mode raw outputs (a view into a buffer the next pass
        overwrites), with fresh dropout masks."""
        net = self.net
        scale = 1.0 / (1.0 - net.arch.dropout_rate)
        if self.dropout:  # masks = (u >= rate) / (1 - rate)
            np.greater_equal(self.rng.random(out=self.masks),
                             net.arch.dropout_rate, out=self.masks)
            self.masks *= scale
        a = self.dataset.z
        for l, act in enumerate(self.layer_acts):
            np.dot(a, net.weights[l].T, out=act)
            act += net.biases[l]
            np.maximum(act, 0.0, out=act)
            if self.dropout:
                act *= self.layer_masks[l]
            a = act
        # A unit's gate (pre > 0) * mask is scale where its activation is
        # positive and 0 elsewhere: scale > 1, so a kept positive
        # pre-activation stays positive.
        np.greater(self.acts, 0.0, out=self.gates)
        if self.dropout:
            self.gates *= scale
        np.dot(a, net.weights[-1].T, out=self.out)
        self.out += net.biases[-1]
        return self.out[:, 0]

    def __call__(self) -> float:
        """One forward and backward pass: the gradient goes into self.grad,
        and the partial-likelihood loss is returned."""
        net, dataset = self.net, self.dataset
        np.add(self.xb, self.forward(), out=self.eta)
        loss, grad, _, _ = _loss_terms(self.eta, dataset)
        delta = grad[:, None]
        last = len(net.weights) - 1
        for l in range(last, -1, -1):
            inputs = self.layer_acts[l - 1] if l > 0 else dataset.z
            np.dot(delta.T, inputs, out=self.grads_w[l])
            # the column sums as one BLAS product, a fifth of the time of
            # np.add.reduce(delta, axis=0) at n in the hundreds
            np.dot(self.ones, delta, out=self.grads_b[l])
            if l > 0:
                prev = self.deltas[l - 1]
                if l == last:  # (n, 1) times (1, k): an exact outer product
                    np.multiply(delta, net.weights[l], out=prev)
                else:
                    np.dot(delta, net.weights[l], out=prev)
                prev *= self.layer_gates[l - 1]
                delta = prev
        return loss


def adam_fit(net: Network, dataset: SurvivalDataset, beta_fixed, gamma: float,
             inner_steps: int = 20, rng=None, moments=None) -> np.ndarray:
    """Run inner_steps Adam updates at step size gamma, beta held fixed.

    Each step updates the whole of net.params at once, with the decay
    rates ADAM_R1 and ADAM_R2 and the denominator guard ADAM_EPS; the
    training pass writes into buffers made once per call.  moments
    carries the Adam state between calls: a dict with the first and
    second moments "m" and "v", flat vectors laid out like net.params, and
    the step count "t", all updated in place.  An empty dict is filled
    with zero moments at t = 0; with moments=None the moments start at
    zero and are dropped on return.  So two calls that share one moments
    dict (and one rng) take the same steps as one call running both step
    counts.  Raises NumericalDivergence when the loss (so also the
    predictor) or a step is not finite.  The network is then recentered on
    the training z, and its centered outputs there are returned (see
    center).
    """
    if inner_steps < 1:
        raise ValueError("inner_steps must be >= 1")
    if not 0.0 < gamma < np.inf:
        raise ValueError("gamma must be finite and > 0")
    train = _TrainPass(net, dataset, beta_fixed, rng)
    if moments is None:
        moments = {}
    if not moments:
        moments["m"] = np.zeros_like(net.params)
        moments["v"] = np.zeros_like(net.params)
        moments["t"] = 0
    m, v, params, grad = moments["m"], moments["v"], net.params, train.grad

    with np.errstate(all="ignore"):
        for _ in range(inner_steps):
            if not math.isfinite(train()):
                raise NumericalDivergence("training diverged")
            moments["t"] += 1
            bc1 = 1.0 - ADAM_R1 ** moments["t"]
            bc2 = 1.0 - ADAM_R2 ** moments["t"]
            m *= ADAM_R1
            m += (1.0 - ADAM_R1) * grad
            v *= ADAM_R2
            v += (1.0 - ADAM_R2) * grad**2
            step = gamma * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            params -= step
            if not math.isfinite(step @ step):
                raise NumericalDivergence("training diverged")
    return center(net, dataset.z)


def center(net: Network, z_train) -> np.ndarray:
    """Set the offset so evaluation outputs average to zero on z_train, and
    return those outputs: bit for bit forward(net, z_train)."""
    z = np.atleast_2d(np.asarray(z_train, dtype=float))
    raw = _raw_forward(net, z)
    net.center_offset = float(raw.mean())
    return raw - net.center_offset


NETWORK_FORMAT = "dplc-network"
NETWORK_VERSION = 1


def network_to_dict(net: Network) -> dict:
    """JSON-ready description: architecture, row-major weights, offset."""
    return {
        "format": NETWORK_FORMAT,
        "version": NETWORK_VERSION,
        "input_dim": net.input_dim,
        "hidden_widths": list(net.arch.hidden_widths),
        "dropout_rate": net.arch.dropout_rate,
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
        "center_offset": net.center_offset,
    }


def _is_int(value) -> bool:
    """Whether `value` is an int and not a bool (JSON true loads as one)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    """Whether `value` is an int or float, not a bool, of finite size."""
    # abs() <= max is False for NaN, the infinities and huge integers
    return not isinstance(value, bool) and isinstance(value, (int, float)) \
        and abs(value) <= sys.float_info.max


def network_from_dict(data: dict) -> Network:
    """The network of a network_to_dict record; raises ValueError when the
    record is not one: input_dim and the hidden widths must be integers,
    dropout_rate a number, and the weights, biases and center_offset
    finite numbers."""
    if not isinstance(data, dict) or data.get("format") != NETWORK_FORMAT:
        raise ValueError("not a network record")
    if data.get("version") != NETWORK_VERSION:
        raise ValueError("unsupported network version: %r" % (data.get("version"),))
    widths, rate = data.get("hidden_widths"), data.get("dropout_rate")
    input_dim = data.get("input_dim")
    if not isinstance(widths, list) \
            or not all(_is_int(w) for w in widths + [input_dim]):
        raise ValueError("network input_dim and hidden_widths must be "
                         "integers")
    if isinstance(rate, bool) or not isinstance(rate, (int, float)):
        raise ValueError("network dropout_rate must be a number")
    arch = NetworkArch(hidden_widths=tuple(widths), dropout_rate=rate)
    not_finite = "network weights, biases and center_offset must be " \
        "finite numbers"
    try:
        weights = [np.asarray(w, dtype=float) for w in data["weights"]]
        biases = [np.asarray(b, dtype=float) for b in data["biases"]]
        offset = float(data["center_offset"])
    except OverflowError:  # an integer too large for a float
        raise ValueError(not_finite)
    if not (np.isfinite(offset)
            and all(np.isfinite(a).all() for a in weights + biases)):
        raise ValueError(not_finite)
    dims = arch.layer_dims(input_dim)
    if len(weights) != len(dims) - 1 or len(biases) != len(weights):
        raise ValueError("layer count does not match architecture")
    for l, (w, b) in enumerate(zip(weights, biases)):
        if w.shape != (dims[l + 1], dims[l]) or b.shape != (dims[l + 1],):
            raise ValueError("layer %d has wrong shape" % l)
    return Network(arch=arch, weights=weights, biases=biases,
                   center_offset=offset)
