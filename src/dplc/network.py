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
denominator guard are the constants ADAM_R1, ADAM_R2 and ADAM_EPS.  The
fitted network is recentered so its average over the training z is zero.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalDivergence
from .survival import SurvivalDataset, cox_terms

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


def _forward_cached(net: Network, z: np.ndarray, train: bool, rng):
    """Forward pass returning raw outputs and the per-layer caches.

    Cache l is (input of layer l, gate of layer l).  In train mode a hidden
    layer's gate is its ReLU derivative times its dropout mask, so the
    backward pass multiplies by it once; the output layer's gate, and every
    gate in eval mode, is None.  With dropout, the uniforms of all hidden
    layers come from one rng.random call, split layer by layer in order
    (the same values and stream position as one draw per layer).
    """
    n_layers = len(net.weights)
    rate = net.arch.dropout_rate
    masks = []
    if train and rate > 0.0 and n_layers > 1:
        n, at = z.shape[0], 0
        widths = [w.shape[0] for w in net.weights[:-1]]
        flat = (rng.random(n * sum(widths)) >= rate) / (1.0 - rate)
        for width in widths:
            masks.append(flat[at:at + n * width].reshape(n, width))
            at += n * width
    a = z
    caches = []
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        pre = a @ w.T + b
        gate = None
        if l == n_layers - 1:
            out = pre
        else:
            out = np.maximum(pre, 0.0)
            if train:
                gate = pre > 0.0
                if masks:
                    out = out * masks[l]
                    gate = gate * masks[l]
        caches.append((a, gate))
        a = out
    return a[:, 0], caches


def forward(net: Network, z_batch) -> np.ndarray:
    """Evaluation outputs for a batch of z rows.

    No dropout is applied and the centering offset is subtracted; training
    passes with dropout run inside `loss_and_grads`.
    """
    z = np.atleast_2d(np.asarray(z_batch, dtype=float))
    if z.shape[1] != net.input_dim:
        raise ValueError("z has %d columns, network expects %d"
                         % (z.shape[1], net.input_dim))
    out, _ = _forward_cached(net, z, False, None)
    return out - net.center_offset


def loss_and_grads(net: Network, dataset: SurvivalDataset, beta_fixed,
                   rng=None, *, out=None):
    """Partial-likelihood loss and its gradients for every weight and bias.

    The penalty does not involve the network, so this is the full loss
    gradient.  One dropout mask per hidden layer is sampled here and shared
    between the forward and backward passes.  The gradient is written into
    one flat vector laid out like net.params (out, if given, else a new
    one), and returned as per-layer (weight, bias) views into it.
    """
    beta_fixed = np.asarray(beta_fixed, dtype=float)
    if net.arch.dropout_rate > 0.0 and rng is None:
        raise ValueError("dropout needs an rng")
    g_raw, caches = _forward_cached(net, dataset.z, True, rng)
    loss, resid, _ = cox_terms(dataset.x @ beta_fixed + g_raw, dataset)

    grad = np.empty_like(net.params) if out is None else out
    grads_w, grads_b = _layer_views(
        grad, [(w.shape, b.shape) for w, b in zip(net.weights, net.biases)])
    delta = (-resid / dataset.n)[:, None]
    for l in range(len(net.weights) - 1, -1, -1):
        inputs, _ = caches[l]
        np.matmul(delta.T, inputs, out=grads_w[l])
        delta.sum(axis=0, out=grads_b[l])
        if l > 0:
            delta = delta @ net.weights[l]
            delta *= caches[l - 1][1]
    return loss, list(zip(grads_w, grads_b))


def adam_fit(net: Network, dataset: SurvivalDataset, beta_fixed, gamma: float,
             inner_steps: int = 20, rng=None, moments=None) -> Network:
    """Run inner_steps Adam updates at step size gamma, beta held fixed.

    Each step updates the whole of net.params at once, with the decay
    rates ADAM_R1 and ADAM_R2 and the denominator guard ADAM_EPS.  moments
    carries the Adam state between calls: a dict with the first and second
    moments "m" and "v", flat vectors laid out like net.params, and the
    step count "t", all updated in place.  An empty dict is filled with
    zero moments at t = 0; with moments=None the moments start at zero and
    are dropped on return.  So two calls that share one moments dict (and
    one rng) take the same steps as one call running both step counts.
    Raises NumericalDivergence when the loss or a step is not finite.  The
    returned network is recentered on the training z.
    """
    if inner_steps < 1:
        raise ValueError("inner_steps must be >= 1")
    if not 0.0 < gamma < np.inf:
        raise ValueError("gamma must be finite and > 0")
    if moments is None:
        moments = {}
    if not moments:
        moments["m"] = np.zeros_like(net.params)
        moments["v"] = np.zeros_like(net.params)
        moments["t"] = 0
    m, v, params = moments["m"], moments["v"], net.params
    grad = np.empty_like(params)

    for _ in range(inner_steps):
        loss, _ = loss_and_grads(net, dataset, beta_fixed, rng, out=grad)
        if not np.isfinite(loss):
            raise NumericalDivergence("training diverged")
        moments["t"] += 1
        bc1 = 1.0 - ADAM_R1 ** moments["t"]
        bc2 = 1.0 - ADAM_R2 ** moments["t"]
        m *= ADAM_R1
        m += (1.0 - ADAM_R1) * grad
        v *= ADAM_R2
        v += (1.0 - ADAM_R2) * grad ** 2
        step = gamma * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        params -= step
        if not np.isfinite(step @ step):
            raise NumericalDivergence("training diverged")
    return center(net, dataset.z)


def center(net: Network, z_train) -> Network:
    """Set the offset so evaluation outputs average to zero on z_train."""
    z = np.atleast_2d(np.asarray(z_train, dtype=float))
    raw, _ = _forward_cached(net, z, train=False, rng=None)
    net.center_offset = float(raw.mean())
    return net


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
