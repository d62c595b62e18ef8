"""Network forward/backward against finite differences and hand cases."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from dplc import (Network, NetworkArch, NumericalDivergence, adam_fit,
                  center, cox_terms, forward, init_network, network_from_dict,
                  network_to_dict, zero_network)
from dplc.network import ADAM_EPS, _TrainPass

from conftest import (fd_close, make_dataset, naive_neg_log_pl,
                      random_instance, train_pass)


class ZeroRng:
    """Stub rng whose draws force every dropout mask to drop."""

    def random(self, out):
        out[:] = 0.0
        return out


def train_forward(net, z, rng):
    """Train-mode raw outputs of net on z, in z's row order (one training
    pass's forward, which follows the dataset's stored rows)."""
    n = len(z)
    ds = make_dataset(np.ones(n), np.zeros(n), z=z)
    out = np.empty(n)
    out[ds.rows] = _TrainPass(net, ds, np.zeros(1), rng).forward()
    return out


def hand_net(w1, b1, w2, b2, rate=0.0):
    arch = NetworkArch(hidden_widths=(np.asarray(w1).shape[0],),
                       dropout_rate=rate)
    return Network(arch=arch,
                   weights=[np.asarray(w1, float), np.asarray(w2, float)],
                   biases=[np.asarray(b1, float), np.asarray(b2, float)])


class TestInit:
    def test_biases_zero(self):
        net = init_network(NetworkArch((4, 2), 0.0), 3, seed=0)
        assert all(np.all(b == 0.0) for b in net.biases)

    def test_xavier_bound(self):
        net = init_network(NetworkArch((4,), 0.0), 2, seed=1)
        assert np.all(np.abs(net.weights[0]) <= 1.0)  # sqrt(6/(2+4)) = 1
        bound2 = np.sqrt(6.0 / (4 + 1))
        assert np.all(np.abs(net.weights[1]) <= bound2)

    def test_deterministic(self):
        a = init_network(NetworkArch((5, 5), 0.0), 3, seed=42)
        b = init_network(NetworkArch((5, 5), 0.0), 3, seed=42)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))

    def test_rejects_bad_arch(self):
        with pytest.raises(ValueError):
            init_network(NetworkArch((4,), 0.0), 0, seed=0)
        with pytest.raises(ValueError):
            NetworkArch((0,))
        with pytest.raises(ValueError):
            NetworkArch((4,), dropout_rate=1.0)


class TestForward:
    def test_zero_net_outputs_zero(self):
        net = zero_network(3)
        out = forward(net, np.random.default_rng(0).standard_normal((7, 3)))
        assert np.all(out == 0.0)

    def test_train_equals_eval_without_dropout(self, rng):
        net = init_network(NetworkArch((4, 4), 0.0), 3, seed=2)
        z = rng.standard_normal((9, 3))
        assert np.array_equal(train_forward(net, z, None), forward(net, z))

    def test_hand_relu_composition(self):
        net = hand_net([[1.0, 0.0]], [0.0], [[1.0]], [0.0])
        assert forward(net, [[-3.0, 17.0]])[0] == 0.0
        assert forward(net, [[2.0, 5.0]])[0] == 2.0

    def test_eval_subtracts_offset(self):
        net = hand_net([[1.0, 0.0]], [0.0], [[1.0]], [0.0])
        net.center_offset = 0.75
        assert forward(net, [[2.0, 0.0]])[0] == pytest.approx(1.25)
        # two rows: a dataset needs at least as many rows as z columns
        raw = train_forward(net, np.array([[2.0, 0.0], [2.0, 0.0]]), None)
        assert raw[0] == pytest.approx(2.0)

    def test_eval_deterministic_bitwise(self, rng):
        net = init_network(NetworkArch((8, 8), 0.0), 4, seed=5)
        z = rng.standard_normal((20, 4))
        assert np.array_equal(forward(net, z), forward(net, z))

    def test_dimension_mismatch(self):
        net = init_network(NetworkArch((4,), 0.0), 3, seed=0)
        with pytest.raises(ValueError, match="columns"):
            forward(net, np.zeros((2, 5)))

    def test_dropout_expectation_matches_eval(self):
        net = init_network(NetworkArch((6,), dropout_rate=0.4), 2, seed=3)
        z = np.random.default_rng(8).standard_normal((5, 2))
        ds = make_dataset(np.ones(5), np.zeros(5), z=z)
        raw_eval = forward(net, ds.z)  # offset is 0 after init
        rng = np.random.default_rng(123)
        train = _TrainPass(net, ds, np.zeros(1), rng)
        draws = np.stack([train.forward().copy() for _ in range(10_000)])
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        assert np.all(np.abs(mean - raw_eval) <= 3.0 * se + 1e-12)


class TestGradParams:
    def test_no_events_gives_zero_grads(self):
        ds = make_dataset([1.0, 2.0], [0, 0], z=np.array([[0.3], [0.5]]))
        net = init_network(NetworkArch((3,), 0.0), 1, seed=0)
        _, grads = train_pass(net, ds, np.zeros(ds.p))
        assert all(np.all(gw == 0.0) and np.all(gb == 0.0)
                   for gw, gb in grads)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_finite_differences(self, seed):
        ds, _ = random_instance(seed, n=12, p=2, r=2)
        net = init_network(NetworkArch((3,), 0.0), 2, seed=seed)
        beta = np.array([0.4, -0.2])
        _, grads = train_pass(net, ds, beta)

        def loss_with(net_mod):
            g = forward(net_mod, ds.z)
            return naive_neg_log_pl(ds.times, ds.status, ds.x @ beta + g)

        step = 1e-6
        for l in range(len(net.weights)):
            gw, gb = grads[l]
            for r_ in range(net.weights[l].shape[0]):
                for c in range(net.weights[l].shape[1]):
                    probe = net.copy()
                    probe.weights[l][r_, c] += step
                    up = loss_with(probe)
                    probe.weights[l][r_, c] -= 2 * step
                    down = loss_with(probe)
                    fd = (up - down) / (2 * step)
                    assert fd_close(gw[r_, c], fd)
                probe = net.copy()
                probe.biases[l][r_] += step
                up = loss_with(probe)
                probe.biases[l][r_] -= 2 * step
                down = loss_with(probe)
                fd = (up - down) / (2 * step)
                assert fd_close(gb[r_], fd)

    def test_dropout_requires_rng(self):
        ds, _ = random_instance(0, n=6, p=1, r=2)
        net = init_network(NetworkArch((4,), dropout_rate=0.4), 2, seed=0)
        with pytest.raises(ValueError, match="rng"):
            train_pass(net, ds, np.zeros(ds.p))

    def test_fully_dropped_layer_kills_incoming_gradients(self):
        ds, _ = random_instance(1, n=10, p=1, r=2)
        net = init_network(NetworkArch((4,), dropout_rate=0.5), 2, seed=2)
        _, grads = train_pass(net, ds, np.zeros(ds.p), rng=ZeroRng())
        gw1, gb1 = grads[0]
        assert np.all(gw1 == 0.0) and np.all(gb1 == 0.0)


class TestAdamFit:
    def _toy(self, seed=0, n=40):
        ds, _ = random_instance(seed, n=n, p=1, r=2)
        return ds

    def test_first_step_is_scaled_sign_of_gradient(self):
        ds = self._toy()
        net = init_network(NetworkArch((3,), 0.0), 2, seed=4)
        beta = np.zeros(ds.p)
        _, grads = train_pass(net, ds, beta)
        before = net.copy()
        gamma = 0.05
        adam_fit(net, ds, beta, gamma, inner_steps=1)
        for l, (gw, _) in enumerate(grads):
            step = before.weights[l] - net.weights[l]
            expected = gamma * gw / (np.abs(gw) + ADAM_EPS)
            assert np.allclose(step, expected, rtol=1e-10, atol=1e-15)

    def test_zero_gradient_leaves_parameters(self):
        ds = make_dataset([1.0, 2.0, 3.0], [0, 0, 0],
                          z=np.random.default_rng(0).standard_normal((3, 2)))
        net = init_network(NetworkArch((3,), 0.0), 2, seed=1)
        before = net.copy()
        moments = {}
        adam_fit(net, ds, np.zeros(ds.p), 0.01, inner_steps=5,
                 moments=moments)
        assert all(np.array_equal(a, b)
                   for a, b in zip(net.weights, before.weights))
        assert moments["t"] == 5  # zero steps do not end the loop early

    def test_returns_the_recentered_training_outputs(self):
        ds = self._toy()
        net = init_network(NetworkArch((4, 3), 0.3), 2, seed=6)
        g_vals = adam_fit(net, ds, np.zeros(ds.p), 0.05, inner_steps=3,
                          rng=np.random.default_rng(2))
        assert np.array_equal(g_vals, forward(net, ds.z))
        assert abs(g_vals.mean()) < 1e-12

    @pytest.mark.parametrize("gamma", [0.0, -0.01, np.nan, np.inf])
    def test_rejects_bad_gamma(self, gamma):
        ds = self._toy()
        net = init_network(NetworkArch((3,), 0.0), 2, seed=0)
        with pytest.raises(ValueError, match="gamma must be finite and > 0"):
            adam_fit(net, ds, np.zeros(ds.p), gamma)

    def test_loss_decreases_on_linear_toy(self):
        rng = np.random.default_rng(6)
        n = 300
        z = rng.standard_normal((n, 2))
        alpha = np.array([1.0, -0.8])
        eta0 = z @ alpha
        u = rng.exponential(size=n) / np.exp(eta0)
        ds = make_dataset(u + 1e-9, np.ones(n), x=np.zeros((n, 1)), z=z)
        net = init_network(NetworkArch((4, 4), 0.0), 2, seed=7)
        beta = np.zeros(1)

        def q_now():
            g = forward(net, ds.z)
            return naive_neg_log_pl(ds.times, ds.status, g)

        q0 = q_now()
        adam_fit(net, ds, beta, 0.02, inner_steps=200)
        assert q_now() < q0

    def test_centered_after_fit(self):
        ds = self._toy(seed=3, n=60)
        net = init_network(NetworkArch((4,), 0.0), 2, seed=9)
        adam_fit(net, ds, np.zeros(ds.p), 0.01, inner_steps=10)
        assert abs(forward(net, ds.z).mean()) < 1e-10

    def test_shared_moments_continue_the_same_steps(self):
        ds = self._toy(seed=5, n=60)
        beta = np.full(ds.p, 0.3)
        one = init_network(NetworkArch((4, 4), 0.3), 2, seed=2)
        two = one.copy()
        adam_fit(one, ds, beta, 0.03, inner_steps=20,
                 rng=np.random.default_rng(8))
        moments, rng = {}, np.random.default_rng(8)
        for _ in range(2):
            adam_fit(two, ds, beta, 0.03, inner_steps=10, rng=rng,
                     moments=moments)
        assert moments["t"] == 20
        assert all(np.array_equal(a, b)
                   for a, b in zip(one.weights + one.biases,
                                   two.weights + two.biases))
        assert one.center_offset == two.center_offset

    def test_divergence_raises(self):
        ds = self._toy()
        net = init_network(NetworkArch((3,), 0.0), 2, seed=0)
        net.weights[0][:] = np.nan
        with pytest.raises(NumericalDivergence):
            adam_fit(net, ds, np.zeros(ds.p), 0.01, inner_steps=2)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_predictor_raises_divergence(self, value):
        # x @ beta_fixed is not finite: the loss check reports it, where
        # cox_terms would raise its ValueError.
        ds = self._toy()
        net = init_network(NetworkArch((3,), 0.3), 2, seed=0)
        with pytest.raises(NumericalDivergence):
            adam_fit(net, ds, np.full(ds.p, value), 0.01, inner_steps=2,
                     rng=np.random.default_rng(0))


class TestCenter:
    def test_constant_net_centers_to_zero(self):
        net = hand_net([[0.0, 0.0]], [0.0], [[0.0]], [3.25])
        z = np.random.default_rng(0).standard_normal((11, 2))
        center(net, z)
        assert np.all(forward(net, z) == 0.0)

    def test_returns_forward_outputs(self, rng):
        net = init_network(NetworkArch((5, 5), 0.0), 3, seed=11)
        net.center_offset = 2.5
        z = rng.standard_normal((50, 3))
        assert np.array_equal(center(net, z), forward(net, z))

    def test_mean_zero_any_net(self, rng):
        net = init_network(NetworkArch((5, 5), 0.0), 3, seed=11)
        z = rng.standard_normal((50, 3))
        center(net, z)
        assert abs(forward(net, z).mean()) < 1e-10

    def test_centering_preserves_differences(self, rng):
        net = init_network(NetworkArch((4,), 0.0), 2, seed=13)
        z = rng.standard_normal((8, 2))
        before = forward(net, z)
        center(net, z)
        after = forward(net, z)
        diffs_before = before[:, None] - before[None, :]
        diffs_after = after[:, None] - after[None, :]
        assert np.allclose(diffs_before, diffs_after, atol=1e-12)


class TestSerialization:
    def test_round_trip_bitwise(self, rng):
        net = init_network(NetworkArch((4, 2), dropout_rate=0.3), 3, seed=21)
        center(net, rng.standard_normal((10, 3)))
        blob = json.dumps(network_to_dict(net))
        back = network_from_dict(json.loads(blob))
        assert back.arch == net.arch
        assert back.center_offset == net.center_offset
        assert all(np.array_equal(a, b)
                   for a, b in zip(back.weights, net.weights))
        z = rng.standard_normal((6, 3))
        assert np.array_equal(forward(back, z), forward(net, z))

    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError):
            network_from_dict({"format": "something-else"})

    def test_rejects_shape_mismatch(self):
        net = init_network(NetworkArch((3,), 0.0), 2, seed=0)
        data = network_to_dict(net)
        data["weights"][0] = [[1.0, 2.0]]
        with pytest.raises(ValueError, match="shape|layer"):
            network_from_dict(data)


def layerwise(arrays):
    """Per-layer (weight, bias) arrays concatenated in params order."""
    return np.concatenate([a.ravel() for pair in arrays for a in pair])


def ones_product(delta, axis):
    """The column sums of delta as the training pass forms them."""
    return np.ones(delta.shape[axis]) @ delta


def reference_train_pass(net, dataset, beta_fixed, rng,
                         bias_grad=ones_product):
    """The per-layer training pass: one dropout draw per hidden layer in the
    forward pass, one (weight, bias) gradient pair per layer backward, the
    bias gradient as bias_grad(delta, axis=0)."""
    a, caches = dataset.z, []
    n_layers, rate = len(net.weights), net.arch.dropout_rate
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        pre = a @ w.T + b
        if l < n_layers - 1:
            act = np.maximum(pre, 0.0)
            mask = None
            if rate > 0.0:
                mask = (rng.random(act.shape) >= rate) / (1.0 - rate)
            caches.append((a, pre, mask))
            a = act if mask is None else act * mask
        else:
            caches.append((a, pre, None))
            a = pre
    loss, grad, _ = cox_terms(dataset.x @ beta_fixed + a[:, 0], dataset)
    grads = [None] * n_layers
    delta = grad[:, None]
    for l in range(n_layers - 1, -1, -1):
        inputs = caches[l][0]
        grads[l] = (delta.T @ inputs, bias_grad(delta, axis=0))
        if l > 0:
            delta = delta @ net.weights[l]
            _, pre_prev, mask_prev = caches[l - 1]
            if mask_prev is not None:
                delta = delta * mask_prev
            delta = delta * (pre_prev > 0.0)
    return loss, grads


def reference_adam_fit(net, dataset, beta_fixed, gamma, inner_steps, rng,
                       moments):
    """The per-layer Adam loop on a namespace of separate layer arrays, at
    Kingma & Ba's decay rates and denominator guard."""
    r1, r2, eps0 = 0.9, 0.999, 1e-8
    if not moments:
        zeros = [(np.zeros_like(w), np.zeros_like(b))
                 for w, b in zip(net.weights, net.biases)]
        moments.update(m=zeros, v=list(zeros), t=0)
    m, v = moments["m"], moments["v"]
    for _ in range(inner_steps):
        _, grads = reference_train_pass(net, dataset, beta_fixed, rng)
        moments["t"] += 1
        bc1 = 1.0 - r1 ** moments["t"]
        bc2 = 1.0 - r2 ** moments["t"]
        for l, (gw, gb) in enumerate(grads):
            (mw, mb), (vw, vb) = m[l], v[l]
            mw = r1 * mw + (1.0 - r1) * gw
            mb = r1 * mb + (1.0 - r1) * gb
            vw = r2 * vw + (1.0 - r2) * gw ** 2
            vb = r2 * vb + (1.0 - r2) * gb ** 2
            m[l], v[l] = (mw, mb), (vw, vb)
            step_w = gamma * (mw / bc1) / (np.sqrt(vw / bc2) + eps0)
            step_b = gamma * (mb / bc1) / (np.sqrt(vb / bc2) + eps0)
            net.weights[l] = net.weights[l] - step_w
            net.biases[l] = net.biases[l] - step_b
    a = dataset.z
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        a = a @ w.T + b
        if l < len(net.weights) - 1:
            a = np.maximum(a, 0.0)
    net.center_offset = float(a[:, 0].mean())


class TestFlatAdamMatchesLayerwise:
    """The flat-vector Adam step against the per-layer loop it replaced."""

    @pytest.mark.parametrize("hidden", [(8, 8), (3,), ()])
    def test_three_calls_bitwise(self, hidden):
        ds, _ = random_instance(4, n=50, p=3, r=3)
        beta = np.array([0.5, 0.0, -0.3])
        net = init_network(NetworkArch(hidden, dropout_rate=0.3), 3, seed=6)
        ref = SimpleNamespace(arch=net.arch,
                              weights=[w.copy() for w in net.weights],
                              biases=[b.copy() for b in net.biases],
                              center_offset=0.0)
        moments, ref_moments = {}, {}
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        for k in range(1, 4):
            adam_fit(net, ds, beta, 0.05 / k, inner_steps=7, rng=rng,
                     moments=moments)
            reference_adam_fit(ref, ds, beta, 0.05 / k, 7, ref_rng,
                               ref_moments)
        assert moments["t"] == ref_moments["t"] == 21
        assert np.array_equal(net.params,
                              layerwise(zip(ref.weights, ref.biases)))
        assert np.array_equal(moments["m"], layerwise(ref_moments["m"]))
        assert np.array_equal(moments["v"], layerwise(ref_moments["v"]))
        assert net.center_offset == ref.center_offset
        assert rng.random() == ref_rng.random()  # same stream position

    def test_gradients_bitwise(self):
        ds, _ = random_instance(2, n=30, p=2, r=2)
        net = init_network(NetworkArch((5, 4), dropout_rate=0.3), 2, seed=1)
        beta = np.array([0.2, -0.1])
        loss, grads = train_pass(net, ds, beta, np.random.default_rng(3))
        ref_loss, ref_grads = reference_train_pass(
            net, ds, beta, np.random.default_rng(3))
        assert loss == ref_loss
        assert np.array_equal(layerwise(grads), layerwise(ref_grads))

    @pytest.mark.parametrize("hidden", [(8, 8), (3,), ()])
    def test_bias_gradients_are_the_delta_sums(self, hidden):
        # The ones-vector product sums in another order than
        # delta.sum(axis=0); it must agree to rounding, relative to the sum
        # of the magnitudes (the output layer's deltas sum to zero).
        ds, _ = random_instance(5, n=240, p=2, r=3)
        net = init_network(NetworkArch(hidden, dropout_rate=0.3), 3, seed=2)
        beta = np.array([0.4, -0.2])
        deltas = []

        def summed(delta, axis):
            deltas.insert(0, delta)  # the backward pass runs last to first
            return delta.sum(axis=axis)

        grads = train_pass(net, ds, beta, np.random.default_rng(4))[1]
        ref_grads = reference_train_pass(
            net, ds, beta, np.random.default_rng(4), bias_grad=summed)[1]
        for (_, bias), (_, ref_bias), delta in zip(grads, ref_grads, deltas):
            assert np.all(np.abs(bias - ref_bias)
                          <= 1e-12 * np.abs(delta).sum(axis=0))


def constructed(kind):
    """A network built the way `kind` names, with its source if it has one."""
    arch = NetworkArch((4, 3), dropout_rate=0.3)
    if kind == "init_network":
        return init_network(arch, 2, seed=5), None
    if kind == "zero_network":
        return zero_network(3), None
    if kind == "network_from_dict":
        data = network_to_dict(init_network(arch, 2, seed=5))
        return network_from_dict(json.loads(json.dumps(data))), None
    if kind == "copy":
        source = init_network(arch, 2, seed=5)
        return source.copy(), source
    rng = np.random.default_rng(0)
    weights = [rng.standard_normal((4, 2)), rng.standard_normal((3, 4)),
               rng.standard_normal((1, 3))]
    biases = [rng.standard_normal(4), rng.standard_normal(3),
              rng.standard_normal(1)]
    return Network(arch=arch, weights=weights, biases=biases), \
        SimpleNamespace(weights=weights, biases=biases, params=None)


KINDS = ["init_network", "zero_network", "network_from_dict", "copy",
         "Network"]


class TestParamsViews:
    @pytest.mark.parametrize("kind", KINDS)
    def test_layers_are_views_of_params(self, kind):
        net, _ = constructed(kind)
        assert net.params.dtype == np.float64 and net.params.ndim == 1
        assert net.params.flags.c_contiguous
        assert all(a.base is net.params for a in net.weights + net.biases)
        # The views tile params in layer order, weights before biases.
        before = layerwise(zip(net.weights, net.biases))
        assert np.array_equal(before, net.params)
        net.params[:] = np.arange(net.params.size)
        assert np.array_equal(layerwise(zip(net.weights, net.biases)),
                              np.arange(net.params.size))

    @pytest.mark.parametrize("kind", ["copy", "Network"])
    def test_shares_no_memory_with_its_source(self, kind):
        net, source = constructed(kind)
        arrays = list(source.weights) + list(source.biases)
        if source.params is not None:
            arrays.append(source.params)
        assert not any(np.shares_memory(net.params, a) for a in arrays)
        snapshot = [a.copy() for a in arrays]
        net.params += 1.0
        assert all(np.array_equal(a, b) for a, b in zip(arrays, snapshot))

    def test_layers_cannot_be_swapped_out(self):
        net = init_network(NetworkArch((4,), 0.0), 2, seed=3)
        with pytest.raises(TypeError):
            net.weights[0] = np.zeros((4, 2))

    def test_in_place_layer_edit_is_seen_by_forward(self):
        net = init_network(NetworkArch((4,), 0.0), 2, seed=3)
        z = np.random.default_rng(1).standard_normal((5, 2))
        before = forward(net, z)
        probe = net.copy()
        probe.weights[1][0, :] += 1.0
        probe.biases[1][0] += 0.5
        assert not np.array_equal(forward(probe, z), before)
        assert np.array_equal(forward(net, z), before)
        assert probe.params[-1] == net.params[-1] + 0.5

    def test_init_draws_each_layer_in_order(self):
        net = init_network(NetworkArch((4, 3), 0.0), 2, seed=8)
        rng = np.random.default_rng(8)
        for w, (fan_in, fan_out) in zip(net.weights, [(2, 4), (4, 3), (3, 1)]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.array_equal(
                w, rng.uniform(-bound, bound, size=(fan_out, fan_in)))

    def test_to_dict_bytes_are_the_layer_lists(self):
        net, source = constructed("Network")
        net.center_offset = 0.125
        expected = {
            "format": "dplc-network", "version": 1, "input_dim": 2,
            "hidden_widths": [4, 3], "dropout_rate": 0.3,
            "weights": [w.tolist() for w in source.weights],
            "biases": [b.tolist() for b in source.biases],
            "center_offset": 0.125,
        }
        blob = json.dumps(network_to_dict(net), indent=2)
        assert blob == json.dumps(expected, indent=2)
        again = network_to_dict(network_from_dict(json.loads(blob)))
        assert json.dumps(again, indent=2) == blob
