import copy
import io
import pickle

import numpy as np
import pytest

from tabevent import neural, oracle
from tabevent.neural import AdamState, ModelConfig, Parameters, UNK


def tiny_cfg(**kwargs):
    vocab = {UNK: 0, "a": 1, "b": 2, "c": 3}
    defaults = dict(vocab=vocab, num_labels=3, embed_dim=4, lstm_hidden=3, dropout_rate=0.0)
    defaults.update(kwargs)
    return ModelConfig(**defaults)


class TestConfig:
    def test_requires_unk(self):
        with pytest.raises(ValueError, match="<unk>"):
            ModelConfig(vocab={"a": 0}, num_labels=2)

    def test_keyarg_flags_coupled(self):
        with pytest.raises(ValueError, match="keyarg"):
            tiny_cfg(keyarg_embed_dim=2)

    def test_dropout_range(self):
        with pytest.raises(ValueError, match="dropout"):
            tiny_cfg(dropout_rate=1.0)

    def test_roundtrip(self):
        cfg = tiny_cfg(keyarg_embed_dim=2, num_keyarg_labels=5)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("token_id", [-1, 4, 10**6])
    def test_vocab_id_out_of_range(self, token_id):
        rec = tiny_cfg().to_dict()
        rec["vocab"] = {**rec["vocab"], "x": token_id}
        del rec["vocab"]["c"]
        with pytest.raises(ValueError, match=rf"vocab entry 'x' has id {token_id}, outside \[0, 4\)"):
            ModelConfig.from_dict(rec)

    def test_token_id_falls_back_to_unk(self):
        cfg = tiny_cfg()
        assert cfg.token_id("a") == 1
        assert cfg.token_id("never-seen") == 0


class TestForward:
    def test_zero_weights_give_zero_emissions(self):
        cfg = tiny_cfg()
        params = neural.init_params(cfg, np.random.default_rng(0))
        for name in params:
            params[name][...] = 0.0
        P, _ = neural.forward([1, 2, 3], params, cfg)
        assert P.shape == (3, 3)
        assert np.all(P == 0.0)

    def test_single_token_shape(self):
        cfg = tiny_cfg()
        params = neural.init_params(cfg, np.random.default_rng(1))
        P, _ = neural.forward([2], params, cfg)
        assert P.shape == (1, cfg.num_labels)

    def test_deterministic_given_seed(self):
        cfg = tiny_cfg(dropout_rate=0.5)
        params = neural.init_params(cfg, np.random.default_rng(2))
        runs = []
        for _ in range(2):
            P, _ = neural.forward(
                [1, 2, 3], params, cfg, train=True, rng=np.random.default_rng(99)
            )
            runs.append(P.tobytes())
        assert runs[0] == runs[1]

    def test_inference_is_dropout_free(self):
        cfg = tiny_cfg(dropout_rate=0.5)
        params = neural.init_params(cfg, np.random.default_rng(3))
        P1, _ = neural.forward([1, 2], params, cfg)
        P2, _ = neural.forward([1, 2], params, cfg)
        assert np.array_equal(P1, P2)
        Pt, _ = neural.forward([1, 2], params, cfg, train=True, rng=np.random.default_rng(0))
        assert not np.array_equal(P1, Pt)

    def test_empty_input(self):
        cfg = tiny_cfg()
        params = neural.init_params(cfg, np.random.default_rng(4))
        with pytest.raises(ValueError, match="empty"):
            neural.forward([], params, cfg)

    def test_keyarg_length_checked(self):
        cfg = tiny_cfg(keyarg_embed_dim=2, num_keyarg_labels=4)
        params = neural.init_params(cfg, np.random.default_rng(5))
        with pytest.raises(ValueError, match="per token"):
            neural.forward([1, 2], params, cfg, keyarg_ids=[0])

    def test_shape_mismatch_names_parameter(self):
        cfg = tiny_cfg()
        params = Parameters(
            {**neural.init_params(cfg, np.random.default_rng(5)), "lstm_fwd.U": np.zeros((2, 2))}
        )
        with pytest.raises(ValueError, match="lstm_fwd.U"):
            neural.forward([1], params, cfg)


def reference_lstm(x, W, U, b):
    """Independent plain-loop LSTM used as the oracle for direction tests."""
    H = U.shape[1]
    h_prev = np.zeros(H)
    c_prev = np.zeros(H)
    out = []
    for t in range(x.shape[0]):
        z = W @ x[t] + U @ h_prev + b
        sig = lambda v: 1.0 / (1.0 + np.exp(-v))
        i, f, g, o = sig(z[:H]), sig(z[H:2*H]), np.tanh(z[2*H:3*H]), sig(z[3*H:])
        c = f * c_prev + i * g
        h = o * np.tanh(c)
        out.append(h)
        h_prev, c_prev = h, c
    return np.array(out)


def reference_lstm_step_kernels(x, W, U, b, dh_out):
    """Per-step LSTM forward and backward with np.outer weight gradients.

    Returns (h, c, dx, dW, dU, db); an independent oracle for lstm_forward
    and _lstm_backward.
    """
    n, H = x.shape[0], U.shape[1]
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    gates, cs, hs = [], [], []
    h_prev = c_prev = np.zeros(H)
    for t in range(n):
        z = W @ x[t] + U @ h_prev + b
        i, f, g, o = sig(z[:H]), sig(z[H:2*H]), np.tanh(z[2*H:3*H]), sig(z[3*H:])
        c_prev = f * c_prev + i * g
        h_prev = o * np.tanh(c_prev)
        gates.append((i, f, g, o)); cs.append(c_prev); hs.append(h_prev)
    dW, dU, db, dx = np.zeros_like(W), np.zeros_like(U), np.zeros(4 * H), np.zeros_like(x)
    dh_next = dc_next = np.zeros(H)
    for t in range(n - 1, -1, -1):
        i, f, g, o = gates[t]
        tanh_c = np.tanh(cs[t])
        dh = dh_out[t] + dh_next
        dc = dc_next + dh * o * (1.0 - tanh_c**2)
        c_prev = cs[t - 1] if t > 0 else np.zeros(H)
        h_prev = hs[t - 1] if t > 0 else np.zeros(H)
        dz = np.concatenate([
            dc * g * i * (1.0 - i),
            dc * c_prev * f * (1.0 - f),
            dc * i * (1.0 - g**2),
            dh * tanh_c * o * (1.0 - o),
        ])
        dW += np.outer(dz, x[t])
        dU += np.outer(dz, h_prev)
        db += dz
        dx[t] = W.T @ dz
        dh_next = U.T @ dz
        dc_next = dc * f
    return np.array(hs), np.array(cs), dx, dW, dU, db


def blstm_params(rng, D, H):
    return {
        f"lstm_{direction}.{name}": rng.normal(size=shape)
        for direction in ("fwd", "bwd")
        for name, shape in (("W", (4 * H, D)), ("U", (4 * H, H)), ("b", (4 * H,)))
    }


@pytest.mark.parametrize("n", [1, 2, 9])
def test_lstm_kernels_match_per_step_reference(n):
    """Each direction of the lockstep kernels against the per-step np.outer oracle; the
    backward direction's oracle runs on the reversed input and its dLoss/dh."""
    rng = np.random.default_rng(100 + n)
    D, H = 5, 4
    x = rng.normal(size=(n, D))
    params = blstm_params(rng, D, H)
    dh_out = rng.normal(size=(n, 2 * H))
    grads = {name: np.empty_like(arr) for name, arr in params.items()}
    cache = neural.blstm_forward(x, params)
    dx = neural._blstm_backward(cache, dh_out, params, grads)
    dx_want = np.zeros_like(x)
    for d, (direction, x_d, dh_d) in enumerate(
        (("fwd", x, dh_out[:, :H]), ("bwd", x[::-1], dh_out[::-1, H:]))
    ):
        p = f"lstm_{direction}."
        h, c, dx_d, dW, dU, db = reference_lstm_step_kernels(
            x_d, params[p + "W"], params[p + "U"], params[p + "b"], dh_d
        )
        dx_want += dx_d if d == 0 else dx_d[::-1]
        got = (cache["h"][:, d], cache["c"][:, d], grads[p + "W"], grads[p + "U"], grads[p + "b"])
        for name, a, e in zip(("h", "c", "dW", "dU", "db"), got, (h, c, dW, dU, db)):
            assert a.shape == e.shape, p + name
            assert np.abs(a - e).max() <= 1e-12 * np.abs(e).max(), p + name
    assert np.abs(dx - dx_want).max() <= 1e-12 * np.abs(dx_want).max()


def test_backward_direction_is_reversed_forward():
    """The cache holds both directions in step order: the backward one's step t is token n-1-t."""
    cfg = tiny_cfg()
    params = neural.init_params(cfg, np.random.default_rng(6))
    ids = [1, 3, 2, 1]
    _, cache = neural.forward(ids, params, cfg)
    x = params["embeddings"][ids]
    fwd_ref = reference_lstm(x, params["lstm_fwd.W"], params["lstm_fwd.U"], params["lstm_fwd.b"])
    bwd_ref = reference_lstm(x[::-1], params["lstm_bwd.W"], params["lstm_bwd.U"], params["lstm_bwd.b"])
    assert np.allclose(cache["lstm"]["h"][:, 0], fwd_ref)
    assert np.allclose(cache["lstm"]["h"][:, 1], bwd_ref)
    assert np.array_equal(cache["h_dropped"], np.concatenate([cache["lstm"]["h"][:, 0],
                                                              cache["lstm"]["h"][::-1, 1]], axis=1))


# The single-direction kernels and their two-call use in forward()/backward() as they
# were before the lockstep kernels, kept verbatim as the oracle for bit equality.

def reference_lstm_forward(
    x: np.ndarray, W: np.ndarray, U: np.ndarray, b: np.ndarray
) -> dict[str, np.ndarray]:
    """Single-direction LSTM pass; returns all activations for backprop.

    Each step adds `U @ h_prev` to its row of `gates` (`x @ W.T + b`) and turns
    it into the gate values in place with one tanh: sigmoid(z) = 0.5 + 0.5*tanh(z/2).
    """
    n = x.shape[0]
    H = U.shape[1]
    gates = x @ W.T + b
    scale = np.full(4 * H, 0.5)
    scale[2 * H:3 * H] = 1.0
    shift = 1.0 - scale
    c = np.empty((n, H)); tanh_c = np.empty((n, H)); h = np.empty((n, H))
    h_prev = c_prev = np.zeros(H)
    for t in range(n):
        z = gates[t]
        z += U @ h_prev
        z *= scale
        np.tanh(z, out=z)
        z *= scale
        z += shift
        np.multiply(z[H:2 * H], c_prev, out=c[t])
        c[t] += z[:H] * z[2 * H:3 * H]
        np.tanh(c[t], out=tanh_c[t])
        np.multiply(z[3 * H:], tanh_c[t], out=h[t])
        h_prev, c_prev = h[t], c[t]
    return {"x": x, "gates": gates, "c": c, "tanh_c": tanh_c, "h": h}


def reference_lstm_backward(
    cache: dict[str, np.ndarray],
    dh_out: np.ndarray,
    W: np.ndarray,
    U: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Backprop through one direction. Returns (dx, dW, dU, db).

    Only the recurrence into dZ, the gate pre-activation gradients, runs per step.
    """
    x, gates, c, tanh_c, h = (cache[k] for k in ("x", "gates", "c", "tanh_c", "h"))
    n, H = c.shape
    i, f, g, o = (gates[:, k * H:(k + 1) * H] for k in range(4))
    c_prev = np.vstack([np.zeros(H), c[:-1]])
    # dZ[t] is dc * dc_gates[t] for the input, forget and cell gates, dh * dh_gate[t] for output.
    dc_gates = np.stack([g * i * (1.0 - i), c_prev * f * (1.0 - f), i * (1.0 - g**2)], axis=1)
    dh_gate = tanh_c * o * (1.0 - o)
    dh_cell = o * (1.0 - tanh_c**2)
    dZ = np.empty((n, 4 * H))
    dZ_blocks = dZ.reshape(n, 4, H)
    dh_next = dc_next = np.zeros(H)
    for t in range(n - 1, -1, -1):
        dh = dh_out[t] + dh_next
        dc = dc_next + dh * dh_cell[t]
        np.multiply(dc_gates[t], dc, out=dZ_blocks[t, :3])
        np.multiply(dh, dh_gate[t], out=dZ_blocks[t, 3])
        dh_next = dZ[t] @ U
        dc_next = dc * f[t]
    return dZ @ W, dZ.T @ x, dZ[1:].T @ h[:-1], dZ.sum(axis=0)


def reference_forward(token_ids, params, cfg, keyarg_ids=None, train=False, rng=None):
    """forward() with the single-direction kernels and always-built dropout masks."""
    x = params["embeddings"][token_ids]
    if cfg.uses_keyargs:
        x = np.concatenate([x, params["keyarg_embeddings"][keyarg_ids]], axis=1)

    dropout = train and cfg.dropout_rate > 0.0
    keep = 1.0 - cfg.dropout_rate

    def mask(shape: tuple[int, ...]) -> np.ndarray:
        return (rng.random(shape) < keep) / keep if dropout else np.ones(shape)

    in_mask = mask(x.shape)
    x_dropped = x * in_mask

    fwd = reference_lstm_forward(x_dropped, params["lstm_fwd.W"], params["lstm_fwd.U"], params["lstm_fwd.b"])
    bwd = reference_lstm_forward(x_dropped[::-1], params["lstm_bwd.W"], params["lstm_bwd.U"], params["lstm_bwd.b"])
    h = np.concatenate([fwd["h"], bwd["h"][::-1]], axis=1)

    out_mask = mask(h.shape)
    h_dropped = h * out_mask

    P = h_dropped @ params["proj.W"].T + params["proj.b"][None, :]
    cache = {"cfg": cfg, "token_ids": token_ids, "keyarg_ids": keyarg_ids, "in_mask": in_mask,
             "out_mask": out_mask, "fwd": fwd, "bwd": bwd, "h_dropped": h_dropped, "params": params}
    return P, cache


def reference_backward(cache, dP, grads):
    """backward() with the single-direction kernels."""
    cfg, params = cache["cfg"], cache["params"]
    H = cfg.lstm_hidden
    grads["proj.W"][...] = dP.T @ cache["h_dropped"]
    grads["proj.b"][...] = dP.sum(axis=0)
    dh = (dP @ params["proj.W"]) * cache["out_mask"]

    d_in = {}
    for direction, dh_dir in (("fwd", dh[:, :H]), ("bwd", dh[::-1, H:])):
        p = f"lstm_{direction}."
        d_in[direction], grads[p + "W"][...], grads[p + "U"][...], grads[p + "b"][...] = (
            reference_lstm_backward(cache[direction], dh_dir, params[p + "W"], params[p + "U"])
        )
    dx = (d_in["fwd"] + d_in["bwd"][::-1]) * cache["in_mask"]
    grads["embeddings"].fill(0.0)
    np.add.at(grads["embeddings"], cache["token_ids"], dx[:, :cfg.embed_dim])
    if cfg.uses_keyargs:
        grads["keyarg_embeddings"].fill(0.0)
        np.add.at(grads["keyarg_embeddings"], cache["keyarg_ids"], dx[:, cfg.embed_dim:])


def test_lockstep_bits_equal_single_direction_reference():
    """P, h and every gradient equal the single-direction kernels' bit for bit, with and
    without key-argument features, in inference and in training with dropout 0.5."""
    rng = np.random.default_rng(2024)
    vocab = {UNK: 0, **{f"w{i}": i + 1 for i in range(11)}}
    for draw in range(320):
        n = int(rng.choice([1, 2, 3, 11, 40]))
        H = int(rng.choice([1, 3, 24, 100]))
        use_keyargs, train = draw % 2 == 1, draw % 4 >= 2
        cfg = ModelConfig(
            vocab=vocab, num_labels=int(rng.integers(1, 8)), embed_dim=int(rng.choice([2, 9, 30])),
            lstm_hidden=H, keyarg_embed_dim=3 if use_keyargs else 0,
            num_keyarg_labels=4 if use_keyargs else 0, dropout_rate=0.5,
        )
        params = neural.init_params(cfg, rng)
        params.flat[...] = rng.normal(scale=0.5, size=params.flat.shape)
        ids = [int(t) for t in rng.integers(0, len(vocab), size=n)]
        keyarg_ids = [int(k) for k in rng.integers(0, 4, size=n)] if use_keyargs else None
        dP = rng.normal(size=(n, cfg.num_labels))
        mask_seed = int(rng.integers(2**32))

        P, cache = neural.forward(ids, params, cfg, keyarg_ids, train, np.random.default_rng(mask_seed))
        grads = params.zeros_like()
        neural.backward(cache, dP, grads)
        P_ref, ref_cache = reference_forward(ids, params, cfg, keyarg_ids, train,
                                             np.random.default_rng(mask_seed))
        grads_ref = params.zeros_like()
        reference_backward(ref_cache, dP, grads_ref)

        where = f"draw {draw}: n={n} H={H} keyargs={use_keyargs} train={train}"
        assert np.array_equal(P, P_ref), where
        assert np.array_equal(cache["lstm"]["h"][:, 0], ref_cache["fwd"]["h"]), where
        assert np.array_equal(cache["lstm"]["h"][:, 1], ref_cache["bwd"]["h"]), where
        assert np.array_equal(cache["h_dropped"], ref_cache["h_dropped"]), where
        for name in params:
            assert np.array_equal(grads[name], grads_ref[name]), f"{where}: {name}"


class TestBackward:
    def test_gradient_check(self):
        report = oracle.check_blstm_gradients(trials=3)
        assert report.ok, report.failures

    def test_zero_upstream_zero_grads(self):
        cfg = tiny_cfg()
        params = neural.init_params(cfg, np.random.default_rng(7))
        P, cache = neural.forward([1, 2], params, cfg)
        grads = params.zeros_like()
        neural.backward(cache, np.zeros_like(P), grads)
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_unused_vocab_rows_zero(self):
        cfg = tiny_cfg()
        params = neural.init_params(cfg, np.random.default_rng(8))
        P, cache = neural.forward([1, 1], params, cfg)
        grads = params.zeros_like()
        neural.backward(cache, np.ones_like(P), grads)
        assert np.all(grads["embeddings"][0] == 0.0)
        assert np.all(grads["embeddings"][2] == 0.0)
        assert np.any(grads["embeddings"][1] != 0.0)

    def test_reused_buffer_equals_fresh_buffer(self):
        """Each table is zeroed before its scatter: an earlier instance's rows do not linger."""
        cfg = tiny_cfg(keyarg_embed_dim=2, num_keyarg_labels=4)
        params = neural.init_params(cfg, np.random.default_rng(12))
        reused, fresh = params.zeros_like(), params.zeros_like()
        for ids, grads in (([1, 2], reused), ([3], reused), ([3], fresh)):
            P, cache = neural.forward(ids, params, cfg, keyarg_ids=ids)
            neural.backward(cache, np.ones_like(P), grads)
        for name in params:
            assert np.array_equal(reused[name], fresh[name]), name

    def test_stale_cache(self):
        cfg = tiny_cfg()
        params = neural.init_params(cfg, np.random.default_rng(9))
        P, cache = neural.forward([1], params, cfg)
        neural.backward(cache, np.zeros_like(P), params.zeros_like())
        with pytest.raises(ValueError, match="stale"):
            neural.backward(cache, np.zeros_like(P), params.zeros_like())

    def test_cache_made_before_a_step_is_stale(self):
        cfg = tiny_cfg()
        params = neural.init_params(cfg, np.random.default_rng(9))
        grads = params.zeros_like()
        P, old_cache = neural.forward([1, 2], params, cfg)
        _, cache = neural.forward([1, 2], params, cfg)
        neural.backward(cache, np.ones_like(P), grads)
        neural.sgd_step(params, grads, AdamState(params), lr=1e-3)
        with pytest.raises(ValueError, match="stale"):
            neural.backward(old_cache, np.ones_like(P), grads)


class TestSgdStep:
    def test_non_finite_gradient_named(self):
        params = Parameters({"x": np.zeros(1), "y": np.zeros(2)})
        grads = Parameters({"x": np.zeros(1), "y": np.array([0.0, np.inf])})
        with pytest.raises(ValueError, match="non-finite gradient for parameter 'y'"):
            neural.sgd_step(params, grads, AdamState(params), lr=1e-3)


    def test_zero_gradients_keep_params(self):
        params = Parameters({"w": np.array([1.0, 2.0])})
        neural.sgd_step(params, params.zeros_like(), AdamState(params), lr=0.1)
        assert np.array_equal(params["w"], [1.0, 2.0])

    def test_quadratic_probe_descends(self):
        params = Parameters({"x": np.array([0.0])})
        state, grads = AdamState(params), params.zeros_like()
        loss = lambda: float((params["x"][0] - 3.0) ** 2)
        start = loss()
        for _ in range(100):
            grads["x"][...] = 2.0 * (params["x"] - 3.0)
            neural.sgd_step(params, grads, state, lr=0.1)
        assert loss() < start * 0.05

    def test_moments_decay_after_gradients_stop(self):
        params = Parameters({"x": np.array([0.0])})
        state, grads = AdamState(params), params.zeros_like()
        grads["x"][...] = 1.0
        neural.sgd_step(params, grads, state, lr=0.01)
        peak = abs(state.m["x"][0])
        for _ in range(50):
            grads["x"][...] = 0.0
            neural.sgd_step(params, grads, state, lr=0.01)
        assert abs(state.m["x"][0]) < peak * 1e-2

    def test_nan_gradient_aborts(self):
        params = Parameters({"x": np.array([0.0])})
        with pytest.raises(ValueError, match="non-finite"):
            neural.sgd_step(params, Parameters({"x": np.array([np.nan])}), AdamState(params), lr=1e-3)

    def test_in_place_steps_equal_rebinding_adam(self):
        """The flat in-place update is bit-identical to Adam on separate arrays."""
        rng = np.random.default_rng(11)
        shapes = {"emb": (7, 3), "W": (4, 5), "b": (4,), "A": (2, 2)}
        start = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        params = Parameters(start)
        state, buffer = AdamState(params), params.zeros_like()
        ref = {name: arr.copy() for name, arr in start.items()}
        ref_m = {name: np.zeros(shape) for name, shape in shapes.items()}
        ref_v = {name: np.zeros(shape) for name, shape in shapes.items()}
        lr, beta1, beta2, eps = 0.01, 0.9, 0.999, 1e-8
        for t in range(1, 8):
            grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
            grads["emb"][rng.integers(0, 7)] = 0.0
            for name, g in grads.items():
                buffer[name][...] = g
            neural.sgd_step(params, buffer, state, lr=lr)
            for name, g in grads.items():
                ref_m[name] = beta1 * ref_m[name] + (1.0 - beta1) * g
                ref_v[name] = beta2 * ref_v[name] + (1.0 - beta2) * g * g
                m_hat = ref_m[name] / (1.0 - beta1**t)
                v_hat = ref_v[name] / (1.0 - beta2**t)
                ref[name] = ref[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
            for name in shapes:
                assert np.array_equal(params[name], ref[name]), name
                assert np.array_equal(state.m[name], ref_m[name]), name
                assert np.array_equal(state.v[name], ref_v[name]), name

    def test_row_rule_equals_rebinding_adam(self):
        """An `embeddings` table over one block takes the gradient terms only on rows with a
        nonzero gradient; params and moments still equal Adam on separate arrays, bit for bit,
        and a NaN in a table row is refused before anything changes."""
        rng = np.random.default_rng(12)
        width = 7  # rows straddle the block boundaries
        n_rows = 2 * neural._BLOCK // width + 3
        shapes = {"embeddings": (n_rows, width), "W": (40, 30), "b": (40,)}
        start = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        params = Parameters(start)
        state, buffer = AdamState(params), params.zeros_like()
        ref = {name: arr.copy() for name, arr in start.items()}
        ref_m = {name: np.zeros(shape) for name, shape in shapes.items()}
        ref_v = {name: np.zeros(shape) for name, shape in shapes.items()}
        lr, beta1, beta2, eps = 0.01, 0.9, 0.999, 1e-8
        # Steps 1-4 touch the first and last rows, the rows next to each block boundary and
        # 30 drawn rows; later steps touch 30 other rows each, so the first ones go to zero.
        edges = [0, n_rows - 1, *(b // width + d for b in (neural._BLOCK, 2 * neural._BLOCK)
                                  for d in (-1, 0, 1))]
        for t in range(1, 13):
            grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
            touched = rng.choice(n_rows, size=30, replace=False)
            grads["embeddings"] = np.zeros(shapes["embeddings"])
            grads["embeddings"][touched] = rng.normal(size=(30, width))
            if t <= 4:
                grads["embeddings"][edges] = rng.normal(size=(len(edges), width))
            grads["embeddings"][touched[0]] = -0.0
            for name, g in grads.items():
                buffer[name][...] = g
            neural.sgd_step(params, buffer, state, lr=lr)
            for name, g in grads.items():
                ref_m[name] = beta1 * ref_m[name] + (1.0 - beta1) * g
                ref_v[name] = beta2 * ref_v[name] + (1.0 - beta2) * g * g
                m_hat = ref_m[name] / (1.0 - beta1**t)
                v_hat = ref_v[name] / (1.0 - beta2**t)
                ref[name] = ref[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
            for name in shapes:
                assert params[name].tobytes() == ref[name].tobytes(), (t, name)
                assert state.m[name].tobytes() == ref_m[name].tobytes(), (t, name)
                assert state.v[name].tobytes() == ref_v[name].tobytes(), (t, name)
        assert params.flat.size > 2 * neural._BLOCK
        before = params.flat.copy(), state.m.flat.copy(), state.v.flat.copy()
        buffer.flat[:] = rng.normal(size=buffer.flat.size)
        buffer["embeddings"][:-1] = 0.0
        buffer["embeddings"][-1, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite gradient for parameter 'embeddings'"):
            neural.sgd_step(params, buffer, state, lr=lr)
        assert state.t == 12 and params.step == 12
        for got, want in zip((params.flat, state.m.flat, state.v.flat), before):
            assert got.tobytes() == want.tobytes()

    def test_missing_gradient_rejected(self):
        params = Parameters({"x": np.zeros(1), "y": np.zeros(2)})
        with pytest.raises(ValueError, match="one gradient per parameter"):
            neural.sgd_step(params, Parameters({"x": np.ones(1)}), AdamState(params), lr=1e-3)


def test_init_lays_out_crf_transitions_last_without_drawing():
    cfg = tiny_cfg()
    rng, ref = np.random.default_rng(14), np.random.default_rng(14)
    params = neural.init_params(cfg, rng)
    assert list(params) == list(neural.expected_shapes(cfg)) and list(params)[-1] == "crf.A"
    assert np.all(params["crf.A"] == 0.0)
    for name, shape in neural.expected_shapes(cfg).items():
        if not name.endswith(".b") and name != "crf.A":
            assert np.array_equal(params[name], ref.uniform(-0.08, 0.08, size=shape)), name
    assert rng.random() == ref.random()


class TestParameters:
    def test_views_share_one_buffer_in_given_order(self):
        params = Parameters({"a": np.arange(6.0).reshape(2, 3), "b": np.array([7.0])})
        assert list(params) == ["a", "b"]
        assert np.array_equal(params.flat, [0, 1, 2, 3, 4, 5, 7])
        params["b"][0] = 9.0
        assert params.flat[-1] == 9.0

    def test_copy_does_not_alias(self):
        params = Parameters({"a": np.ones(3)})
        snapshot = Parameters(params)
        params["a"][...] = 0.0
        assert np.array_equal(snapshot["a"], np.ones(3))

    @pytest.mark.parametrize("copy_of", [
        lambda p: pickle.loads(pickle.dumps(p)),
        lambda p: pickle.loads(pickle.dumps(p, pickle.HIGHEST_PROTOCOL)),
        copy.deepcopy,
    ], ids=["pickle", "pickle-highest", "deepcopy"])
    def test_copy_keeps_views_into_flat(self, copy_of):
        params = neural.init_params(tiny_cfg(), np.random.default_rng(4))
        params.step = 3
        copied = copy_of(params)
        assert copied.layout == params.layout and copied.step == 3
        assert copied.flat.tobytes() == params.flat.tobytes()
        assert not np.shares_memory(copied.flat, params.flat)
        for name in params:
            assert np.shares_memory(copied[name], copied.flat), name
            assert copied[name].tobytes() == params[name].tobytes(), name
        copied.flat[:] = 0.0
        assert all(not copied[name].any() for name in copied)


def test_tensor_roundtrip():
    cfg = tiny_cfg(keyarg_embed_dim=2, num_keyarg_labels=5)
    params = neural.init_params(cfg, np.random.default_rng(10))
    fh = io.BytesIO()
    neural.write_flat(fh, params)
    assert fh.getvalue() == params.flat.astype("<f8").tobytes()
    fh.seek(0)
    layout = [[name, list(shape)] for name, shape in params.layout]
    restored = neural.read_flat(fh, layout, cfg)
    assert restored.layout == params.layout and restored.flat.tobytes() == params.flat.tobytes()
    assert all(np.shares_memory(restored[name], restored.flat) for name in restored)


def test_truncated_tensor_named():
    cfg = tiny_cfg(lstm_hidden=1)
    params = neural.init_params(cfg, np.random.default_rng(0))
    layout = [[name, list(shape)] for name, shape in params.layout]
    end = params["embeddings"].size + params["proj.W"].size
    with pytest.raises(ValueError, match="tensor 'proj.W' ends early: the data stops 8 bytes short"):
        neural.read_flat(io.BytesIO(params.flat[:end - 1].tobytes()), layout, cfg)


class TestEmbeddingFile:
    def test_load_known_rows(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1.0 2.0 3.0 4.0\nzzz 9 9 9 9\n")
        cfg = tiny_cfg()
        matrix = neural.load_embeddings(str(path), cfg.vocab, 4, np.random.default_rng(0))
        assert np.array_equal(matrix[cfg.vocab["a"]], [1.0, 2.0, 3.0, 4.0])
        assert matrix.shape == (len(cfg.vocab), 4)

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1.0 2.0\n")
        with pytest.raises(ValueError, match="expected 4"):
            neural.load_embeddings(str(path), tiny_cfg().vocab, 4, np.random.default_rng(0))
