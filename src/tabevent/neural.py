"""Token embeddings and a bidirectional LSTM emitting per-label scores.

Pure numpy, float64, with hand-derived gradients for every parameter so
training needs no autograd framework. The backward direction literally runs
the forward recurrence on the reversed input and reverses its outputs.

Parameter names (all row-major when flattened to disk):
  embeddings            |V| x embed_dim
  keyarg_embeddings     K x keyarg_embed_dim        (stage-2 feature table)
  lstm_{fwd,bwd}.W      4H x input_dim
  lstm_{fwd,bwd}.U      4H x H
  lstm_{fwd,bwd}.b      4H            (gate order: input, forget, cell, output)
  proj.W                |L| x 2H
  proj.b                |L|
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

UNK = "<unk>"

_INIT_SCALE = 0.08


@dataclass
class ModelConfig:
    vocab: dict[str, int]
    num_labels: int
    embed_dim: int = 200
    lstm_hidden: int = 100
    keyarg_embed_dim: int = 0
    num_keyarg_labels: int = 0
    dropout_rate: float = 0.5

    def __post_init__(self) -> None:
        if self.embed_dim < 1 or self.lstm_hidden < 1 or self.num_labels < 1:
            raise ValueError("dimensions must be at least 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        if (self.keyarg_embed_dim > 0) != (self.num_keyarg_labels > 0):
            raise ValueError(
                "keyarg_embed_dim and num_keyarg_labels must be enabled together"
            )
        if UNK not in self.vocab:
            raise ValueError(f"vocab must contain the {UNK!r} token")

    @property
    def input_dim(self) -> int:
        return self.embed_dim + self.keyarg_embed_dim

    @property
    def uses_keyargs(self) -> bool:
        return self.keyarg_embed_dim > 0

    def token_id(self, surface_normalized: str) -> int:
        return self.vocab.get(surface_normalized, self.vocab[UNK])

    def to_dict(self) -> dict:
        return {
            "vocab": dict(self.vocab),
            "num_labels": self.num_labels,
            "embed_dim": self.embed_dim,
            "lstm_hidden": self.lstm_hidden,
            "keyarg_embed_dim": self.keyarg_embed_dim,
            "num_keyarg_labels": self.num_keyarg_labels,
            "dropout_rate": self.dropout_rate,
        }

    @classmethod
    def from_dict(cls, rec: Mapping) -> "ModelConfig":
        return cls(
            vocab={str(k): int(v) for k, v in rec["vocab"].items()},
            num_labels=int(rec["num_labels"]),
            embed_dim=int(rec["embed_dim"]),
            lstm_hidden=int(rec["lstm_hidden"]),
            keyarg_embed_dim=int(rec.get("keyarg_embed_dim", 0)),
            num_keyarg_labels=int(rec.get("num_keyarg_labels", 0)),
            dropout_rate=float(rec.get("dropout_rate", 0.5)),
        )


def build_vocab(token_lists: Sequence[Sequence[str]]) -> dict[str, int]:
    """Deterministic vocab over normalized tokens, with UNK at index 0."""
    seen = sorted({tok for toks in token_lists for tok in toks})
    vocab = {UNK: 0}
    for tok in seen:
        if tok not in vocab:
            vocab[tok] = len(vocab)
    return vocab


def init_params(cfg: ModelConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Uniform [-0.08, 0.08] weights, zero biases except forget gates at 1."""
    H = cfg.lstm_hidden
    params = {
        name: np.zeros(shape) if name.endswith(".b")
        else rng.uniform(-_INIT_SCALE, _INIT_SCALE, size=shape)
        for name, shape in expected_shapes(cfg).items()
    }
    for direction in ("fwd", "bwd"):
        params[f"lstm_{direction}.b"][H:2 * H] = 1.0
    return params


def expected_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    H = cfg.lstm_hidden
    shapes: dict[str, tuple[int, ...]] = {
        "embeddings": (len(cfg.vocab), cfg.embed_dim),
        "proj.W": (cfg.num_labels, 2 * H),
        "proj.b": (cfg.num_labels,),
    }
    if cfg.uses_keyargs:
        shapes["keyarg_embeddings"] = (cfg.num_keyarg_labels, cfg.keyarg_embed_dim)
    for direction in ("fwd", "bwd"):
        shapes[f"lstm_{direction}.W"] = (4 * H, cfg.input_dim)
        shapes[f"lstm_{direction}.U"] = (4 * H, H)
        shapes[f"lstm_{direction}.b"] = (4 * H,)
    return shapes


def _check_param_shapes(params: Mapping[str, np.ndarray], cfg: ModelConfig) -> None:
    for name, shape in expected_shapes(cfg).items():
        if name not in params:
            raise ValueError(f"missing parameter {name!r}")
        if params[name].shape != shape:
            raise ValueError(
                f"parameter {name!r} has shape {params[name].shape}, expected {shape}"
            )


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def lstm_forward(
    x: np.ndarray, W: np.ndarray, U: np.ndarray, b: np.ndarray
) -> dict[str, np.ndarray]:
    """Single-direction LSTM pass; returns all activations for backprop."""
    n = x.shape[0]
    H = U.shape[1]
    i = np.zeros((n, H)); f = np.zeros((n, H))
    g = np.zeros((n, H)); o = np.zeros((n, H))
    c = np.zeros((n, H)); h = np.zeros((n, H))
    h_prev = np.zeros(H)
    c_prev = np.zeros(H)
    for t in range(n):
        z = W @ x[t] + U @ h_prev + b
        i[t] = _sigmoid(z[0:H])
        f[t] = _sigmoid(z[H:2 * H])
        g[t] = np.tanh(z[2 * H:3 * H])
        o[t] = _sigmoid(z[3 * H:4 * H])
        c[t] = f[t] * c_prev + i[t] * g[t]
        h[t] = o[t] * np.tanh(c[t])
        h_prev, c_prev = h[t], c[t]
    return {"x": x, "i": i, "f": f, "g": g, "o": o, "c": c, "h": h}


def _lstm_backward(
    cache: dict[str, np.ndarray],
    dh_out: np.ndarray,
    W: np.ndarray,
    U: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Backprop through one direction. Returns (dx, dW, dU, db)."""
    x, i, f, g, o, c = (cache[k] for k in ("x", "i", "f", "g", "o", "c"))
    n, H = i.shape
    dW = np.zeros_like(W)
    dU = np.zeros_like(U)
    db = np.zeros(4 * H)
    dx = np.zeros_like(x)
    dh_next = np.zeros(H)
    dc_next = np.zeros(H)
    for t in range(n - 1, -1, -1):
        tanh_c = np.tanh(c[t])
        dh = dh_out[t] + dh_next
        dc = dc_next + dh * o[t] * (1.0 - tanh_c**2)
        c_prev = c[t - 1] if t > 0 else np.zeros(H)
        h_prev = cache["h"][t - 1] if t > 0 else np.zeros(H)
        dz = np.concatenate([
            dc * g[t] * i[t] * (1.0 - i[t]),
            dc * c_prev * f[t] * (1.0 - f[t]),
            dc * i[t] * (1.0 - g[t]**2),
            dh * tanh_c * o[t] * (1.0 - o[t]),
        ])
        dW += np.outer(dz, x[t])
        dU += np.outer(dz, h_prev)
        db += dz
        dx[t] = W.T @ dz
        dh_next = U.T @ dz
        dc_next = dc * f[t]
    return dx, dW, dU, db


def forward(
    token_ids: Sequence[int],
    params: Mapping[str, np.ndarray],
    cfg: ModelConfig,
    keyarg_ids: Sequence[int] | None = None,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, dict]:
    """Emission scores P (n x num_labels) plus the cache backward() needs.

    Dropout masks are drawn from `rng` only when train=True; inference is
    dropout-free and deterministic.
    """
    token_ids = [int(t) for t in token_ids]
    if not token_ids:
        raise ValueError("empty token sequence")
    if cfg.uses_keyargs:
        if keyarg_ids is None or len(keyarg_ids) != len(token_ids):
            raise ValueError("keyarg_ids must be given, one per token")
        keyarg_ids = [int(k) for k in keyarg_ids]
    elif keyarg_ids is not None:
        raise ValueError("model was not configured with key-argument features")
    n = len(token_ids)

    _check_param_shapes(params, cfg)
    emb = params["embeddings"]
    x = emb[token_ids]
    if cfg.uses_keyargs:
        x = np.concatenate([x, params["keyarg_embeddings"][keyarg_ids]], axis=1)

    if train and cfg.dropout_rate > 0.0:
        if rng is None:
            raise ValueError("training-mode dropout needs a seeded rng")
        keep = 1.0 - cfg.dropout_rate
        in_mask = (rng.random(x.shape) < keep).astype(np.float64) / keep
    else:
        in_mask = np.ones_like(x)
    x_dropped = x * in_mask

    fwd = lstm_forward(x_dropped, params["lstm_fwd.W"], params["lstm_fwd.U"], params["lstm_fwd.b"])
    bwd = lstm_forward(x_dropped[::-1], params["lstm_bwd.W"], params["lstm_bwd.U"], params["lstm_bwd.b"])
    h = np.concatenate([fwd["h"], bwd["h"][::-1]], axis=1)

    if train and cfg.dropout_rate > 0.0:
        keep = 1.0 - cfg.dropout_rate
        out_mask = (rng.random(h.shape) < keep).astype(np.float64) / keep
    else:
        out_mask = np.ones_like(h)
    h_dropped = h * out_mask

    P = h_dropped @ params["proj.W"].T + params["proj.b"][None, :]
    cache = {
        "cfg": cfg,
        "token_ids": token_ids,
        "keyarg_ids": keyarg_ids,
        "in_mask": in_mask,
        "out_mask": out_mask,
        "fwd": fwd,
        "bwd": bwd,
        "h_dropped": h_dropped,
        "params": {k: params[k] for k in params},
        "consumed": False,
    }
    return P, cache


def backward(cache: dict, dP: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradients for every parameter given dLoss/dP.

    Embedding gradients are full-size arrays with nonzero rows only for the
    tokens that actually occurred.
    """
    if cache.get("consumed"):
        raise ValueError("stale cache: backward() was already run on it")
    cache["consumed"] = True
    cfg: ModelConfig = cache["cfg"]
    params = cache["params"]
    n = len(cache["token_ids"])
    dP = np.asarray(dP, dtype=np.float64)
    if dP.shape != (n, cfg.num_labels):
        raise ValueError(f"dP shape {dP.shape} does not match ({n}, {cfg.num_labels})")

    H = cfg.lstm_hidden
    grads: dict[str, np.ndarray] = {}
    grads["proj.W"] = dP.T @ cache["h_dropped"]
    grads["proj.b"] = dP.sum(axis=0)
    dh = (dP @ params["proj.W"]) * cache["out_mask"]

    dx_f, dW_f, dU_f, db_f = _lstm_backward(
        cache["fwd"], dh[:, :H], params["lstm_fwd.W"], params["lstm_fwd.U"]
    )
    dx_b_rev, dW_b, dU_b, db_b = _lstm_backward(
        cache["bwd"], dh[::-1, H:], params["lstm_bwd.W"], params["lstm_bwd.U"]
    )
    grads["lstm_fwd.W"], grads["lstm_fwd.U"], grads["lstm_fwd.b"] = dW_f, dU_f, db_f
    grads["lstm_bwd.W"], grads["lstm_bwd.U"], grads["lstm_bwd.b"] = dW_b, dU_b, db_b

    dx = (dx_f + dx_b_rev[::-1]) * cache["in_mask"]
    d_emb = np.zeros_like(params["embeddings"])
    for t, tok in enumerate(cache["token_ids"]):
        d_emb[tok] += dx[t, :cfg.embed_dim]
    grads["embeddings"] = d_emb
    if cfg.uses_keyargs:
        d_key = np.zeros_like(params["keyarg_embeddings"])
        for t, k in enumerate(cache["keyarg_ids"]):
            d_key[k] += dx[t, cfg.embed_dim:]
        grads["keyarg_embeddings"] = d_key
    return grads


# ---------------------------------------------------------------------------
# Optimizer: adaptive per-parameter steps with first/second moment estimates.
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def sgd_step(
    params: dict[str, np.ndarray],
    grads: Mapping[str, np.ndarray],
    state: AdamState,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One adaptive update, in place. Embeddings update like any parameter."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient for parameter {name!r}")
    state.t += 1
    for name, g in grads.items():
        if name not in params:
            raise ValueError(f"gradient for unknown parameter {name!r}")
        if params[name].shape != g.shape:
            raise ValueError(f"gradient shape mismatch for {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(g)
            state.v[name] = np.zeros_like(g)
        state.m[name] = beta1 * state.m[name] + (1.0 - beta1) * g
        state.v[name] = beta2 * state.v[name] + (1.0 - beta2) * g * g
        m_hat = state.m[name] / (1.0 - beta1**state.t)
        v_hat = state.v[name] / (1.0 - beta2**state.t)
        # Rebind instead of mutating so earlier forward caches keep pointing
        # at the parameters they were computed with.
        params[name] = params[name] - lr * m_hat / (np.sqrt(v_hat) + eps)


# ---------------------------------------------------------------------------
# Disk format helpers: named, row-major flattened tensors.
# ---------------------------------------------------------------------------

def tensors_to_dict(params: Mapping[str, np.ndarray]) -> dict:
    return {
        name: {"shape": list(arr.shape), "data": [float(v) for v in arr.ravel()]}
        for name, arr in sorted(params.items())
    }


def tensors_from_dict(rec: Mapping) -> dict[str, np.ndarray]:
    params = {}
    for name, entry in rec.items():
        arr = np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
        params[name] = arr
    return params


def load_embeddings(
    path: str,
    vocab: Mapping[str, int],
    embed_dim: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Embedding matrix for `vocab` from a text vector file.

    Each line is a token followed by embed_dim space-separated reals.
    Tokens absent from the file keep seeded random rows.
    """
    matrix = rng.uniform(-_INIT_SCALE, _INIT_SCALE, size=(len(vocab), embed_dim))
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split(" ")
            if len(parts) < 2:
                continue
            token, values = parts[0], parts[1:]
            if len(values) != embed_dim:
                raise ValueError(
                    f"{path}:{lineno}: expected {embed_dim} values, got {len(values)}"
                )
            if token in vocab:
                matrix[vocab[token]] = np.asarray([float(v) for v in values])
    return matrix
