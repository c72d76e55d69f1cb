"""Token embeddings and a bidirectional LSTM emitting per-label scores.

Pure numpy, float64, with hand-derived gradients for every parameter so
training needs no autograd framework. The two LSTM directions run in one time
loop: step t reads token t in the forward direction and token n-1-t in the
backward one, whose outputs are reversed into token order afterwards.

Parameter names (all row-major when flattened to disk):
  embeddings            |V| x embed_dim
  keyarg_embeddings     K x keyarg_embed_dim        (stage-2 feature table)
  lstm_{fwd,bwd}.W      4H x input_dim
  lstm_{fwd,bwd}.U      4H x H
  lstm_{fwd,bwd}.b      4H            (gate order: input, forget, cell, output)
  proj.W                |L| x 2H
  proj.b                |L|
  crf.A                 |L| x |L|       (CRF transitions; no network gradient)
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import BinaryIO, Mapping, Sequence

import numpy as np

from .core import _json_float, _json_int, _json_list, _json_object, open_text

UNK = "<unk>"

_INIT_SCALE = 0.08
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


@dataclass(frozen=True)
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

    @cached_property
    def layout(self) -> tuple:
        """`expected_shapes` as a `Parameters.layout`, built on first use: the fields are frozen."""
        return tuple(expected_shapes(self).items())

    def token_id(self, surface_normalized: str) -> int:
        return self.vocab.get(surface_normalized, self.vocab[UNK])

    def to_dict(self) -> dict:
        """The fields by name; the record shares `vocab` with the config instead of copying it."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, rec: Mapping) -> "ModelConfig":
        vocab = _json_object(rec["vocab"], "'vocab'")
        for k, v in vocab.items():
            if type(v) is not int or not 0 <= v < len(vocab):
                _json_int(v, f"vocab entry {k!r}")
                raise ValueError(f"vocab entry {k!r} has id {v}, outside [0, {len(vocab)})")
        return cls(
            vocab={str(k): v for k, v in vocab.items()},
            num_labels=_json_int(rec["num_labels"], "'num_labels'"),
            embed_dim=_json_int(rec["embed_dim"], "'embed_dim'"),
            lstm_hidden=_json_int(rec["lstm_hidden"], "'lstm_hidden'"),
            keyarg_embed_dim=_json_int(rec["keyarg_embed_dim"], "'keyarg_embed_dim'"),
            num_keyarg_labels=_json_int(rec["num_keyarg_labels"], "'num_keyarg_labels'"),
            dropout_rate=_json_float(rec["dropout_rate"], "'dropout_rate'"),
        )


def build_vocab(token_lists: Sequence[Sequence[str]]) -> dict[str, int]:
    """Deterministic vocab over normalized tokens, with UNK at index 0."""
    seen = sorted({tok for toks in token_lists for tok in toks})
    vocab = {UNK: 0}
    for tok in seen:
        if tok not in vocab:
            vocab[tok] = len(vocab)
    return vocab


def init_params(cfg: ModelConfig, rng: np.random.Generator) -> "Parameters":
    """Uniform [-0.08, 0.08] weights; zero biases except forget gates at 1, and `crf.A` at zero."""
    H = cfg.lstm_hidden
    params = Parameters({
        name: np.zeros(shape) if name.endswith(".b") or name == "crf.A"
        else rng.uniform(-_INIT_SCALE, _INIT_SCALE, size=shape)
        for name, shape in expected_shapes(cfg).items()
    })
    for direction in ("fwd", "bwd"):
        params[f"lstm_{direction}.b"][H:2 * H] = 1.0
    return params


def expected_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """A tagger's tensors in buffer order: the network's, then the CRF transitions `crf.A`."""
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
    shapes["crf.A"] = (cfg.num_labels, cfg.num_labels)
    return shapes


def _check_shapes(got: Mapping[str, tuple], cfg: ModelConfig) -> None:
    """An error naming the first tensor of `cfg.layout` that `got`, shapes by name, lacks or misshapes."""
    for name, shape in cfg.layout:
        if name not in got:
            raise ValueError(f"missing parameter {name!r}")
        if got[name] != shape:
            raise ValueError(f"parameter {name!r} has shape {got[name]}, expected {shape}")


class Parameters(Mapping[str, np.ndarray]):
    """Copies of the given arrays, in order, as named views into one float64 buffer `flat`."""

    def __init__(self, arrays: Mapping[str, np.ndarray]) -> None:
        flat = np.concatenate([np.ravel(a) for a in arrays.values()], dtype=np.float64)
        self._bind(flat, tuple((name, np.shape(arr)) for name, arr in arrays.items()), step=0)

    def _bind(self, flat: np.ndarray, layout: tuple, step: int) -> None:
        self.flat, self.layout = flat, layout
        self.step = step  # sgd_step updates so far; backward() refuses a cache made before one
        self._views, offset = {}, 0
        for name, shape in layout:
            size = math.prod(shape)
            self._views[name] = flat[offset:offset + size].reshape(shape)
            offset += size

    def __reduce__(self):
        # pickle and copy.deepcopy carry `flat` once and rebuild the views into it.
        return _parameters_from_flat, (self.flat, self.layout, self.step)

    def zeros_like(self) -> "Parameters":
        return Parameters({name: np.zeros(arr.shape) for name, arr in self.items()})

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __iter__(self):
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)


def _parameters_from_flat(flat: np.ndarray, layout: tuple, step: int) -> Parameters:
    params = Parameters.__new__(Parameters)
    params._bind(flat, layout, step)
    return params


def blstm_forward(x: np.ndarray, params: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Both LSTM directions over `x` in one time loop; returns all activations for backprop.

    Step t advances the forward direction at token t and the backward direction at
    token n-1-t. The state is gate-major: `gates[t]` is (4, 2, H), gate by direction,
    and `c`, `tanh_c` and `h` are (n, 2, H), all in step order. Each step adds the two
    recurrent products `U_d @ h_prev_d` to its row of `gates` (`x_d @ W_d.T + b_d`) and
    turns it into the gate values in place with one tanh over both directions:
    sigmoid(z) = 0.5 + 0.5*tanh(z/2).
    """
    n = x.shape[0]
    Us = params["lstm_fwd.U"], params["lstm_bwd.U"]
    H = Us[0].shape[1]
    gates = np.empty((n, 4, 2, H))
    for d, (direction, x_d) in enumerate((("fwd", x), ("bwd", x[::-1]))):
        p = f"lstm_{direction}."
        gates[:, :, d] = (x_d @ params[p + "W"].T + params[p + "b"]).reshape(n, 4, H)
    scale = np.full((4, 2, H), 0.5)
    scale[2] = 1.0
    shift = 1.0 - scale
    c = np.empty((n, 2, H)); tanh_c = np.empty((n, 2, H)); h = np.empty((n, 2, H))
    rec = np.empty((2, 4 * H))  # U_d @ h_prev_d, one row per direction
    rec_gates = rec.reshape(2, 4, H).transpose(1, 0, 2)
    ig = np.empty((2, H))
    h_prev = c_prev = np.zeros((2, H))
    for z, c_t, tanh_c_t, h_t in zip(gates, c, tanh_c, h):
        np.dot(Us[0], h_prev[0], out=rec[0])
        np.dot(Us[1], h_prev[1], out=rec[1])
        z += rec_gates
        z *= scale
        np.tanh(z, out=z)
        z *= scale
        z += shift
        np.multiply(z[1], c_prev, out=c_t)
        c_t += np.multiply(z[0], z[2], out=ig)
        np.tanh(c_t, out=tanh_c_t)
        np.multiply(z[3], tanh_c_t, out=h_t)
        h_prev, c_prev = h_t, c_t
    return {"x": x, "gates": gates, "c": c, "tanh_c": tanh_c, "h": h}


def _blstm_backward(
    cache: dict[str, np.ndarray],
    dh_out: np.ndarray,
    params: Mapping[str, np.ndarray],
    grads: Mapping[str, np.ndarray],
) -> np.ndarray:
    """Backprop through both directions of `blstm_forward`, given dLoss/dh (n x 2H, token
    order). Writes the `lstm_{fwd,bwd}` gradients into `grads` and returns dLoss/dx.

    Only the recurrence into dZ, the gate pre-activation gradients, runs per step, for
    both directions at once. dZ is direction-major, (2, n, 4H), so each direction's row
    for `U_d` and its whole block for the weight gradients are contiguous.
    """
    x, gates, c, tanh_c, h = (cache[k] for k in ("x", "gates", "c", "tanh_c", "h"))
    n, _, H = c.shape
    Us = params["lstm_fwd.U"], params["lstm_bwd.U"]
    # Per step (2, 1, H): one row per direction, broadcasting over dZ's gate axis.
    i, f, g, o = (gates[:, k, :, None] for k in range(4))
    tanh_c = tanh_c[:, :, None]
    c_prev = np.concatenate([np.zeros((1, 2, 1, H)), c[:-1, :, None]])
    # dZ[d, t] is dc * dc_gates[t] for the input, forget and cell gates, dh * dh_gate[t] for output.
    dc_gates = np.concatenate([g * i * (1.0 - i), c_prev * f * (1.0 - f), i * (1.0 - g**2)], axis=2)
    dh_gate = tanh_c * o * (1.0 - o)
    dh_cell = o * (1.0 - tanh_c**2)
    dh_steps = np.stack([dh_out[:, :H], dh_out[::-1, H:]], axis=1)[:, :, None]
    dZ = np.empty((2, n, 4 * H))
    dZ_blocks = dZ.reshape(2, n, 4, H)
    dh_next = np.zeros((2, 1, H))
    dc_next = np.zeros((2, 1, H))
    for t in range(n - 1, -1, -1):
        dh = dh_steps[t] + dh_next
        dc = dc_next + dh * dh_cell[t]
        np.multiply(dc_gates[t], dc, out=dZ_blocks[:, t, :3])
        np.multiply(dh, dh_gate[t], out=dZ_blocks[:, t, 3:])
        np.dot(dZ[0, t], Us[0], out=dh_next[0, 0])
        np.dot(dZ[1, t], Us[1], out=dh_next[1, 0])
        dc_next = dc * f[t]
    dx = []
    for d, (direction, x_d) in enumerate((("fwd", x), ("bwd", x[::-1]))):
        p, dZ_d = f"lstm_{direction}.", dZ[d]
        dx.append(dZ_d @ params[p + "W"])
        np.matmul(dZ_d.T, x_d, out=grads[p + "W"])
        np.matmul(dZ_d[1:].T, np.ascontiguousarray(h[:-1, d]), out=grads[p + "U"])
        np.sum(dZ_d, axis=0, out=grads[p + "b"])
    return dx[0] + dx[1][::-1]


def forward(
    token_ids: Sequence[int],
    params: Parameters,
    cfg: ModelConfig,
    keyarg_ids: Sequence[int] | None = None,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, dict]:
    """Emission scores P (n x num_labels) plus the cache backward() needs.

    Dropout masks are drawn from `rng` only when train=True; inference is
    dropout-free and deterministic, and its cache holds no masks.
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

    if params.layout != cfg.layout:
        _check_shapes(dict(params.layout), cfg)
    emb = params["embeddings"]
    x = emb[token_ids]
    if cfg.uses_keyargs:
        x = np.concatenate([x, params["keyarg_embeddings"][keyarg_ids]], axis=1)

    dropout = train and cfg.dropout_rate > 0.0
    if dropout and rng is None:
        raise ValueError("training-mode dropout needs a seeded rng")
    keep = 1.0 - cfg.dropout_rate

    def mask(shape: tuple[int, ...]) -> np.ndarray | None:
        return (rng.random(shape) < keep) / keep if dropout else None

    in_mask = mask(x.shape)
    x_dropped = x if in_mask is None else x * in_mask

    lstm = blstm_forward(x_dropped, params)
    h = np.concatenate([lstm["h"][:, 0], lstm["h"][::-1, 1]], axis=1)

    out_mask = mask(h.shape)
    h_dropped = h if out_mask is None else h * out_mask

    P = h_dropped @ params["proj.W"].T + params["proj.b"][None, :]
    cache = {
        "cfg": cfg,
        "token_ids": token_ids,
        "keyarg_ids": keyarg_ids,
        "in_mask": in_mask,
        "out_mask": out_mask,
        "lstm": lstm,
        "h_dropped": h_dropped,
        "params": params,
        "step": params.step,
        "consumed": False,
    }
    return P, cache


def backward(cache: dict, dP: np.ndarray, grads: Parameters) -> None:
    """Write the exact gradient of every network parameter, given dLoss/dP, into `grads`.

    `grads` is laid out like the parameters and may be reused across calls: each
    embedding table is zeroed, then gets nonzero rows only for the ids that occurred.
    `crf.A` is left to the caller.
    """
    if cache.get("consumed"):
        raise ValueError("stale cache: backward() was already run on it")
    cfg: ModelConfig = cache["cfg"]
    params: Parameters = cache["params"]
    if params.step != cache["step"]:
        raise ValueError("stale cache: sgd_step() updated the parameters after forward()")
    cache["consumed"] = True
    n = len(cache["token_ids"])
    dP = np.asarray(dP, dtype=np.float64)
    if dP.shape != (n, cfg.num_labels):
        raise ValueError(f"dP shape {dP.shape} does not match ({n}, {cfg.num_labels})")

    grads["proj.W"][...] = dP.T @ cache["h_dropped"]
    grads["proj.b"][...] = dP.sum(axis=0)
    dh = dP @ params["proj.W"]
    if cache["out_mask"] is not None:
        dh *= cache["out_mask"]
    dx = _blstm_backward(cache["lstm"], dh, params, grads)
    if cache["in_mask"] is not None:
        dx *= cache["in_mask"]
    grads["embeddings"].fill(0.0)
    np.add.at(grads["embeddings"], cache["token_ids"], dx[:, :cfg.embed_dim])
    if cfg.uses_keyargs:
        grads["keyarg_embeddings"].fill(0.0)
        np.add.at(grads["keyarg_embeddings"], cache["keyarg_ids"], dx[:, cfg.embed_dim:])


# ---------------------------------------------------------------------------
# Optimizer: adaptive per-parameter steps with first/second moment estimates.
# ---------------------------------------------------------------------------

_BLOCK = 1 << 16  # floats per block of the step: 512 KB each of p, g, m, v and scratch


class AdamState:
    """Step count, moments laid out like the parameters, and one block of scratch."""

    def __init__(self, params: Parameters) -> None:
        self.t = 0
        self.m, self.v = params.zeros_like(), params.zeros_like()
        self.scratch = np.empty(min(_BLOCK, params.flat.size))


def sgd_step(params: Parameters, grads: Parameters, state: AdamState, lr: float) -> None:
    """One Adam update of the whole buffer, in place.

    The operations and their order are those of m = beta1*m + (1-beta1)*g, v = beta2*v +
    (1-beta2)*g*g, p = p - lr*m_hat/(sqrt(v_hat)+eps) on separate arrays: bit-identical.
    They run block by block, so that each block's arrays stay in one core's cache.
    An `embeddings` table first in the buffer and larger than one block gets the
    gradient terms only on its rows with a nonzero gradient, on copies scattered back;
    its other rows take only the decay and the update. That is exact: on a zero row the
    terms add +-0.0 to m and +0.0 to v, which changes no bit, since neither moment is
    ever -0.0 (a sum is -0.0 only if both terms are, and the decays keep a nonzero
    value nonzero). `grads` is spent: it holds scratch values afterwards.
    """
    if grads.layout != params.layout or state.m.layout != params.layout:
        raise ValueError("sgd_step needs one gradient per parameter and a state made for them")
    p, g, m, v = params.flat, grads.flat, state.m.flat, state.v.flat
    name, shape = params.layout[0]
    # The row rule covers the buffer's first table_size floats: the table, if it spans blocks.
    # On a table of one block or less, its `any`, row copies and extra block calls cost
    # more than the passes it saves (measured on a 2-core x86 host at one BLAS thread:
    # 50-80 us more on a 110-155 us step).
    table_size = math.prod(shape) if name == "embeddings" and len(shape) == 2 else 0
    table_size = table_size if table_size > _BLOCK else 0
    if table_size:
        rows = np.flatnonzero(grads[name].any(axis=1))
        g_rows = grads[name][rows]
    if (table_size and not np.isfinite(g_rows).all()) or not np.isfinite(g[table_size:]).all():
        bad = next(name for name, arr in grads.items() if not np.isfinite(arr).all())
        raise ValueError(f"non-finite gradient for parameter {bad!r}")
    state.t += 1
    step = lr, 1.0 - _BETA1**state.t, 1.0 - _BETA2**state.t
    if table_size:
        tensors = params[name], state.m[name], state.v[name]
        copies = [arr[rows] for arr in tensors]
        _adam_block(*copies, g_rows, np.empty_like(g_rows), *step)
    for start, stop in ((0, table_size), (table_size, g.size)):
        for s in range(start, stop, _BLOCK):
            b = slice(s, min(s + _BLOCK, stop))
            _adam_block(p[b], m[b], v[b], g[b], state.scratch[:b.stop - s], *step,
                        gradient_terms=start == table_size)
    if table_size:
        for arr, copy in zip(tensors, copies):
            arr[rows] = copy
    params.step += 1


def _adam_block(p, m, v, g, a, lr: float, c1: float, c2: float, gradient_terms: bool = True) -> None:
    """Adam on one block in place, given the bias corrections c1 and c2; g and a are
    spent as scratch. Without the gradient terms, only the decay and the update."""
    m *= _BETA1
    if gradient_terms:
        m += np.multiply(g, 1.0 - _BETA1, out=a)
    v *= _BETA2
    if gradient_terms:
        np.multiply(g, 1.0 - _BETA2, out=a)
        v += np.multiply(a, g, out=a)
    # g now holds lr * m_hat and a the denominator.
    np.divide(m, c1, out=g)
    g *= lr
    np.divide(v, c2, out=a)
    np.sqrt(a, out=a)
    a += _EPS
    p -= np.divide(g, a, out=g)


# ---------------------------------------------------------------------------
# Disk format: a stage's whole buffer `flat` as raw little-endian float64 bytes,
# after a header that gives its layout of named row-major tensors.
# ---------------------------------------------------------------------------

_DTYPE = "<f8"


def write_flat(fh: BinaryIO, params: Parameters) -> None:
    """Write `params.flat` as little-endian float64 bytes, from the buffer itself on a
    little-endian host."""
    fh.write(memoryview(params.flat.astype(_DTYPE, copy=False)).cast("B"))


def read_flat(fh: BinaryIO, layout, cfg: ModelConfig) -> Parameters:
    """The tensors `cfg` implies, read from a stage of a model file: `layout`, the header's
    `[[name, shape], ...]` in buffer order, and the next bytes of `fh`, which are read
    into the new parameter buffer itself.

    A layout whose names, shapes or order differ from `expected_shapes(cfg)`, data
    that ends before the buffer is full, or a NaN or an infinity, is an error naming
    the tensor. Data that the rest of `fh` cannot hold is found before the buffer is
    allocated, so a header cannot make a small file claim a large allocation.
    """
    shapes = dict(cfg.layout)
    for entry in _json_list(layout, "'layout'"):
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
                and isinstance(entry[1], list)):
            raise ValueError(f"'layout' entry {entry!r} is not a [name, shape] pair")
    got = {name: tuple(shape) for name, shape in layout}
    for name in sorted(got.keys() - shapes.keys()):
        raise ValueError(f"unexpected parameter {name!r}")
    _check_shapes(got, cfg)
    if [name for name, _ in layout] != list(shapes):
        raise ValueError(f"the layout lists {[name for name, _ in layout]}, expected {list(shapes)}")
    here = fh.tell()
    _check_fits(shapes, fh.seek(0, io.SEEK_END) - here)
    fh.seek(here)
    flat = np.empty(sum(map(math.prod, shapes.values())), dtype=_DTYPE)
    view, done = memoryview(flat).cast("B"), 0
    while done < len(view) and (n := fh.readinto(view[done:])):
        done += n
    _check_fits(shapes, done)
    params = _parameters_from_flat(flat.astype(np.float64, copy=False), cfg.layout, 0)
    _check_finite(params)
    return params


def _check_fits(shapes: Mapping[str, tuple[int, ...]], size: int) -> None:
    """An error naming the first tensor, in buffer order, that `size` bytes cannot hold."""
    end = 0
    for name, shape in shapes.items():
        end += 8 * math.prod(shape)
        if end > size:
            raise ValueError(f"tensor {name!r} ends early: the data stops {end - size} bytes "
                             f"short of its end")


def _check_finite(params: Parameters) -> None:
    if not np.isfinite(params.flat).all():
        name = next(name for name, arr in params.items() if not np.isfinite(arr).all())
        raise ValueError(f"tensor {name!r} has a non-finite value")


def load_embeddings(
    path: str,
    vocab: Mapping[str, int],
    embed_dim: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Embedding matrix for `vocab` from a text vector file.

    Each line is a token followed by embed_dim space-separated reals, finite
    where the token is in the vocabulary, or an error names the line. Tokens
    absent from the file keep seeded random rows.
    """
    matrix = rng.uniform(-_INIT_SCALE, _INIT_SCALE, size=(len(vocab), embed_dim))
    with open_text(path) as fh:
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
                try:
                    row = np.asarray([float(v) for v in values])
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
                if not np.isfinite(row).all():
                    raise ValueError(f"{path}:{lineno}: {token!r} has a value that is not finite")
                matrix[vocab[token]] = row
    return matrix
