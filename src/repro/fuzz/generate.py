"""Seeded generation of random valid op programs and perturbed configs.

The generator is the "hybrid program synthesis" stage of the Dynofuzz
pipeline: it chains instrumented ops into random dataflow graphs whose
shapes/dtypes are guaranteed to compose, by construction, from per-op
*templates* that mirror each op's shape-transfer law.  Each emitted
node carries the template's **expected** output shape and dtype, so
the differential oracle can compare eager execution against the
static prediction as well as against the inferred counter rules.

Everything is driven by one ``np.random.default_rng(seed)`` Generator:
the same seed always yields byte-identical programs (and therefore a
byte-identical crash corpus), which is what makes every failure replay
deterministically.

Boundary pressure is deliberate: dimension samples include 0 and 1,
index domains include empty ranges, and the workload-config perturber
(:func:`perturb_configs`) emits degenerate knowledge bases, boundary
matrix sizes, and extreme-sparsity settings for the roster workloads.

Ops without a template are listed in :data:`KNOWN_UNGENERATED` with a
reason; the registry-coverage test asserts the two sets exactly
partition ``OP_CATEGORIES``, so a newly registered op must either get
a template or an explicit exemption.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

Shape = Tuple[int, ...]
Entry = namedtuple("Entry", "nid shape dtype")

_FLOAT_DTYPES = ("float32", "float64")


def _is_float(dtype: str) -> bool:
    return dtype in _FLOAT_DTYPES


def _size(shape: Shape) -> int:
    size = 1
    for dim in shape:
        size *= dim
    return size


# ---------------------------------------------------------------------------
# program model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LeafSpec:
    """An input tensor materialized from ``default_rng([seed, nid])``."""

    nid: int
    shape: Shape
    dtype: str = "float32"
    dist: str = "normal"      # normal | unit | offset | bool | indices
    high: int = 0             # exclusive index bound for dist="indices"

    def to_dict(self) -> Dict[str, object]:
        return {"nid": self.nid, "shape": list(self.shape),
                "dtype": self.dtype, "dist": self.dist, "high": self.high}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "LeafSpec":
        return cls(nid=int(data["nid"]),  # type: ignore[arg-type]
                   shape=tuple(int(d) for d in data["shape"]),  # type: ignore[union-attr]
                   dtype=str(data["dtype"]), dist=str(data["dist"]),
                   high=int(data.get("high", 0)))  # type: ignore[arg-type]


@dataclass(frozen=True)
class OpNode:
    """One op application; inputs reference earlier leaf/node nids."""

    nid: int
    op: str                       # repro.tensor function name
    inputs: Tuple[int, ...]
    params: Tuple[Tuple[str, object], ...] = ()
    out_shape: Optional[Shape] = None   # template prediction (None: dynamic)
    out_dtype: Optional[str] = None

    def param_dict(self) -> Dict[str, object]:
        return dict(self.params)

    def to_dict(self) -> Dict[str, object]:
        return {"nid": self.nid, "op": self.op,
                "inputs": list(self.inputs),
                "params": {k: v for k, v in self.params},
                "out_shape": (list(self.out_shape)
                              if self.out_shape is not None else None),
                "out_dtype": self.out_dtype}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "OpNode":
        params = tuple(sorted(
            (str(k), _param_from_json(v))
            for k, v in (data.get("params") or {}).items()))  # type: ignore[union-attr]
        shape = data.get("out_shape")
        return cls(nid=int(data["nid"]), op=str(data["op"]),  # type: ignore[arg-type]
                   inputs=tuple(int(i) for i in data["inputs"]),  # type: ignore[union-attr]
                   params=params,
                   out_shape=(tuple(int(d) for d in shape)
                              if shape is not None else None),
                   out_dtype=(str(data["out_dtype"])
                              if data.get("out_dtype") is not None else None))


def _param_from_json(value: object) -> object:
    if isinstance(value, list):
        return tuple(_param_from_json(v) for v in value)
    return value


@dataclass
class OpProgram:
    """A generated program: leaves, nodes, and the seed that built it."""

    seed: int
    leaves: List[LeafSpec] = field(default_factory=list)
    nodes: List[OpNode] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {"seed": self.seed,
                "leaves": [leaf.to_dict() for leaf in self.leaves],
                "nodes": [node.to_dict() for node in self.nodes]}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "OpProgram":
        return cls(seed=int(data["seed"]),  # type: ignore[arg-type]
                   leaves=[LeafSpec.from_dict(d) for d in data["leaves"]],  # type: ignore[union-attr]
                   nodes=[OpNode.from_dict(d) for d in data["nodes"]])  # type: ignore[union-attr]

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))


# ---------------------------------------------------------------------------
# builder
# ---------------------------------------------------------------------------

class ProgramBuilder:
    """Accumulates leaves/nodes and tracks reusable typed entries.

    Float leaves are drawn in ``float_dtype`` unless a template asks
    for another dtype.
    """

    def __init__(self, seed: int, float_dtype: str = "float32"):
        self.float_dtype = float_dtype
        self.program = OpProgram(seed=seed)
        self.entries: List[Entry] = []
        self._next_nid = 0

    def _nid(self) -> int:
        nid = self._next_nid
        self._next_nid += 1
        return nid

    def leaf(self, shape: Sequence[int], dist: str = "normal",
             dtype: Optional[str] = None, high: int = 0) -> Entry:
        spec = LeafSpec(nid=self._nid(), shape=tuple(int(d) for d in shape),
                        dtype=dtype or self.float_dtype, dist=dist,
                        high=high)
        self.program.leaves.append(spec)
        entry = Entry(spec.nid, spec.shape, spec.dtype)
        self.entries.append(entry)
        return entry

    def emit(self, op: str, inputs: Sequence[Entry],
             params: Dict[str, object],
             out_shape: Optional[Shape],
             out_dtype: Optional[str]) -> Optional[Entry]:
        node = OpNode(nid=self._nid(), op=op,
                      inputs=tuple(e.nid for e in inputs),
                      params=tuple(sorted(params.items())),
                      out_shape=out_shape, out_dtype=out_dtype)
        self.program.nodes.append(node)
        if out_shape is None or out_dtype is None:
            return None        # dynamic output: not reusable for chaining
        entry = Entry(node.nid, out_shape, out_dtype)
        self.entries.append(entry)
        return entry


# ---------------------------------------------------------------------------
# sampling helpers
# ---------------------------------------------------------------------------

#: small dims with boundary pressure; zero appears but stays rare so
#: programs usually survive long enough to compose deeply
_DIM_CHOICES = (0, 1, 2, 3, 4, 5, 8)
_DIM_WEIGHTS = (0.06, 0.14, 0.2, 0.2, 0.16, 0.14, 0.1)


def _sample_dim(rng: np.random.Generator) -> int:
    return int(rng.choice(_DIM_CHOICES, p=_DIM_WEIGHTS))


def _sample_shape(rng: np.random.Generator, min_rank: int = 0,
                  max_rank: int = 3) -> Shape:
    rank = int(rng.integers(min_rank, max_rank + 1))
    return tuple(_sample_dim(rng) for _ in range(rank))


def _pick(rng: np.random.Generator, entries: Sequence[Entry],
          pred: Callable[[Entry], bool]) -> Optional[Entry]:
    matches = [e for e in entries if pred(e)]
    if not matches:
        return None
    return matches[int(rng.integers(len(matches)))]


def _float_entry(rng: np.random.Generator, b: ProgramBuilder,
                 min_rank: int = 0, max_rank: int = 3,
                 reuse_p: float = 0.7) -> Entry:
    """A float entry of acceptable rank: reuse one or grow a leaf."""
    if rng.random() < reuse_p:
        found = _pick(rng, b.entries,
                      lambda e: _is_float(e.dtype)
                      and min_rank <= len(e.shape) <= max_rank)
        if found is not None:
            return found
    return b.leaf(_sample_shape(rng, min_rank, max_rank))


def _broadcast_partner(rng: np.random.Generator, b: ProgramBuilder,
                       shape: Shape) -> Entry:
    """A leaf broadcast-compatible with ``shape``."""
    mode = rng.random()
    if mode < 0.4 or not shape:
        return b.leaf(shape)
    if mode < 0.6:
        return b.leaf(())                       # scalar-shaped operand
    partner = list(shape)
    for i in range(len(partner)):
        if rng.random() < 0.3:
            partner[i] = 1
    drop = int(rng.integers(0, len(partner)))   # shorter-rank operand
    return b.leaf(tuple(partner[drop:]))


def _result_dtype(*dtypes: str) -> str:
    return str(np.result_type(*dtypes))


# ---------------------------------------------------------------------------
# templates: registry key -> emitter
# ---------------------------------------------------------------------------

Template = Callable[[np.random.Generator, ProgramBuilder], Optional[Entry]]
TEMPLATES: Dict[str, Template] = {}

#: registry ops deliberately not generated, with the reason; the
#: coverage test enforces TEMPLATES | KNOWN_UNGENERATED == OP_CATEGORIES
KNOWN_UNGENERATED: Dict[str, str] = {
    "linear": "nn-layer wrapper over matmul+add; constituents generated",
    "batchnorm2d": "nn-layer wrapper; constituents generated",
    "avgpool2d": "nn-layer wrapper over a window mean; no roster caller",
    "global_avgpool": "nn-layer wrapper over mean",
    "spmm": "CSRMatrix calling convention (not a dense-tensor op)",
    "sddmm": "CSRMatrix calling convention",
    "csr_row_softmax": "CSRMatrix calling convention",
    "csr_mask": "CSRMatrix calling convention",
    "csr_to_dense": "CSRMatrix calling convention",
    "scatter_max": "CSR scatter kernels (indptr-driven)",
    "scatter_min": "CSR scatter kernels (indptr-driven)",
    "complex_conj": "VSA fractional-binding internal (complex pipeline)",
    "phasor_project": "VSA fractional-binding internal",
    "phasor_similarity": "VSA fractional-binding internal",
    "index": "takes an arbitrary host-side key object, not serializable",
}


def _template(key: str) -> Callable[[Template], Template]:
    def decorator(fn: Template) -> Template:
        TEMPLATES[key] = fn
        return fn
    return decorator


def _register_arith(key: str) -> None:
    def emit(rng: np.random.Generator, b: ProgramBuilder) -> Optional[Entry]:
        a = _float_entry(rng, b)
        other = _broadcast_partner(rng, b, a.shape)
        out = tuple(np.broadcast_shapes(a.shape, other.shape))
        return b.emit(key, [a, other], {}, out,
                      _result_dtype(a.dtype, other.dtype))
    TEMPLATES[key] = emit


def _register_compare(key: str) -> None:
    def emit(rng: np.random.Generator, b: ProgramBuilder) -> Optional[Entry]:
        a = _float_entry(rng, b)
        other = _broadcast_partner(rng, b, a.shape)
        out = tuple(np.broadcast_shapes(a.shape, other.shape))
        return b.emit(key, [a, other], {}, out, "bool")
    TEMPLATES[key] = emit


def _register_unary(key: str) -> None:
    def emit(rng: np.random.Generator, b: ProgramBuilder) -> Optional[Entry]:
        a = _float_entry(rng, b)
        return b.emit(key, [a], {}, a.shape, a.dtype)
    TEMPLATES[key] = emit


for _key in ("add", "sub", "mul", "div", "pow", "maximum", "minimum"):
    _register_arith(_key)
for _key in ("greater", "less", "equal", "logical_and", "logical_or"):
    _register_compare(_key)
for _key in ("neg", "exp", "log", "sqrt", "tanh", "abs", "sign",
             "reciprocal", "relu", "sigmoid"):
    _register_unary(_key)


@_template("logical_not")
def _t_logical_not(rng: np.random.Generator,
                   b: ProgramBuilder) -> Optional[Entry]:
    a = _pick(rng, b.entries, lambda e: e.dtype == "bool")
    if a is None:
        a = b.leaf(_sample_shape(rng), dist="bool", dtype="bool")
    return b.emit("logical_not", [a], {}, a.shape, "bool")


@_template("clip")
def _t_clip(rng: np.random.Generator, b: ProgramBuilder) -> Optional[Entry]:
    a = _float_entry(rng, b)
    lo, hi = sorted(float(round(v, 3)) for v in rng.normal(size=2))
    return b.emit("clip", [a], {"lo": lo, "hi": hi}, a.shape, a.dtype)


@_template("where")
def _t_where(rng: np.random.Generator, b: ProgramBuilder) -> Optional[Entry]:
    a = _float_entry(rng, b)
    cond = b.leaf(a.shape, dist="bool", dtype="bool")
    other = b.leaf(a.shape)
    return b.emit("where", [cond, a, other], {}, a.shape,
                  _result_dtype(a.dtype, other.dtype))


def _register_reduction(key: str, out_dtype: Optional[str] = None,
                        needs_elems: bool = False) -> None:
    def emit(rng: np.random.Generator, b: ProgramBuilder) -> Optional[Entry]:
        a = _float_entry(rng, b, min_rank=1)
        if needs_elems and _size(a.shape) == 0 and rng.random() < 0.8:
            return None        # mostly avoid the classified-error stop
        if rng.random() < 0.3:
            out: Shape = ()
            params: Dict[str, object] = {}
            if needs_elems and _size(a.shape) == 0:
                pass           # rare: deliberately hit the classified path
        else:
            axis = int(rng.integers(len(a.shape)))
            keepdims = bool(rng.random() < 0.3)
            params = {"axis": axis, "keepdims": keepdims}
            out = (a.shape[:axis] + ((1,) if keepdims else ())
                   + a.shape[axis + 1:])
        dtype = out_dtype or a.dtype
        return b.emit(key, [a], params, out, dtype)
    TEMPLATES[key] = emit


for _key in ("sum", "mean", "prod", "max", "min"):
    _register_reduction(_key, needs_elems=_key in ("max", "min"))
_register_reduction("norm")


@_template("argmax")
def _t_argmax(rng: np.random.Generator, b: ProgramBuilder) -> Optional[Entry]:
    a = _float_entry(rng, b, min_rank=1)
    if rng.random() < 0.3:
        return b.emit("argmax", [a], {}, (), "int64")
    axis = int(rng.integers(len(a.shape)))
    out = a.shape[:axis] + a.shape[axis + 1:]
    return b.emit("argmax", [a], {"axis": axis}, out, "int64")


@_template("cumsum")
def _t_cumsum(rng: np.random.Generator, b: ProgramBuilder) -> Optional[Entry]:
    a = _float_entry(rng, b, min_rank=1)
    axis = int(rng.integers(len(a.shape)))
    return b.emit("cumsum", [a], {"axis": axis}, a.shape, a.dtype)


def _register_softmax(key: str) -> None:
    def emit(rng: np.random.Generator, b: ProgramBuilder) -> Optional[Entry]:
        a = _float_entry(rng, b, min_rank=1)
        return b.emit(key, [a], {"axis": -1}, a.shape, a.dtype)
    TEMPLATES[key] = emit


_register_softmax("softmax")
_register_softmax("log_softmax")


# -- matmul family -----------------------------------------------------------

@_template("matmul")
def _t_matmul(rng: np.random.Generator, b: ProgramBuilder) -> Optional[Entry]:
    a = _float_entry(rng, b, min_rank=1, max_rank=3)
    k = a.shape[-1]
    if len(a.shape) == 1 and rng.random() < 0.3:
        other = b.leaf((k,))                       # vector · vector
        return b.emit("matmul", [a, other], {}, (),
                      _result_dtype(a.dtype, other.dtype))
    cols = _sample_dim(rng)
    other = b.leaf((k, cols))
    out = a.shape[:-1] + (cols,)
    if len(a.shape) == 1:
        out = (cols,)
    return b.emit("matmul", [a, other], {}, out,
                  _result_dtype(a.dtype, other.dtype))


@_template("outer")
def _t_outer(rng: np.random.Generator, b: ProgramBuilder) -> Optional[Entry]:
    a = _float_entry(rng, b)
    other = _float_entry(rng, b)
    return b.emit("outer", [a, other], {},
                  (_size(a.shape), _size(other.shape)),
                  _result_dtype(a.dtype, other.dtype))


@_template("einsum")
def _t_einsum(rng: np.random.Generator, b: ProgramBuilder) -> Optional[Entry]:
    i, j, k = (_sample_dim(rng) for _ in range(3))
    a = b.leaf((i, j))
    other = b.leaf((j, k))
    return b.emit("einsum", [a, other], {"spec": "ij,jk->ik"}, (i, k),
                  _result_dtype(a.dtype, other.dtype))


@_template("conv2d")
def _t_conv2d(rng: np.random.Generator, b: ProgramBuilder) -> Optional[Entry]:
    n = int(rng.choice((0, 1, 2), p=(0.1, 0.5, 0.4)))
    c = int(rng.integers(1, 3))
    h, w = int(rng.integers(3, 7)), int(rng.integers(3, 7))
    c_out = int(rng.integers(1, 4))
    padding = int(rng.integers(0, 2))
    stride = int(rng.integers(1, 3))
    kh = int(rng.integers(1, h + 2 * padding + 1))
    kw = int(rng.integers(1, w + 2 * padding + 1))
    x = b.leaf((n, c, h, w))
    weight = b.leaf((c_out, c, kh, kw))
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    inputs = [x, weight]
    params: Dict[str, object] = {"stride": stride, "padding": padding}
    if rng.random() < 0.5:
        inputs.append(b.leaf((c_out,)))
        params["bias"] = True
    return b.emit("conv2d", inputs, params, (n, c_out, h_out, w_out),
                  x.dtype)


@_template("maxpool2d")
def _t_maxpool2d(rng: np.random.Generator,
                 b: ProgramBuilder) -> Optional[Entry]:
    x = _pick(rng, b.entries,
              lambda e: _is_float(e.dtype) and len(e.shape) == 4)
    if x is None or rng.random() < 0.5:
        n = int(rng.choice((0, 1, 2), p=(0.1, 0.5, 0.4)))
        x = b.leaf((n, int(rng.integers(1, 4)), int(rng.integers(1, 8)),
                    int(rng.integers(1, 8))))
    h, w = x.shape[2], x.shape[3]
    mode = rng.random()
    if mode < 0.1:
        k = s = max(h, w) + 1                     # window larger than input
    elif mode < 0.4:
        k, s = 3, 2                               # overlapping windows
    else:
        k = int(rng.integers(1, 4))
        s = int(rng.integers(1, k + 1))
    if k > h or k > w:
        if mode >= 0.1 and rng.random() < 0.8:
            return None        # mostly avoid the classified stop
        # the layer refuses the window with a TensorOpError
        return b.emit("maxpool2d", [x], {"kernel_size": k, "stride": s},
                      None, None)
    out = (x.shape[0], x.shape[1], (h - k) // s + 1, (w - k) // s + 1)
    return b.emit("maxpool2d", [x], {"kernel_size": k, "stride": s}, out,
                  x.dtype)


# -- spectral / binding ------------------------------------------------------

def _complex_for(dtype: str) -> str:
    """numpy's FFT output width for a real input dtype."""
    return "complex64" if dtype == "float32" else "complex128"


def _real_for(dtype: str) -> str:
    return "float32" if dtype == "complex64" else "float64"


@_template("rfft")
def _t_rfft(rng: np.random.Generator, b: ProgramBuilder) -> Optional[Entry]:
    a = _float_entry(rng, b, min_rank=1)
    d = a.shape[-1]
    if d == 0 and rng.random() < 0.8:
        return None            # mostly avoid the classified stop
    out = a.shape[:-1] + (d // 2 + 1,) if d else None
    return b.emit("rfft", [a], {"axis": -1}, out,
                  _complex_for(a.dtype) if d else None)


@_template("irfft")
def _t_irfft(rng: np.random.Generator, b: ProgramBuilder) -> Optional[Entry]:
    spec = _pick(rng, b.entries,
                 lambda e: e.dtype.startswith("complex")
                 and len(e.shape) >= 1 and e.shape[-1] > 0)
    if spec is None:
        base = _float_entry(rng, b, min_rank=1)
        if base.shape[-1] == 0:
            return None
        spec = b.emit("rfft", [base], {"axis": -1},
                      base.shape[:-1] + (base.shape[-1] // 2 + 1,),
                      _complex_for(base.dtype))
        if spec is None:
            return None
    n = int(rng.integers(1, 2 * spec.shape[-1] + 1))
    return b.emit("irfft", [spec], {"n": n, "axis": -1},
                  spec.shape[:-1] + (n,), _real_for(spec.dtype))


def _register_binding(key: str) -> None:
    def emit(rng: np.random.Generator, b: ProgramBuilder) -> Optional[Entry]:
        a = _float_entry(rng, b, min_rank=1)
        d = a.shape[-1]
        if d == 0:
            return None
        other = b.leaf((d,))
        return b.emit(key, [a, other], {}, a.shape, a.dtype)
    TEMPLATES[key] = emit


_register_binding("circular_conv")
_register_binding("circular_corr")


# -- transforms --------------------------------------------------------------

@_template("reshape")
def _t_reshape(rng: np.random.Generator, b: ProgramBuilder) -> Optional[Entry]:
    a = _pick(rng, b.entries, lambda e: True) or b.leaf(_sample_shape(rng))
    size = _size(a.shape)
    if size == 0:
        new_shape: Shape = (0,)
    else:
        factors: List[int] = []
        rest = size
        while rest > 1 and len(factors) < 2 and rng.random() < 0.7:
            divs = [d for d in range(2, rest + 1) if rest % d == 0]
            pick = divs[int(rng.integers(len(divs)))]
            factors.append(pick)
            rest //= pick
        factors.append(rest)
        new_shape = tuple(factors)
    return b.emit("reshape", [a], {"shape": list(new_shape)}, new_shape,
                  a.dtype)


@_template("transpose")
def _t_transpose(rng: np.random.Generator,
                 b: ProgramBuilder) -> Optional[Entry]:
    a = _float_entry(rng, b, min_rank=1)
    axes = [int(i) for i in rng.permutation(len(a.shape))]
    out = tuple(a.shape[i] for i in axes)
    return b.emit("transpose", [a], {"axes": axes}, out, a.dtype)


@_template("concat")
def _t_concat(rng: np.random.Generator, b: ProgramBuilder) -> Optional[Entry]:
    a = _float_entry(rng, b, min_rank=1)
    count = int(rng.integers(2, 4))
    parts = [a] + [b.leaf(a.shape) for _ in range(count - 1)]
    axis = int(rng.integers(len(a.shape)))
    out = (a.shape[:axis] + (a.shape[axis] * count,) + a.shape[axis + 1:])
    return b.emit("concat", parts, {"axis": axis}, out, a.dtype)


@_template("stack")
def _t_stack(rng: np.random.Generator, b: ProgramBuilder) -> Optional[Entry]:
    a = _float_entry(rng, b)
    count = int(rng.integers(2, 4))
    parts = [a] + [b.leaf(a.shape) for _ in range(count - 1)]
    axis = int(rng.integers(len(a.shape) + 1))
    out = a.shape[:axis] + (count,) + a.shape[axis:]
    return b.emit("stack", parts, {"axis": axis}, out, a.dtype)


@_template("split")
def _t_split(rng: np.random.Generator, b: ProgramBuilder) -> Optional[Entry]:
    a = _float_entry(rng, b, min_rank=1)
    options = [(axis, s) for axis in range(len(a.shape))
               for s in range(1, a.shape[axis] + 1)
               if a.shape[axis] % s == 0]
    if not options:
        return None
    axis, sections = options[int(rng.integers(len(options)))]
    part = int(rng.integers(sections))
    out = (a.shape[:axis] + (a.shape[axis] // sections,)
           + a.shape[axis + 1:])
    return b.emit("split", [a],
                  {"sections": sections, "axis": axis, "part": part},
                  out, a.dtype)


@_template("pad")
def _t_pad(rng: np.random.Generator, b: ProgramBuilder) -> Optional[Entry]:
    a = _float_entry(rng, b, min_rank=1)
    width = int(rng.integers(0, 3))
    value = float(round(float(rng.normal()), 3))
    out = tuple(d + 2 * width for d in a.shape)
    return b.emit("pad", [a], {"pad_width": width, "value": value}, out,
                  a.dtype)


@_template("take")
def _t_take(rng: np.random.Generator, b: ProgramBuilder) -> Optional[Entry]:
    a = _float_entry(rng, b, min_rank=1)
    axis = int(rng.integers(len(a.shape)))
    extent = a.shape[axis]
    count = 0 if extent == 0 else int(rng.integers(0, 6))
    idx = b.leaf((count,), dist="indices", dtype="int64", high=extent)
    out = a.shape[:axis] + (count,) + a.shape[axis + 1:]
    return b.emit("take", [a, idx], {"axis": axis}, out, a.dtype)


@_template("masked_select")
def _t_masked_select(rng: np.random.Generator,
                     b: ProgramBuilder) -> Optional[Entry]:
    a = _float_entry(rng, b)
    mask = b.leaf(a.shape, dist="bool", dtype="bool")
    # output extent is data-dependent: emitted unchecked and unreusable
    return b.emit("masked_select", [a, mask], {}, None, None)


@_template("broadcast_to")
def _t_broadcast_to(rng: np.random.Generator,
                    b: ProgramBuilder) -> Optional[Entry]:
    a = _float_entry(rng, b)
    lead = tuple(_sample_dim(rng)
                 for _ in range(int(rng.integers(1, 3))))
    out = lead + a.shape
    return b.emit("broadcast_to", [a], {"shape": list(out)}, out, a.dtype)


@_template("roll")
def _t_roll(rng: np.random.Generator, b: ProgramBuilder) -> Optional[Entry]:
    a = _float_entry(rng, b, min_rank=1)
    axis = int(rng.integers(len(a.shape)))
    shift = int(rng.integers(-3, 4))
    return b.emit("roll", [a], {"shift": shift, "axis": axis}, a.shape,
                  a.dtype)


@_template("flip")
def _t_flip(rng: np.random.Generator, b: ProgramBuilder) -> Optional[Entry]:
    a = _float_entry(rng, b, min_rank=1)
    axis = int(rng.integers(len(a.shape)))
    return b.emit("flip", [a], {"axis": axis}, a.shape, a.dtype)


@_template("sort")
def _t_sort(rng: np.random.Generator, b: ProgramBuilder) -> Optional[Entry]:
    a = _float_entry(rng, b, min_rank=1)
    return b.emit("sort", [a], {"axis": -1}, a.shape, a.dtype)


@_template("argsort")
def _t_argsort(rng: np.random.Generator, b: ProgramBuilder) -> Optional[Entry]:
    a = _float_entry(rng, b, min_rank=1)
    return b.emit("argsort", [a], {"axis": -1}, a.shape, "int64")


@_template("coalesce")
def _t_coalesce(rng: np.random.Generator, b: ProgramBuilder) -> Optional[Entry]:
    size = int(rng.integers(0, 9))
    count = 0 if size == 0 else int(rng.integers(0, 6))
    idx = b.leaf((count,), dist="indices", dtype="int64", high=size)
    values = b.leaf((count,))
    return b.emit("coalesce", [idx, values], {"size": size}, (size,),
                  values.dtype)


@_template("one_hot")
def _t_one_hot(rng: np.random.Generator, b: ProgramBuilder) -> Optional[Entry]:
    depth = int(rng.integers(1, 6))
    idx = b.leaf(_sample_shape(rng, max_rank=2), dist="indices",
                 dtype="int64", high=depth)
    return b.emit("one_hot", [idx], {"depth": depth},
                  idx.shape + (depth,), "float32")


# -- movement ----------------------------------------------------------------

def _register_movement(key: str, op: str) -> None:
    def emit(rng: np.random.Generator, b: ProgramBuilder) -> Optional[Entry]:
        a = _pick(rng, b.entries, lambda e: True) or b.leaf(
            _sample_shape(rng))
        return b.emit(op, [a], {}, a.shape, a.dtype)
    TEMPLATES[key] = emit


_register_movement("copy", "copy")
_register_movement("assign", "assign")
_register_movement("to_host", "to_host")
_register_movement("to_*", "to_device")


@_template("astype")
def _t_astype(rng: np.random.Generator, b: ProgramBuilder) -> Optional[Entry]:
    a = _pick(rng, b.entries,
              lambda e: not e.dtype.startswith("complex"))
    if a is None:
        a = b.leaf(_sample_shape(rng))
    target = ("float32", "float64", "int32")[int(rng.integers(3))]
    return b.emit("astype", [a], {"dtype": target}, a.shape, target)


# -- fuzzy logic -------------------------------------------------------------

_FUZZY_KINDS = ("lukasiewicz", "goedel", "product")


def _register_fuzzy(key: str) -> None:
    def emit(rng: np.random.Generator, b: ProgramBuilder) -> Optional[Entry]:
        shape = _sample_shape(rng)
        a = b.leaf(shape, dist="unit")
        other = b.leaf(shape, dist="unit")
        kind = _FUZZY_KINDS[int(rng.integers(len(_FUZZY_KINDS)))]
        return b.emit(key, [a, other], {"kind": kind}, shape,
                      _result_dtype(a.dtype, other.dtype))
    TEMPLATES[key] = emit


_register_fuzzy("fuzzy_and")
_register_fuzzy("fuzzy_or")
_register_fuzzy("fuzzy_implies")


@_template("fuzzy_not")
def _t_fuzzy_not(rng: np.random.Generator,
                 b: ProgramBuilder) -> Optional[Entry]:
    a = b.leaf(_sample_shape(rng), dist="unit")
    return b.emit("fuzzy_not", [a], {}, a.shape, a.dtype)


# ---------------------------------------------------------------------------
# program generation
# ---------------------------------------------------------------------------

def generate_program(seed: int, max_ops: int = 12,
                     ops: Optional[Sequence[str]] = None) -> OpProgram:
    """Grow one random valid program under ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    universe = list(ops) if ops else sorted(TEMPLATES)
    builder = ProgramBuilder(seed)
    target = int(rng.integers(3, max(4, max_ops + 1)))
    attempts = 0
    while len(builder.program.nodes) < target and attempts < target * 8:
        attempts += 1
        key = universe[int(rng.integers(len(universe)))]
        TEMPLATES[key](rng, builder)
    return builder.program


def single_op_program(seed: int, key: str, emissions: int = 4,
                      float_dtype: str = "float32") -> OpProgram:
    """A small program exercising one template several times.

    Multiple emissions per program matter: templates draw structural
    modes (full vs. axis reduction, bias vs. no bias, ...) at random,
    and rule inference must see every mode or it fits relations that
    are merely coincidences of one mode.  Float leaves are
    ``float_dtype``.
    """
    rng = np.random.default_rng(seed)
    builder = ProgramBuilder(seed, float_dtype)
    for _ in range(emissions * 4):
        if len(builder.program.nodes) >= emissions:
            break
        TEMPLATES[key](rng, builder)
    return builder.program


def calibration_programs(seed: int, per_op: int = 12,
                         chained: int = 8,
                         ops: Optional[Sequence[str]] = None
                         ) -> List[OpProgram]:
    """Programs that stretch every template across diverse shapes.

    Rule inference runs over harvest **plus** these, so a rule must
    survive the generator's own shape and dtype distribution before
    the oracle enforces it on fresh programs — this is what keeps
    statistically overfit relations (true for one workload's shapes
    only) from producing false divergences later.  Rounds alternate
    float32 and float64 leaves (programs reach float64 through
    ``astype``), and twelve per op let rare template modes — a
    vector-vector ``matmul``, a flattening ``reshape`` — show up at
    every seed.
    """
    base = 1_000_000_007 + seed * 9_973
    programs: List[OpProgram] = []
    for index, key in enumerate(sorted(ops if ops else TEMPLATES)):
        for round_no in range(per_op):
            programs.append(single_op_program(
                base + index * 101 + round_no, key,
                float_dtype=_FLOAT_DTYPES[round_no % 2]))
    for round_no in range(chained):
        programs.append(generate_program(base + 50_021 + round_no,
                                         max_ops=10, ops=ops))
    return programs


# ---------------------------------------------------------------------------
# perturbed workload configs
# ---------------------------------------------------------------------------

#: boundary parameter grids per roster workload: degenerate KBs, unit
#: and tiny hypervector dims, extreme sparsity, boundary matrix sizes
WORKLOAD_PARAM_SPACE: Dict[str, Dict[str, Tuple[object, ...]]] = {
    "lnn": {
        "num_departments": (1, 2),
        "professors_per_dept": (1, 2, 4),
    },
    "nvsa": {
        "matrix_size": (1, 2, 3),
        "dim": (16, 64, 256),
    },
}


def perturb_configs(seed: int, count: int
                    ) -> List[Tuple[str, Dict[str, object]]]:
    """Seeded boundary configurations for the roster workloads."""
    rng = np.random.default_rng(seed)
    names = sorted(WORKLOAD_PARAM_SPACE)
    out: List[Tuple[str, Dict[str, object]]] = []
    for _ in range(count):
        name = names[int(rng.integers(len(names)))]
        space = WORKLOAD_PARAM_SPACE[name]
        params = {param: values[int(rng.integers(len(values)))]
                  for param, values in sorted(space.items())}
        out.append((name, params))
    return out
