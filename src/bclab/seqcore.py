"""Sequence primitives shared by the rest of the package, and the config
JSON codec.

Real sequences are closed-form templates (power-log, which also answers
limit and summability questions exactly, and geometric) or tabulated
arrays with a finite horizon.  Everything here is pure and deterministic.
"""

import functools
import hashlib
import inspect
import math
import sys
import typing
from dataclasses import dataclass, fields

import numpy as np


class SeqDomainError(ValueError):
    """Inputs outside a sequence's declared domain or contract."""


class HorizonExhausted(SeqDomainError):
    """An index beyond a tabulated sequence's horizon."""


# ---------------------------------------------------------------------------
# Real sequences


class RealSeq:
    """Base class: a sequence v_n of finite nonnegative reals, n >= start."""

    start: int = 1

    @property
    def horizon(self):
        """Last defined index, or None when the sequence is unbounded."""
        return None

    def eval(self, n: int) -> float:
        """v_n, read from the vector form."""
        self._require_in_domain(n)
        return float(self.array(n, n)[0])

    def array(self, lo: int, hi: int) -> np.ndarray:
        """Values v_lo..v_hi inclusive."""
        raise NotImplementedError

    def _require_in_domain(self, n: int):
        if n < self.start:
            raise SeqDomainError(f"index {n} below sequence start {self.start}")
        h = self.horizon
        if h is not None and n > h:
            raise HorizonExhausted(f"index {n} beyond horizon {h}")


@dataclass(frozen=True, eq=False)
class TabulatedSeq(RealSeq):
    values: np.ndarray
    start: int = 1

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise SeqDomainError(_TABLE_EMPTY)
        _check_table(vals.size, np.all(np.isfinite(vals)),
                     not np.any(vals < -1e-12))
        object.__setattr__(self, "values", np.maximum(vals, 0.0))

    @property
    def horizon(self):
        return self.start + len(self.values) - 1

    def array(self, lo: int, hi: int) -> np.ndarray:
        self._require_in_domain(lo)
        self._require_in_domain(hi)
        return self.values[lo - self.start : hi - self.start + 1]


_TABLE_EMPTY = "tabulated sequence needs a nonempty 1-d array"


def _check_table(size, finite, nonnegative):
    """A tabulated sequence's checks, in its order, on a table's summary."""
    if size == 0:
        raise SeqDomainError(_TABLE_EMPTY)
    if not finite:
        raise SeqDomainError("tabulated sequence has non-finite entries")
    if not nonnegative:
        raise SeqDomainError("sequence terms must be >= 0")


@dataclass(frozen=True, eq=False)
class SampledSeq(RealSeq):
    """A table v_start..v_horizon kept only at the increasing indices ``at``.

    eval and array read the kept values and raise SeqDomainError at any
    other index.  ``length`` and ``sha256`` (of the whole table's float64
    bytes) let it be fingerprinted as TabulatedSeq(table) would be.
    Built by TableSampler.
    """

    at: np.ndarray
    values: np.ndarray
    length: int
    sha256: str
    start: int = 1

    @property
    def horizon(self):
        return self.start + self.length - 1

    def array(self, lo: int, hi: int) -> np.ndarray:
        self._require_in_domain(lo)
        self._require_in_domain(hi)
        i0, i1 = np.searchsorted(self.at, (lo, hi + 1))
        if i1 - i0 != hi - lo + 1:
            raise SeqDomainError(f"indices {lo}..{hi} are not all among the "
                                 f"{len(self.at)} indices this table keeps")
        return self.values[i0:i1]


class TableSampler:
    """A SampledSeq from a table v_1, v_2, ... given as consecutive windows,
    so that the whole table is never held.

    Each window gets TabulatedSeq's checks (finite, >= -1e-12) and clamp at
    0 and is hashed as it comes; seq() raises the error TabulatedSeq(table)
    would raise.
    """

    def __init__(self, at):
        self.at = np.asarray(at, dtype=np.int64)
        self._values = np.zeros(len(self.at))
        self._sha = hashlib.sha256()
        self._size = 0
        self._finite = self._nonnegative = True

    def add(self, window):
        """Take the table's next values."""
        w = np.asarray(window, dtype=float)
        lo = 1 + self._size
        self._size += w.size
        self._finite = self._finite and bool(np.all(np.isfinite(w)))
        self._nonnegative = self._nonnegative and not np.any(w < -1e-12)
        w = np.maximum(w, 0.0)
        self._sha.update(w)
        i0, i1 = np.searchsorted(self.at, (lo, lo + w.size))
        self._values[i0:i1] = w[self.at[i0:i1] - lo]

    def seq(self) -> SampledSeq:
        _check_table(self._size, self._finite, self._nonnegative)
        if self.at.size and not (1 <= self.at[0]
                                 and self.at[-1] <= self._size):
            raise SeqDomainError("sample indices outside the table")
        return SampledSeq(self.at, self._values, self._size,
                          self._sha.hexdigest())


@dataclass(frozen=True)
class PowerLogSeq(RealSeq):
    """v_n = c * n**(-p) * log(n + shift)**(-q), natural log.

    Covers constants (p = q = 0), pure powers, and logarithmic corrections
    such as 1/log(n+2).  Exponents may be negative to describe growth.
    """

    c: float = 1.0
    p: float = 0.0
    q: float = 0.0
    shift: float = 0.0
    start: int = 1

    def __post_init__(self):
        if self.c < 0:
            raise SeqDomainError("coefficient c must be >= 0")
        if self.start < 0:
            raise SeqDomainError("start must be >= 0")
        if self.p != 0 and self.start < 1:
            raise SeqDomainError("power terms need start >= 1")
        if self.q != 0 and self.start + self.shift < 2:
            raise SeqDomainError("log terms need start + shift >= 2 so log > 0")

    def array(self, lo: int, hi: int) -> np.ndarray:
        self._require_in_domain(lo)
        ns = np.arange(lo, hi + 1, dtype=float)
        out = np.full(ns.shape, float(self.c))
        if self.c == 0:
            return out  # zero, as limit_kind says, even where n**-p is inf
        if self.p != 0:
            out *= ns ** (-self.p)
        if self.q != 0:
            out *= np.log(ns + self.shift) ** (-self.q)
        return out

    def limit_kind(self):
        """One of 'zero', 'inf' or 'const': the limit of v_n."""
        if self.c == 0:
            return "zero"
        if self.p > 0 or (self.p == 0 and self.q > 0):
            return "zero"
        if self.p < 0 or (self.p == 0 and self.q < 0):
            return "inf"
        return "const"

    def series_converges(self):
        """Exact integral-test answer for sum(v_n)."""
        if self.c == 0:
            return True
        if self.p > 1:
            return True
        if self.p < 1:
            return False
        return self.q > 1

    def powered(self, e: float):
        return PowerLogSeq(self.c**e, self.p * e, self.q * e, self.shift, self.start)

    def scaled_by_power(self, s: float):
        return PowerLogSeq(self.c, self.p - s, self.q, self.shift, self.start)


@dataclass(frozen=True)
class GeometricSeq(RealSeq):
    """v_n = c * r**n for n >= start."""

    c: float = 1.0
    r: float = 0.5
    start: int = 0

    def __post_init__(self):
        if self.c < 0 or self.r < 0:
            raise SeqDomainError("geometric sequence needs c, r >= 0")

    def array(self, lo: int, hi: int) -> np.ndarray:
        self._require_in_domain(lo)
        ns = np.arange(lo, hi + 1, dtype=float)
        with np.errstate(over="ignore"):
            return self.c * self.r**ns


def constant_seq(c: float = 1.0, start: int = 1) -> PowerLogSeq:
    return PowerLogSeq(c=c, start=start)


def power_seq(c: float = 1.0, p: float = 0.0, start: int = 1) -> PowerLogSeq:
    """c * n**(-p); p > 0 decays, p < 0 grows."""
    return PowerLogSeq(c=c, p=p, start=start)


# ---------------------------------------------------------------------------
# Prefix sums and the checkpoint grid


def partial_sums(v: RealSeq, hi: int) -> TabulatedSeq:
    """Prefix-sum sequence E_m = sum(v_k, k = start..m) for m up to hi."""
    if hi < v.start:
        raise SeqDomainError(f"partial_sums needs hi >= start = {v.start}")
    return TabulatedSeq(np.cumsum(v.array(v.start, hi)), start=v.start)


def log_grid(lo: int, hi: int) -> np.ndarray:
    """Integers round(10**(j/8)) within [lo, hi], about 8 per decade, plus
    lo and hi themselves: the checkpoint grid of runs and criteria."""
    lo = int(max(lo, 1))
    hi = int(hi)
    if hi < lo:
        raise ValueError("empty grid: horizon below sequence start")
    j_hi = int(math.ceil(8 * math.log10(hi))) if hi > 1 else 0
    raw = np.round(10 ** (np.arange(j_hi + 1) / 8)).astype(np.int64)
    raw = raw[(raw >= lo) & (raw <= hi)]
    return np.unique(np.concatenate([raw, [lo, hi]]))


# ---------------------------------------------------------------------------
# The comparison function f


def huber(x):
    """Piecewise comparison function: x**2/2 on [-1, 1], |x| - 1/2 outside.

    Convex, even, vanishing only at 0, with 1-Lipschitz derivative; accepts
    scalars or arrays.
    """
    ax = np.abs(x)
    return np.where(ax <= 1.0, 0.5 * ax * ax, ax - 0.5)


# ---------------------------------------------------------------------------
# The config JSON codec: one reader and writer, driven by each class's fields


def json_object(what: str, d) -> dict:
    """d, if it is a JSON object; anything else is a ValueError naming
    what d stands for and the type it has."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, "
                         f"not {type(d).__name__}")
    return d


def check_fields(what: str, d: dict, allowed) -> None:
    """Raise ValueError unless d is a JSON object, naming every key of it
    not in allowed, so a misspelt field is an error rather than a silent
    default."""
    unknown = sorted(set(json_object(what, d)) - set(allowed))
    if unknown:
        raise ValueError(f"{what} has unknown fields {unknown}")


# the json.loads types each field type accepts; a bool is no integer
_JSON_KINDS = {int: ((int,), "integer"), float: ((int, float), "number"),
               str: ((str,), "string"), bool: ((bool,), "boolean")}


def _is_kind(v, kind: type) -> bool:
    """v is a JSON value of kind.  json.loads also reads NaN, +-Infinity
    and integers of any size, none of which bclab writes: a number must
    lie within the finite floats (NaN compares false), an integer within
    int64."""
    return (type(v) in _JSON_KINDS[kind][0]
            and (kind is not float or abs(v) <= sys.float_info.max)
            and (kind is not int or -2**63 <= v < 2**63))


def is_number(v) -> bool:
    return _is_kind(v, float)


def json_value(what: str, v, kind: type):
    """v as kind, if it is a JSON value of that kind; never converts, so
    1000.7 is no integer, "0.5" no number and NaN no number."""
    if not _is_kind(v, kind):
        raise ValueError(f"{what} must be a JSON {_JSON_KINDS[kind][1]}, not {v!r}")
    return kind(v)


def json_list(what: str, v, kind: type) -> list:
    """v, if it is a JSON list of values of one kind (see json_value)."""
    if not isinstance(v, list) or not all(_is_kind(x, kind) for x in v):
        raise ValueError(f"{what} must be a list of JSON {_JSON_KINDS[kind][1]}s")
    return v


class Codec(typing.NamedTuple):
    """A base class's JSON: ``what`` names it in messages (``called``, if
    set, a value that is no JSON object); the key ``tag`` names a class
    or read-only constructor in ``makers``, ``default`` where it is
    absent.  Without a tag the one maker is None."""

    what: str
    makers: dict
    tag: str = None
    default: str = None
    called: str = None


# base class: its Codec, set by the module that defines the base
JSON_CODECS = {}


def to_json(obj):
    """obj's JSON value: for a registered class, its name under the tag,
    then each init field in declaration order but a false flag."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, (tuple, list)):
        return [to_json(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    found = [(c, name) for c in JSON_CODECS.values()
             for name, make in c.makers.items() if make is type(obj)]
    if not found:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    codec, name = found[0]
    d = {codec.tag: name} if codec.tag else {}
    for f in fields(obj):
        v = getattr(obj, f.name)
        if f.init and v is not False:
            d[f.name] = to_json(v)
    return d


def from_json(d, base):
    """The object of base's codec whose JSON d is: every key but the tag
    names a parameter, a parameter without default is required, values
    are read as their types (_from_value), and validate() is called where
    the object has one.  Any fault is a ValueError."""
    codec = JSON_CODECS[base]
    json_object(codec.called or codec.what, d)
    name = d.get(codec.tag, codec.default) if codec.tag else None
    if codec.tag and (type(name) is not str or name not in codec.makers):
        raise ValueError(f"unknown {codec.what} {codec.tag} {name!r}")
    what = f"{codec.what} {name!r}" if codec.tag else codec.what
    params = _params(codec.makers[name])
    check_fields(what, d, [codec.tag, *(key for key, _, _ in params)])
    kw = {}
    for key, t, required in params:
        if key in d:
            kw[key] = _from_value(f"{what} {key}", d[key], t)
        elif required:
            raise ValueError(f"{what} missing required field {key!r}")
    obj = codec.makers[name](**kw)
    if hasattr(obj, "validate"):
        obj.validate()
    return obj


@functools.cache
def _params(make) -> tuple:
    """(name, type, required) of each parameter of make, read once.  The
    modules of registered classes do not postpone annotations, so the
    types are objects, and no annotation is compiled from a string."""
    return tuple((p.name, p.annotation, p.default is p.empty)
                 for p in inspect.signature(make).parameters.values())


def _from_value(what: str, v, t):
    """v as a JSON value of type t: a registered base's JSON object, null
    or X for ``X | None``, a Literal's value, a list of X for
    ``tuple[X, ...]`` or of numbers for an array, else a json_value."""
    args = typing.get_args(t)
    if type(None) in args:
        return None if v is None else _from_value(what, v, args[0])
    if typing.get_origin(t) is typing.Literal:
        if v not in args:
            raise ValueError(f"{what} must be "
                             f"{' or '.join(map(repr, args))}, not {v!r}")
        return v
    if t is np.ndarray:
        args = (float,)
    elif typing.get_origin(t) is not tuple:
        return from_json(v, t) if t in JSON_CODECS else json_value(what, v, t)
    if args[0] not in JSON_CODECS:
        return json_list(what, v, args[0])
    if not isinstance(v, list):
        raise ValueError(f"{what} must be a JSON list")
    return tuple(from_json(x, args[0]) for x in v)


JSON_CODECS[RealSeq] = Codec("sequence", {
    "powerlog": PowerLogSeq, "geometric": GeometricSeq,
    "tabulated": TabulatedSeq, "power": power_seq, "constant": constant_seq},
    "template", "powerlog", called="a sequence")
