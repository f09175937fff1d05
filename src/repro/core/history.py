"""Call-history store: stage 1 of the VIA pipeline (Figure 10).

Clients push their per-call network metrics to the controller; the
controller aggregates them per (pair key, relaying option, time window).
The store keeps Welford running statistics per metric, so mean and
standard-error-of-mean queries are O(1) and numerically stable.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterator

import numpy as np

from repro.netmodel.metrics import METRICS, PathMetrics
from repro.netmodel.options import RelayOption

__all__ = [
    "RunningStat",
    "CallHistory",
    "history_to_dict",
    "history_from_dict",
    "option_to_dict",
    "option_from_dict",
    "CheckpointCodec",
]

_N_METRICS = len(METRICS)


class RunningStat:
    """Welford running mean/variance for the three metrics at once."""

    __slots__ = ("count", "_mean", "_m2")

    def __init__(self) -> None:
        self.count = 0
        self._mean = np.zeros(_N_METRICS)
        self._m2 = np.zeros(_N_METRICS)

    def push(self, metrics: PathMetrics) -> None:
        """Fold one call's (rtt, loss, jitter) into the aggregate.

        Welford's update, one metric at a time, on unboxed Python floats
        (the per-row form of :meth:`push_many`).
        """
        count = self.count + 1
        mean, m2 = self._mean, self._m2
        m_r, m_l, m_j = mean.tolist()
        s_r, s_l, s_j = m2.tolist()
        r, l, j = metrics.rtt_ms, metrics.loss_rate, metrics.jitter_ms
        d = r - m_r
        m_r += d / count
        s_r += d * (r - m_r)
        d = l - m_l
        m_l += d / count
        s_l += d * (l - m_l)
        d = j - m_j
        m_j += d / count
        s_j += d * (j - m_j)
        self.count = count
        # Item writes in place: cheaper than building two new arrays.
        mean[0], mean[1], mean[2] = m_r, m_l, m_j
        m2[0], m2[1], m2[2] = s_r, s_l, s_j

    def push_many(self, values: np.ndarray) -> None:
        """Fold many (rtt, loss, jitter) rows, bit-identical to ``push``.

        ``values`` is an ``(n, 3)`` array.  Rows are folded **sequentially**
        (the same float operations in the same order as ``n`` scalar
        pushes), not pooled Chan-style: pooling produces ulp-level
        differences that would break the vector path's bit-equivalence
        contract.  The per-row arithmetic runs on unboxed Python floats,
        which follow the same IEEE-754 double semantics as the numpy
        scalar ops in :meth:`push` but fold an order of magnitude faster.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != _N_METRICS:
            raise ValueError(
                f"push_many expects an (n, {_N_METRICS}) array, got {values.shape}"
            )
        if not len(values):
            return
        count = self.count
        m_r, m_l, m_j = (float(x) for x in self._mean)
        s_r, s_l, s_j = (float(x) for x in self._m2)
        for r, l, j in zip(
            values[:, 0].tolist(), values[:, 1].tolist(), values[:, 2].tolist()
        ):
            count += 1
            d = r - m_r
            m_r += d / count
            s_r += d * (r - m_r)
            d = l - m_l
            m_l += d / count
            s_l += d * (l - m_l)
            d = j - m_j
            m_j += d / count
            s_j += d * (j - m_j)
        self.count = count
        self._mean = np.array([m_r, m_l, m_j])
        self._m2 = np.array([s_r, s_l, s_j])

    def merge(self, other: "RunningStat") -> "RunningStat":
        """Fold ``other``'s aggregate into this one (Chan's parallel Welford).

        After ``a.merge(b)``, ``a`` holds exactly the statistics of the
        union of both sample streams; ``b`` is left untouched.  This is
        the reduce step of sharded replays: workers each build partial
        :class:`RunningStat`\\ s and the coordinator merges them.  Returns
        ``self`` for chaining.
        """
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean.copy()
            self._m2 = other._m2.copy()
            return self
        n1 = self.count
        n2 = other.count
        total = n1 + n2
        delta = other._mean - self._mean
        self._mean = self._mean + delta * (n2 / total)
        self._m2 = self._m2 + other._m2 + delta * delta * (n1 * n2 / total)
        self.count = total
        return self

    @property
    def mean(self) -> np.ndarray:
        """Per-metric sample mean, as a length-3 array (rtt, loss, jitter)."""
        return self._mean.copy()

    def variance(self) -> np.ndarray:
        """Per-metric sample variance (ddof=1); zeros below two samples."""
        if self.count < 2:
            return np.zeros(_N_METRICS)
        return self._m2 / (self.count - 1)

    def sem(self) -> np.ndarray:
        """Per-metric standard error of the mean; zeros below two samples."""
        if self.count < 2:
            return np.zeros(_N_METRICS)
        return np.sqrt(self.variance() / self.count)

    def mean_metrics(self) -> PathMetrics:
        """The mean triple as a :class:`PathMetrics` value."""
        return PathMetrics(
            rtt_ms=float(self._mean[0]),
            loss_rate=float(min(1.0, max(0.0, self._mean[1]))),
            jitter_ms=float(self._mean[2]),
        )

    def __repr__(self) -> str:
        return f"RunningStat(count={self.count}, mean={np.round(self._mean, 4)})"


PairKey = Hashable
HistoryKey = tuple[PairKey, RelayOption]


class CallHistory:
    """Windowed (pair, option) -> RunningStat store.

    ``window_hours`` matches the controller's refresh period T (24 h by
    default, §4.3).  Old windows can be pruned to bound memory in long
    replays; the predictor only ever reads the immediately preceding
    window.
    """

    def __init__(self, window_hours: float = 24.0) -> None:
        if not 0.0 < window_hours < math.inf:
            raise ValueError(f"window_hours must be finite and > 0: {window_hours}")
        self.window_hours = window_hours
        self._windows: dict[int, dict[HistoryKey, RunningStat]] = {}

    def window_of(self, t_hours: float) -> int:
        """The window index containing absolute time ``t_hours``."""
        if t_hours < 0.0:
            raise ValueError(f"t_hours must be >= 0: {t_hours}")
        return int(t_hours // self.window_hours)

    def add(
        self,
        pair_key: PairKey,
        option: RelayOption,
        t_hours: float,
        metrics: PathMetrics,
    ) -> None:
        """Record one completed call's measured performance."""
        window = self.window_of(t_hours)
        bucket = self._windows.setdefault(window, {})
        stat = bucket.get((pair_key, option))
        if stat is None:
            stat = RunningStat()
            bucket[(pair_key, option)] = stat
        stat.push(metrics)

    def add_group(
        self,
        pair_key: PairKey,
        option: RelayOption,
        window: int,
        values: np.ndarray,
    ) -> None:
        """Fold many same-(pair, option, window) rows at once.

        The grouped entry point of the vector observe path: the caller has
        already bucketed a batch by key, so the per-call dict probing of
        :meth:`add` collapses to one lookup per group.  ``values`` rows
        must be in original call order -- :meth:`RunningStat.push_many`
        folds them sequentially to stay bit-identical to repeated
        :meth:`add`.
        """
        bucket = self._windows.setdefault(window, {})
        stat = bucket.get((pair_key, option))
        if stat is None:
            stat = RunningStat()
            bucket[(pair_key, option)] = stat
        stat.push_many(values)

    def stats(
        self, pair_key: PairKey, option: RelayOption, window: int
    ) -> RunningStat | None:
        """The aggregate for one (pair, option) in one window, if any."""
        bucket = self._windows.get(window)
        if bucket is None:
            return None
        return bucket.get((pair_key, option))

    def window_items(self, window: int) -> Iterator[tuple[HistoryKey, RunningStat]]:
        """All (pair, option) aggregates recorded in one window."""
        bucket = self._windows.get(window)
        if bucket is None:
            return iter(())
        return iter(bucket.items())

    def pair_options(self, pair_key: PairKey, window: int) -> list[RelayOption]:
        """Options with any samples for ``pair_key`` in ``window``."""
        bucket = self._windows.get(window)
        if bucket is None:
            return []
        return [opt for (key, opt) in bucket if key == pair_key]

    def windows(self) -> list[int]:
        """Window indices with any data, ascending."""
        return sorted(self._windows)

    def prune_before(self, window: int) -> int:
        """Drop windows older than ``window``; returns how many were dropped."""
        stale = [w for w in self._windows if w < window]
        for w in stale:
            del self._windows[w]
        return len(stale)

    def merge(self, other: "CallHistory") -> "CallHistory":
        """Fold another shard's aggregates into this store.

        Both stores must share ``window_hours`` (otherwise window indices
        mean different things and the merge would silently mis-bucket).
        Matching (pair, option, window) cells are combined with
        :meth:`RunningStat.merge`; ``other`` is never mutated or aliased.
        Returns ``self`` for chaining.
        """
        if other.window_hours != self.window_hours:
            raise ValueError(
                "cannot merge histories with different windows: "
                f"{self.window_hours} vs {other.window_hours}"
            )
        for window, bucket in other._windows.items():
            mine = self._windows.setdefault(window, {})
            for key, stat in bucket.items():
                existing = mine.get(key)
                if existing is None:
                    existing = RunningStat()
                    mine[key] = existing
                existing.merge(stat)
        return self

    def total_calls(self) -> int:
        """Total number of calls folded into the store."""
        return sum(
            stat.count for bucket in self._windows.values() for stat in bucket.values()
        )

    def __contains__(self, window: int) -> bool:
        if not isinstance(window, int):
            raise TypeError("membership test expects a window index")
        return window in self._windows


def sem_floor(mean: float, relative: float = 0.05, absolute: float = 1e-6) -> float:
    """A lower bound on SEM used to avoid overconfident zero-variance
    predictions from tiny samples."""
    return max(absolute, relative * abs(mean))


def confidence_bounds(mean: float, sem: float, z: float = 1.96) -> tuple[float, float]:
    """(lower, upper) 95% confidence bounds used throughout §4.4."""
    if sem < 0.0 or math.isnan(sem):
        raise ValueError(f"sem must be non-negative: {sem}")
    return (mean - z * sem, mean + z * sem)


def option_to_dict(option: RelayOption) -> dict:
    """JSON-safe form of a relaying option (checkpoint serialisation)."""
    return {
        "kind": option.kind.value,
        "ingress": option.ingress,
        "egress": option.egress,
    }


def option_from_dict(data: dict) -> RelayOption:
    """Inverse of :func:`option_to_dict`."""
    from repro.netmodel.options import OptionKind

    return RelayOption(
        kind=OptionKind(data["kind"]), ingress=data["ingress"], egress=data["egress"]
    )


def _encode_key(value):
    """JSON-safe form of a pair-side key (int, str, or (int, int) tuple)."""
    if isinstance(value, tuple):
        return {"t": list(value)}
    return value


def _decode_key(value):
    if isinstance(value, dict) and "t" in value:
        return tuple(value["t"])
    return value


# Leaf types a CheckpointCodec shares.  For these, equal values are spelled
# the same in JSON; True == 1 == 1.0 hash alike but are spelled three ways.
_SHARED_IDS = (int, type(None))
_SHARED_SIDES = (int, str)


class CheckpointCodec:
    """The leaves of one checkpoint, one object per distinct value.

    A controller's state names the same few relay options and pair keys
    over and over: every history entry and every pair state's menu and
    bandit arms.  Within one :meth:`~repro.core.policy.ViaPolicy.state_dict`
    (or :func:`history_to_dict`) call, :meth:`encode_option` builds each
    distinct option's dict once and :meth:`encode_pair` each pair key's
    ``[a, b]`` list once, and every later mention gets that same object.
    The JSON encoder writes a shared reference exactly as it writes a
    copy, so the checkpoint's bytes are unchanged; a tree built this way
    is read-only.  On restore, :meth:`decode_option` returns one
    :class:`RelayOption` per distinct payload.

    Only leaves whose ids are ``int``/``None`` (pair sides ``int``/``str``)
    are shared: those are what the wire and the world produce.  Anything
    else, such as an id a checkpoint spelled ``1.0`` or ``true``, is
    encoded or decoded afresh at every mention, exactly as without a codec.
    """

    __slots__ = ("_dicts", "_pairs", "_options")

    def __init__(self) -> None:
        self._dicts: dict[RelayOption, dict] = {}
        self._pairs: dict[tuple, list] = {}
        # Keyed on the id *types* too: True == 1 == 1.0 and all three hash
        # alike, so a value key would hand a bool or float id the option
        # built for the integer.
        self._options: dict[tuple, RelayOption] = {}

    def encode_option(self, option: RelayOption) -> dict:
        """:func:`option_to_dict`, shared across the mentions of ``option``."""
        if type(option.ingress) not in _SHARED_IDS or type(option.egress) not in _SHARED_IDS:
            return option_to_dict(option)
        data = self._dicts.get(option)
        if data is None:
            data = self._dicts[option] = option_to_dict(option)
        return data

    def encode_pair(self, pair_key: tuple) -> list:
        """A pair key's ``[a, b]`` form, shared across its mentions."""
        a, b = pair_key
        if type(a) not in _SHARED_SIDES or type(b) not in _SHARED_SIDES:
            return [_encode_key(a), _encode_key(b)]
        data = self._pairs.get(pair_key)
        if data is None:
            data = self._pairs[pair_key] = [a, b]
        return data

    def decode_option(self, data: dict) -> RelayOption:
        """:func:`option_from_dict`, one shared option per distinct payload.

        A payload not seen before takes :func:`option_from_dict` itself, so
        every accept/reject verdict and every field type is the same as
        without the codec."""
        try:
            ingress, egress = data["ingress"], data["egress"]
            key = (data["kind"], ingress, egress, type(ingress), type(egress))
            option = self._options.get(key)
        except (KeyError, TypeError):  # not an option at all, or unhashable ids
            return option_from_dict(data)
        if option is None:
            option = option_from_dict(data)
            if type(ingress) in _SHARED_IDS and type(egress) in _SHARED_IDS:
                self._options[key] = option
        return option


def history_to_dict(history: CallHistory, codec: CheckpointCodec | None = None) -> dict:
    """Serialise a :class:`CallHistory` to JSON-compatible primitives.

    Used for controller checkpointing: the learned per-(pair, option,
    window) aggregates are the state worth surviving a restart (bandit and
    pruning state rebuild at the next refresh).  Entries share their
    option dicts and pair lists (:class:`CheckpointCodec`; pass the
    caller's ``codec`` to share them with the rest of its checkpoint), so
    the returned tree is read-only.
    """
    codec = CheckpointCodec() if codec is None else codec
    windows = {}
    for window in history.windows():
        windows[str(window)] = [
            {
                "pair": codec.encode_pair(pair_key),
                "option": codec.encode_option(option),
                "count": stat.count,
                "mean": stat._mean.tolist(),
                "m2": stat._m2.tolist(),
            }
            for (pair_key, option), stat in history.window_items(window)
        ]
    return {"window_hours": history.window_hours, "windows": windows}


def _stat_from_entry(entry: dict, where: str) -> RunningStat:
    """Build one validated :class:`RunningStat` from a checkpoint entry.

    Checkpoints come from disk and may be truncated or corrupted; a bad
    aggregate silently poisons every downstream mean/SEM the predictor
    computes, so reject anything malformed with a clear error instead.
    """
    try:
        count = entry["count"]
        mean = np.asarray(entry["mean"], dtype=float)
        m2 = np.asarray(entry["m2"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"corrupt history entry at {where}: {exc!r}") from exc
    if type(count) is not int or not 0 <= count < 2**63:
        raise ValueError(
            f"corrupt history entry at {where}: count must be a non-negative "
            f"64-bit integer, got {count!r}"
        )
    if mean.shape != (_N_METRICS,) or m2.shape != (_N_METRICS,):
        raise ValueError(
            f"corrupt history entry at {where}: mean/m2 must each hold "
            f"{_N_METRICS} values, got {mean.shape[0] if mean.ndim == 1 else mean.shape}"
            f"/{m2.shape[0] if m2.ndim == 1 else m2.shape}"
        )
    if not (np.isfinite(mean).all() and np.isfinite(m2).all()):
        raise ValueError(f"corrupt history entry at {where}: non-finite mean/m2")
    if (m2 < 0.0).any():
        raise ValueError(f"corrupt history entry at {where}: negative m2")
    if (mean < 0.0).any():
        raise ValueError(f"corrupt history entry at {where}: negative mean")
    stat = RunningStat()
    stat.count = count
    stat._mean = mean
    stat._m2 = m2
    return stat


def history_from_dict(data: dict, codec: CheckpointCodec | None = None) -> CallHistory:
    """Rebuild a :class:`CallHistory` from :func:`history_to_dict` output.

    The payload is a checkpoint read from disk or a gossip peer's ``sync``
    frame, so any malformed shape raises :class:`ValueError` and nothing
    else: corrupt entries (negative counts or means, non-finite moments,
    wrong-length mean/m2 vectors) as well as a missing key, a non-finite
    ``window_hours`` or the wrong container anywhere in the tree.  Loading
    such state would quietly break every later SEM computation.  Equal
    option payloads decode to one shared option (:class:`CheckpointCodec`;
    pass the caller's ``codec`` to share them with the rest of its restore).
    """
    codec = CheckpointCodec() if codec is None else codec
    try:
        history = CallHistory(window_hours=float(data["window_hours"]))
        for window_str, entries in data["windows"].items():
            try:
                window = int(window_str)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"corrupt history window index: {window_str!r}") from exc
            bucket = history._windows.setdefault(window, {})
            for i, entry in enumerate(entries):
                where = f"window {window}, entry {i}"
                try:
                    pair = entry["pair"]
                    pair_key = (_decode_key(pair[0]), _decode_key(pair[1]))
                    option = codec.decode_option(entry["option"])
                except (KeyError, IndexError, TypeError, ValueError) as exc:
                    raise ValueError(f"corrupt history entry at {where}: {exc!r}") from exc
                bucket[(pair_key, option)] = _stat_from_entry(entry, where)
    except (LookupError, TypeError, AttributeError, ArithmeticError) as exc:
        raise ValueError(f"corrupt history payload: {exc!r}") from exc
    return history
