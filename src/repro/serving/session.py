"""Per-subject streaming sessions that featurize completed windows.

A :class:`StreamSession` accepts raw multi-channel samples one at a time (or
in chunks), keeps the sliding-window layout of the offline pipeline, and
emits one feature vector per completed window.

How a push is featurized
------------------------

The session holds the last ``window_samples`` raw samples of its stream.  A
push appends the chunk to that tail, works out which windows end inside the
chunk (window ``i`` ends at stream index ``i * step + window_samples - 1``),
stacks them, and calls :func:`repro.data.features.extract_features` once on
the stack.  The served features therefore *are* the offline pipeline's
features, bit-identical to it.  ``extract_features`` reduces every window on
its own, so a row does not depend on which other windows share the call, and
the features do not depend on how the stream was split into chunks.  A window
never needs samples older than ``window_samples``, so besides the sample
count the tail is the session's whole state: one ``n_channels x
window_samples`` float64 buffer (36 KB at WESAD's 7 x 640).

Re-running the moving average over each completed window costs less than
updating per-window accumulators sample by sample in Python: on the
``stream-raw`` workload of ``perfbench`` (2 cores, 640-sample windows
stepped by 160, 32-sample chunks) the featurizer went from 24-38 us to
about 1.2 us per sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..data.features import STATISTICS, extract_features

__all__ = ["ReadyWindow", "StreamSession"]


@dataclass(frozen=True)
class ReadyWindow:
    """One completed window's features, ready for scoring.

    Attributes
    ----------
    session_id:
        Identifier of the emitting session (opaque to the serving layer).
    window_index:
        0-based index of the window within the session's stream.
    features:
        Flat feature vector, identical in layout and value to one row of
        :func:`repro.data.features.extract_features`.
    end_sample:
        Stream index (0-based, inclusive) of the window's last raw sample —
        the deadline-relevant timestamp for latency accounting.
    """

    session_id: str
    window_index: int
    features: np.ndarray
    end_sample: int


@dataclass
class StreamSession:
    """Featurizer for one subject's raw multi-channel stream.

    Parameters
    ----------
    session_id:
        Opaque identifier attached to every emitted :class:`ReadyWindow`.
    n_channels:
        Channels per sample (e.g. ``len(repro.data.CHANNELS)``).
    window_samples:
        Samples per emitted window (the offline pipeline's window length).
    step_samples:
        Stride between consecutive window starts; defaults to
        ``window_samples`` (non-overlapping).  Values smaller than
        ``window_samples`` produce overlapping windows, larger values leave
        gaps — both match the batch windowing they imitate.
    smoothing_window:
        Moving-average length of the feature pipeline (paper: 30).
    statistics:
        Ordered subset of :data:`repro.data.features.STATISTICS` names; the
        emitted layout is channel-major, matching ``extract_features``.
    """

    session_id: str
    n_channels: int
    window_samples: int
    step_samples: int | None = None
    smoothing_window: int = 30
    statistics: tuple[str, ...] = ("min", "max", "mean", "std")
    _samples_seen: int = field(init=False, default=0, repr=False)

    def __post_init__(self) -> None:
        if self.n_channels < 1:
            raise ValueError(f"n_channels must be >= 1, got {self.n_channels}")
        if self.window_samples < 1:
            raise ValueError(f"window_samples must be >= 1, got {self.window_samples}")
        if self.step_samples is None:
            self.step_samples = self.window_samples
        if self.step_samples < 1:
            raise ValueError(f"step_samples must be >= 1, got {self.step_samples}")
        if self.smoothing_window < 1:
            raise ValueError(
                f"smoothing_window must be >= 1, got {self.smoothing_window}"
            )
        unknown = [name for name in self.statistics if name not in STATISTICS]
        if unknown:
            raise ValueError(
                f"unknown statistics {unknown}; available: {sorted(STATISTICS)}"
            )
        self.statistics = tuple(self.statistics)
        # The stream's last `window_samples` samples, oldest first.  Before
        # the first window completes, the leading columns are zeros standing
        # for negative stream indices, which no window reads.
        self._tail = np.zeros((self.n_channels, self.window_samples))

    # ------------------------------------------------------------ properties
    @property
    def feature_width(self) -> int:
        """Length of emitted feature vectors (``n_channels * len(statistics)``)."""
        return self.n_channels * len(self.statistics)

    @property
    def samples_seen(self) -> int:
        return self._samples_seen

    @property
    def windows_emitted(self) -> int:
        completed = (self._samples_seen - self.window_samples) // self.step_samples
        return max(0, completed + 1)

    @property
    def open_windows(self) -> int:
        """Number of windows started but not yet complete (at most ceil(W/step))."""
        started = -(-self._samples_seen // self.step_samples)
        return started - self.windows_emitted

    # ------------------------------------------------------------------- API
    def push(self, samples: np.ndarray) -> list[ReadyWindow]:
        """Feed raw samples; return the windows they completed, in order.

        ``samples`` is one multi-channel sample of shape ``(n_channels,)`` or
        a chunk of shape ``(n_channels, k)`` — the layout produced by
        :meth:`repro.data.SignalSimulator.stream_chunks`.  At most one window
        completes per sample (windows are distinct in their end sample), so a
        ``k``-sample chunk yields at most ``k`` ready windows.
        """
        array = np.asarray(samples, dtype=np.float64)
        if array.ndim == 1:
            array = array[:, None]
        if array.ndim != 2 or array.shape[0] != self.n_channels:
            raise ValueError(
                f"samples must have shape ({self.n_channels},) or "
                f"({self.n_channels}, k), got {np.shape(samples)}"
            )
        if not np.all(np.isfinite(array)):
            raise ValueError("samples contain NaN or infinite values")
        width, step = self.window_samples, self.step_samples
        first = self.windows_emitted
        stream = np.concatenate([self._tail, array], axis=1)
        self._tail[:] = stream[:, -width:]
        base = self._samples_seen - width  # stream index of column 0
        self._samples_seen += array.shape[1]
        stop = self.windows_emitted
        if stop == first:
            return []
        starts = range(first * step - base, stop * step - base, step)
        windows = np.stack([stream[:, start : start + width] for start in starts])
        features = extract_features(
            windows,
            smoothing_window=self.smoothing_window,
            statistics=self.statistics,
        )
        return [
            ReadyWindow(
                session_id=self.session_id,
                window_index=index,
                features=row,
                end_sample=index * step + width - 1,
            )
            for index, row in zip(range(first, stop), features)
        ]
