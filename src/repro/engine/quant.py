"""Integer-domain quantized inference engines.

The paper's deployment target stores class hypervectors in reduced precision
(bipolar / fixed8 / fixed16 — Section IV-D and the Figure 8 bit-flip study),
but the float engines in :mod:`repro.engine.compile` always score against
float64/float32 class weights.  This module keeps the *scoring stage* in the
integer domain end-to-end, with two compiled-model variants that mirror the
:class:`~repro.engine.compile.CompiledModel` API exactly (``encode`` /
``decision_function`` / ``predict`` / ``predict_proba`` / ``score_encoded``):

* :class:`PackedBipolarModel` — the classic 1-bit HDC model.  Class
  hypervectors are sign-quantized and bit-packed to ``uint8`` words
  (``dim / 8`` bytes per hypervector, a 64x reduction over float64); each
  encoded query chunk is sign-packed once and compared against every class
  with XOR + popcount (:func:`numpy.bitwise_count` on NumPy >= 2, a 16-bit
  lookup table otherwise).  Per-block similarities are *bit-identical* to
  :func:`repro.hdc.similarity.hamming_similarity` on the unpacked signs —
  both reduce to the correctly rounded quotient of the exact integers
  ``matches`` and ``dim``.
* :class:`FixedPointModel` — class hypervectors stored as ``int8`` /
  ``int16`` fixed-point codes (:func:`repro.hdc.quantize.quantize_codes`).
  Each query row is quantized to the same bit width with a per-row,
  per-block scale (scores never depend on batch composition), scored with
  an integer-accumulated matmul (``int32`` accumulation for fixed8 widths
  where the dot product provably fits, ``int64`` otherwise), and the
  per-class code norms are folded into a single final float rescale.  Because cosine similarity is scale-invariant
  in each argument, the shared fixed-point scales cancel: the result equals
  the float cosine of the *dequantized* query and class representatives to
  machine precision — the arithmetic is exact, the only error is the
  representation rounding itself.

Construction mirrors the float engine: :func:`repro.engine.compile_model`
with ``precision="bipolar-packed" | "fixed16" | "fixed8"`` dispatches here,
and :meth:`repro.serving.ModelRegistry.load` with a ``precision`` builds the
same engines *directly from stored integer codes* without dequantizing.
Internally the packed words are zero-padded to ``uint64`` for the XOR +
popcount inner loop (8x fewer ufunc elements than ``uint8``); the pad bits
are zero in both operands, so they cancel in the XOR and never contaminate
the mismatch counts.

``benchmarks/bench_quant.py`` enforces the subsystem contracts: >= 8x class
memory reduction and >= 2x single-thread scoring throughput for the packed
engine versus the float64 engine at the paper's ``D_total = 10000``, >= 4x
memory reduction for fixed8, all gated on prediction parity against the
float engine on the Table I mini datasets.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..hdc.hypervector import pack_signs
from ..hdc.quantize import SCHEME_BITS, SCHEME_DTYPES, quantize_codes
from ..hdc.similarity import popcount_rows
from .compile import PRECISIONS, CompiledModel, EngineError, model_components
from .threads import run_row_blocks

__all__ = [
    "FixedBlock",
    "FixedPointModel",
    "PackedBipolarModel",
    "PackedBlock",
    "PackedQueries",
    "QUANT_PRECISIONS",
    "compile_quantized",
    "fixed_block",
    "packed_block",
]

#: Quantized precisions understood by ``compile_model(..., precision=...)``
#: (the float engine itself answers to ``"float64"``).
QUANT_PRECISIONS = ("bipolar-packed", "fixed16", "fixed8")

_EPS = 1e-12


def _pad_packed(packed: np.ndarray) -> np.ndarray:
    """Zero-pad uint8-packed rows to whole ``uint64`` words.

    The pad bytes are zero in every row, so XOR between two padded rows is
    zero there and popcount never sees phantom mismatches.
    """
    rows, width = packed.shape
    words = -(-width // 8)
    buffer = np.zeros((rows, words * 8), dtype=np.uint8)
    buffer[:, :width] = packed
    return buffer.view(np.uint64)


# ------------------------------------------------------------------- blocks
@dataclass(frozen=True)
class PackedBlock:
    """One weak learner's bit-packed class sign patterns.

    ``words`` holds each class hypervector's sign bits zero-padded into
    ``uint64`` words; bit ``j`` of a row is 1 where element ``j`` of the
    class hypervector is non-negative (the :func:`~repro.hdc.pack_signs`
    convention).  ``columns`` maps local class order to global columns.
    """

    start: int
    stop: int
    alpha: float
    columns: np.ndarray
    words: np.ndarray

    #: Fields that are engine-state arrays; the rest travel as metadata.
    ARRAYS = ("words",)

    def __post_init__(self) -> None:
        # Blocks may be built over shared-memory views (CompiledModel.
        # from_state); a wrong width would silently misalign the popcounts.
        words = self.words
        if words.ndim != 2 or words.dtype != np.dtype(np.uint64):
            raise EngineError(
                f"padded sign words must be a 2-D uint64 array, got "
                f"ndim={words.ndim} dtype={words.dtype}"
            )
        expected = -(-self.dim // 64)
        if words.shape[1] != expected:
            raise EngineError(
                f"padded rows are {words.shape[1]} words wide but the block spans "
                f"{self.dim} elements (expected {expected} words)"
            )

    @property
    def dim(self) -> int:
        return self.stop - self.start

    @property
    def packed(self) -> np.ndarray:
        """The canonical unpadded ``uint8`` rows (``ceil(dim / 8)`` bytes)."""
        width = (self.dim + 7) // 8
        return self.words.view(np.uint8)[:, :width]


@dataclass(frozen=True)
class FixedBlock:
    """One weak learner's fixed-point class codes.

    ``codes`` is the learner's ``(dim, n_classes)`` integer code matrix
    (transposed for chunk scoring, storage dtype ``int8``/``int16``);
    ``scale`` the shared fixed-point scale of the stored format, and
    ``inv_norms`` the reciprocal L2 norms of the code columns *in code
    units* — the scale cancels in cosine similarity, so scoring never
    multiplies it back in.
    """

    start: int
    stop: int
    alpha: float
    columns: np.ndarray
    codes: np.ndarray
    scale: float
    inv_norms: np.ndarray

    #: Fields that are engine-state arrays; the rest travel as metadata.
    ARRAYS = ("codes", "inv_norms")

    def __post_init__(self) -> None:
        codes = self.codes
        if codes.dtype not in (np.dtype(np.int8), np.dtype(np.int16)):
            raise EngineError(
                f"fixed-point codes must be int8 or int16, got {codes.dtype}"
            )
        if codes.ndim != 2 or codes.shape[0] != self.dim:
            raise EngineError(
                f"transposed codes of shape {codes.shape} do not span the block's "
                f"{self.dim} elements"
            )
        if self.inv_norms.shape != (codes.shape[1],):
            raise EngineError(
                f"inv_norms of shape {self.inv_norms.shape} do not match "
                f"{codes.shape[1]} class columns"
            )

    @property
    def dim(self) -> int:
        return self.stop - self.start


def packed_block(
    start: int,
    stop: int,
    alpha: float,
    columns: np.ndarray,
    packed_rows: np.ndarray,
) -> PackedBlock:
    """Build a :class:`PackedBlock` from unpadded ``uint8`` packed sign rows."""
    packed_rows = np.atleast_2d(np.asarray(packed_rows, dtype=np.uint8))
    width = (stop - start + 7) // 8
    if packed_rows.shape[1] != width:
        raise EngineError(
            f"packed rows are {packed_rows.shape[1]} bytes wide but the block "
            f"spans {stop - start} elements (expected {width} bytes)"
        )
    return PackedBlock(
        start=int(start),
        stop=int(stop),
        alpha=float(alpha),
        columns=np.asarray(columns),
        words=_pad_packed(packed_rows),
    )


def fixed_block(
    start: int,
    stop: int,
    alpha: float,
    columns: np.ndarray,
    codes: np.ndarray,
    scale: float,
) -> FixedBlock:
    """Build a :class:`FixedBlock` from ``(n_classes, dim)`` integer codes."""
    codes = np.atleast_2d(np.asarray(codes))
    if codes.dtype not in (np.dtype(np.int8), np.dtype(np.int16)):
        raise EngineError(
            f"fixed-point codes must be int8 or int16, got {codes.dtype}"
        )
    norms = np.sqrt(
        np.einsum("ij,ij->i", codes, codes, dtype=np.int64).astype(np.float64)
    )
    return FixedBlock(
        start=int(start),
        stop=int(stop),
        alpha=float(alpha),
        columns=np.asarray(columns),
        codes=np.ascontiguousarray(codes.T),
        scale=float(scale),
        inv_norms=1.0 / np.maximum(norms, _EPS),
    )


# ------------------------------------------------------------------ engines
@dataclass(frozen=True)
class PackedQueries:
    """Pre-encoded, pre-packed query batch for repeated packed scoring.

    ``word_blocks[i]`` holds the ``(n, words_i)`` padded ``uint64`` sign
    words of block ``i``; produced by :meth:`PackedBipolarModel.prepack`,
    consumed by :meth:`PackedBipolarModel.score_packed`.  Packing the
    queries once is what makes many-trial workloads (the packed bit-flip
    sweep) cheap: each trial reuses the words and pays only XOR + popcount.
    """

    word_blocks: tuple
    n_samples: int


class PackedBipolarModel(CompiledModel):
    """Bit-packed 1-bit HDC scorer: sign encode once, XOR + popcount per class.

    Mirrors :class:`~repro.engine.compile.CompiledModel` (same constructor
    infrastructure, encoding path, chunking and cache); only the scoring
    stage differs.  Per block, each query row's sign pattern is compared
    against every class pattern and the match fraction ``(dim - mismatches)
    / dim`` — bit-identical to ``hamming_similarity`` on the unpacked signs
    — is aggregated exactly like the float engine aggregates cosine scores
    (``alpha``-weighted ``"score"`` accumulation or ``"vote"`` argmax).

    Note the 1-bit representation *is* lossy: scores are hamming rather
    than cosine similarities, so an argmax can legitimately move on
    borderline windows (accuracy parity on the Table I datasets is enforced
    by ``benchmarks/bench_quant.py``; exactness is defined — and tested —
    against the hamming reference).
    """

    precision = "bipolar-packed"
    kind = "packed"
    block_type = PackedBlock

    def __repr__(self) -> str:
        return (
            f"PackedBipolarModel(n_learners={self.n_learners}, "
            f"total_dim={self.total_dim}, in_features={self.in_features}, "
            f"aggregation={self.aggregation!r}, dtype={self.dtype.name}, "
            f"class_bytes={self.class_memory_bytes()})"
        )

    def class_memory_bytes(self) -> int:
        """Bytes of the stored class representation (padded packed words)."""
        return sum(block.words.nbytes for block in self.blocks)

    # ---------------------------------------------------------------- packing
    def _pack_chunk(self, bits: np.ndarray) -> list[np.ndarray]:
        """Per-block padded uint64 sign words of a ``(n, D_total)`` bit matrix."""
        return [
            _pad_packed(np.packbits(bits[:, block.start : block.stop], axis=1))
            for block in self.blocks
        ]

    def prepack(self, X: np.ndarray) -> PackedQueries:
        """Encode and bit-pack a query batch once for repeated scoring."""
        encoded = self.encode(X)
        bits = encoded >= 0
        return PackedQueries(
            word_blocks=tuple(self._pack_chunk(bits)), n_samples=len(encoded)
        )

    # ---------------------------------------------------------------- scoring
    def _score_words(self, word_blocks: Sequence[np.ndarray], n: int) -> np.ndarray:
        scores = np.zeros((n, len(self.classes_)), dtype=np.float64)
        vote = self.aggregation == "vote"

        def kernel(rows: slice) -> None:
            # Each call owns the disjoint row range ``rows`` of ``scores``:
            # the XOR/popcount/divide arithmetic is exact per row, so any
            # row blocking is bit-identical to the serial pass.
            out = scores[rows]
            block_n = len(out)
            local = np.arange(block_n) if vote else None
            for block, words, alpha in zip(self.blocks, word_blocks, self._alphas):
                dim = block.dim
                block_words = words[rows]
                mismatches = np.empty((block_n, len(block.words)), dtype=np.int64)
                for j in range(len(block.words)):
                    mismatches[:, j] = popcount_rows(block_words ^ block.words[j])
                sims = (dim - mismatches) / dim
                if local is not None:
                    winner = np.argmax(sims, axis=1)
                    out[local, block.columns[winner]] += alpha
                else:
                    out[:, block.columns] += alpha * sims

        run_row_blocks(kernel, n, threads=self.score_threads)
        return scores / self._total_alpha

    def _score_chunk(self, encoded: np.ndarray) -> np.ndarray:
        bits = encoded >= 0
        return self._score_words(self._pack_chunk(bits), len(encoded))

    def score_packed(self, queries: PackedQueries) -> np.ndarray:
        """Per-class scores of a :meth:`prepack`-ed batch (XOR + popcount only)."""
        if len(queries.word_blocks) != len(self.blocks):
            raise ValueError(
                f"queries were packed for {len(queries.word_blocks)} blocks, "
                f"engine has {len(self.blocks)}"
            )
        return self._score_words(queries.word_blocks, queries.n_samples)

    def predict_packed(self, queries: PackedQueries) -> np.ndarray:
        """Labels of a :meth:`prepack`-ed batch."""
        return self.classes_[np.argmax(self.score_packed(queries), axis=1)]

    # --------------------------------------------------------------- bit flips
    def flip_class_bits(
        self, probability: float, rng: np.random.Generator
    ) -> "PackedBipolarModel":
        """Copy of this engine with each stored class bit flipped i.i.d.

        Flips the *real stored bits*: an XOR mask sampled at ``probability``
        per bit is applied to the packed class words (pad bits are never
        flipped, so the padding invariant holds).  The clone shares the
        encoder arrays and cache with the original — only the class words
        differ — which is what makes many-trial robustness sweeps cheap.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        if probability == 0.0:
            # No bits can flip: skip the mask draws entirely, mirroring the
            # reference backend's early return so both backends consume the
            # same randomness per trial at a fixed seed.
            return copy.copy(self)
        blocks = []
        for block in self.blocks:
            mask_bits = rng.random((len(block.words), block.dim)) < probability
            mask = _pad_packed(np.packbits(mask_bits, axis=1))
            blocks.append(replace(block, words=block.words ^ mask))
        clone = copy.copy(self)
        clone.blocks = tuple(blocks)
        return clone


class FixedPointModel(CompiledModel):
    """Fixed-point scorer: integer codes, integer matmuls, one float rescale.

    Class hypervectors live as ``int8``/``int16`` codes; each encoded query
    row is quantized per block to the same bit width (its own scale from
    the row's max magnitude — no clipping is ever needed, and a window's
    scores are identical whether it is scored alone or inside any batch)
    and scored with an integer-accumulated matmul.  Cosine similarity is scale-invariant in
    both arguments, so neither the class-code scale nor the query scale
    appears in the result: the integer dot products are rescaled once by
    ``alpha / (|q| * |c_j|)`` with both norms computed in code units.

    The integer arithmetic is exact (accumulator width chosen so the worst
    -case dot product fits), so scores equal the float cosine of the
    dequantized query and class representatives to machine precision —
    asserted in ``tests/test_quant_engine.py``.
    """

    kind = "fixed"
    block_type = FixedBlock

    def __init__(self, *, precision: str, **kwargs) -> None:
        super().__init__(**kwargs)
        self._configure_fixed(precision)

    @classmethod
    def _from_state(cls, meta: dict, arrays: dict) -> "FixedPointModel":
        self = super()._from_state(meta, arrays)
        self._configure_fixed(meta["precision"])
        return self

    def _configure_fixed(self, precision: str) -> None:
        if precision not in SCHEME_BITS:
            raise EngineError(
                f"unsupported fixed-point precision {precision!r}; "
                f"available: {sorted(SCHEME_BITS)}"
            )
        # The accumulator bound and the query cast below are sized from the
        # precision, so mismatched block code dtypes would overflow silently
        # — wrong scores, no error.  Refuse them up front.
        expected = np.dtype(SCHEME_DTYPES[precision])
        for block in self.blocks:
            if block.codes.dtype != expected:
                raise EngineError(
                    f"precision {precision!r} requires {expected} class codes, "
                    f"got {block.codes.dtype} in block [{block.start}, {block.stop})"
                )
        self.precision = precision
        self.bits = SCHEME_BITS[precision]
        self._query_max = (1 << (self.bits - 1)) - 1
        # Worst-case |dot| over a block: dim * qmax * |min_code|, where query
        # codes stay in [-qmax, qmax] but stored class codes reach the full
        # signed minimum (qmax + 1).  int32 keeps the fixed8 matmul narrow;
        # anything that could overflow falls back to int64 accumulation.
        worst = (
            max(block.dim for block in self.blocks)
            * self._query_max
            * (self._query_max + 1)
        )
        self._accumulator = np.int32 if worst < 2**31 else np.int64

    def __repr__(self) -> str:
        return (
            f"FixedPointModel(precision={self.precision!r}, "
            f"n_learners={self.n_learners}, total_dim={self.total_dim}, "
            f"in_features={self.in_features}, aggregation={self.aggregation!r}, "
            f"dtype={self.dtype.name}, class_bytes={self.class_memory_bytes()})"
        )

    def class_memory_bytes(self) -> int:
        """Bytes of the stored class representation (codes + folded norms)."""
        return sum(
            block.codes.nbytes + block.inv_norms.nbytes for block in self.blocks
        )

    def _score_chunk(self, encoded: np.ndarray) -> np.ndarray:
        n = len(encoded)
        scores = np.zeros((n, len(self.classes_)), dtype=np.float64)
        vote = self.aggregation == "vote"
        accumulator = self._accumulator

        def kernel(rows: slice) -> None:
            # Row-independent by construction: every step below (per-row
            # quantization scale, integer matmul, per-row rescale) depends
            # only on the row itself, so any row blocking is bit-identical
            # to the serial pass (the batch-composition invariance already
            # pinned by tests/test_quant_engine.py).
            out = scores[rows]
            block_n = len(out)
            local = np.arange(block_n) if vote else None
            for block, alpha in zip(self.blocks, self._alphas):
                view = encoded[rows, block.start : block.stop]
                # Per-row query scale: each row's max magnitude maps to the
                # top of the signed range, so round() can never leave it (no
                # clip), every row gets full qmax resolution, and a window's
                # codes — hence its scores — never depend on what else
                # shares its chunk.
                magnitude = np.abs(view).max(axis=1).astype(np.float64)
                magnitude[magnitude <= 0.0] = 1.0
                quantized = np.round(
                    np.asarray(view, dtype=np.float64)
                    * (self._query_max / magnitude)[:, None]
                ).astype(block.codes.dtype)
                # dtype= sets the ufunc calculation width: exact integer
                # accumulation with no persistent wide copy of the class codes.
                sims = np.matmul(quantized, block.codes, dtype=accumulator)
                query_norms = np.sqrt(
                    np.einsum(
                        "ij,ij->i", quantized, quantized, dtype=np.int64
                    ).astype(np.float64)
                )
                rescale = (
                    block.inv_norms[None, :] / np.maximum(query_norms, _EPS)[:, None]
                )
                cosine = sims.astype(np.float64) * rescale
                if local is not None:
                    winner = np.argmax(cosine, axis=1)
                    out[local, block.columns[winner]] += alpha
                else:
                    out[:, block.columns] += alpha * cosine

        run_row_blocks(kernel, n, threads=self.score_threads)
        return scores / self._total_alpha


# -------------------------------------------------------------- compilation
def _packed_blocks_from_learners(parts) -> list[PackedBlock]:
    return [
        packed_block(
            start,
            stop,
            alpha,
            np.searchsorted(parts.classes, learner.classes_),
            pack_signs(learner.class_hypervectors_),
        )
        for learner, alpha, (start, stop) in zip(
            parts.learners, parts.alphas, parts.spans
        )
    ]


def _fixed_blocks_from_learners(parts, precision: str) -> list[FixedBlock]:
    blocks = []
    for learner, alpha, (start, stop) in zip(parts.learners, parts.alphas, parts.spans):
        codes, fmt = quantize_codes(learner.class_hypervectors_, precision)
        blocks.append(
            fixed_block(
                start,
                stop,
                alpha,
                np.searchsorted(parts.classes, learner.classes_),
                codes,
                fmt.scale,
            )
        )
    return blocks


def compile_quantized(
    model,
    *,
    precision: str,
    dtype: np.dtype | type | str = np.float32,
    chunk_size=None,
    cache_size: int = 0,
    cache_bytes: int | None = None,
    score_threads: int | str | None = None,
) -> CompiledModel:
    """Compile a fitted model into a quantized integer-domain engine.

    The ``precision="..."`` dispatch target of
    :func:`repro.engine.compile_model`; see there for the shared options.
    Class hypervectors are quantized exactly once, through the same
    :func:`repro.hdc.quantize.quantize_codes` /
    :func:`repro.hdc.pack_signs` the model registry stores, so an engine
    compiled here is code-for-code identical to one the registry
    reconstructs from a float-stored artifact or from a fixed-point
    artifact loaded at its own precision.  (Cross-precision registry loads
    derive their representation from the *stored* codes — a packed engine
    built from a fixed8 artifact packs the signs of the lossy codes, and a
    narrowing load requantizes the dequantized values — so those may differ
    from compiling the original float model on elements the stored format
    already rounded.)
    """
    if precision not in QUANT_PRECISIONS:
        raise EngineError(f"unknown precision {precision!r}; available: {PRECISIONS}")
    parts = model_components(model)
    options = dict(
        basis=parts.basis,
        bias=parts.bias,
        classes=parts.classes,
        aggregation=parts.aggregation,
        dtype=np.dtype(dtype),
        chunk_size=chunk_size,
        cache_size=cache_size,
        cache_bytes=cache_bytes,
        shared_projection=parts.shared,
        score_threads=score_threads,
    )
    if precision == "bipolar-packed":
        return PackedBipolarModel(blocks=_packed_blocks_from_learners(parts), **options)
    return FixedPointModel(
        precision=precision,
        blocks=_fixed_blocks_from_learners(parts, precision),
        **options,
    )
