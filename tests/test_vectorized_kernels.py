"""Scalar-reference equivalence for the vectorized batch kernels.

Every kernel in :mod:`repro.compression.kernels` has two implementations:
the numpy batch kernel (production) and the original scalar loop
(:mod:`repro.compression.scalar_ref`, the oracle).  Hypothesis drives
both through the same inputs and demands *bit-identical* compressed
bytes and *value- and dtype-identical* decode results — the vectorized
rewrite must be invisible on the wire and in the results.

Directed edge cases ride along: empty batches, a single run, all-equal
columns, maximum-width codewords at the aligned-format boundary, and
negative/zero Base-Delta bases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import get_codec
from repro.compression import scalar_ref
from repro.compression import kernels
from repro.compression.kernels import scalar_reference_mode, using_scalar_reference
from repro.compression.registry import PAPER_POOL
from repro.errors import CodecError, CodecNotApplicable
from repro.stats import DENSE_SPAN_FACTOR

ALL_CODECS = tuple(PAPER_POOL) + ("plwah", "deltachain")


def _column(seed: int, n: int, style: str) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if style == "uniform":
        return rng.integers(0, 1000, n).astype(np.int64)
    if style == "runs":
        reps = rng.integers(1, 20, max(n // 4, 1))
        return np.repeat(rng.integers(0, 30, reps.size), reps)[:n].astype(np.int64)
    if style == "signed":
        return rng.integers(-500, 500, n).astype(np.int64)
    if style == "wide":
        return rng.integers(0, 2**40, n).astype(np.int64)
    return np.full(n, 7, dtype=np.int64)  # allequal


column_strategy = st.tuples(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=300),
    st.sampled_from(["uniform", "runs", "signed", "wide", "allequal"]),
)


def _pack_range(width: int, signed: bool):
    """Inclusive value range of ``width``-byte packing (int64-clamped)."""
    if signed:
        return -(1 << (8 * width - 1)), (1 << (8 * width - 1)) - 1
    return 0, min((1 << (8 * width)) - 1, 2**63 - 1)


def _both_modes(fn):
    """(vectorized result, scalar-reference result) of the same call."""
    vec = fn()
    with scalar_reference_mode():
        ref = fn()
    return vec, ref


def _assert_identical(vec, ref, context=""):
    if isinstance(vec, tuple):
        assert isinstance(ref, tuple) and len(vec) == len(ref), context
        for i, (a, b) in enumerate(zip(vec, ref)):
            _assert_identical(a, b, f"{context}[{i}]")
        return
    if isinstance(vec, np.ndarray):
        assert isinstance(ref, np.ndarray), context
        assert vec.dtype == ref.dtype, f"{context}: {vec.dtype} != {ref.dtype}"
        np.testing.assert_array_equal(vec, ref, err_msg=context)
        return
    assert vec == ref, context


class TestDispatchFlag:
    def test_mode_flag_nests_and_restores(self):
        assert not using_scalar_reference()
        with scalar_reference_mode():
            assert using_scalar_reference()
            with scalar_reference_mode(enabled=False):
                assert not using_scalar_reference()
            assert using_scalar_reference()
        assert not using_scalar_reference()


class TestCodecBitIdentity:
    """compress/decompress must be byte-for-byte mode-independent."""

    @given(column_strategy)
    @settings(max_examples=30, deadline=None)
    def test_compressed_bytes_and_decode_identical(self, spec):
        seed, n, style = spec
        values = _column(seed, n, style)
        for name in ALL_CODECS:
            codec = get_codec(name)
            try:
                vec_cc = codec.compress(values)
            except CodecNotApplicable:
                with scalar_reference_mode():
                    with pytest.raises(CodecNotApplicable):
                        codec.compress(values)
                continue
            with scalar_reference_mode():
                ref_cc = codec.compress(values)
            assert bytes(vec_cc.payload) == bytes(ref_cc.payload), name
            assert vec_cc.nbytes == ref_cc.nbytes, name
            assert set(vec_cc.meta) == set(ref_cc.meta), name
            vec_out = codec.decompress(vec_cc)
            with scalar_reference_mode():
                ref_out = codec.decompress(vec_cc)
            _assert_identical(vec_out, ref_out, name)
            assert vec_out.dtype == np.int64, name
            np.testing.assert_array_equal(vec_out, values, err_msg=name)


class TestStreamKernels:
    @given(
        st.lists(st.integers(min_value=1, max_value=2**55), max_size=200),
        st.sampled_from(["gamma", "delta"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_stream_roundtrip_identical(self, values, kind):
        values = np.asarray(values, dtype=np.int64)
        enc = (
            kernels.gamma_stream_encode
            if kind == "gamma"
            else kernels.delta_stream_encode
        )
        dec = (
            kernels.gamma_stream_decode
            if kind == "gamma"
            else kernels.delta_stream_decode
        )
        vec_bytes, ref_bytes = _both_modes(lambda: enc(values))
        assert vec_bytes == ref_bytes
        vec_out, ref_out = _both_modes(lambda: dec(vec_bytes, values.size))
        _assert_identical(vec_out, ref_out, kind)
        np.testing.assert_array_equal(vec_out, values)

    def test_empty_stream(self):
        for enc, dec in (
            (kernels.gamma_stream_encode, kernels.gamma_stream_decode),
            (kernels.delta_stream_encode, kernels.delta_stream_decode),
        ):
            vec_bytes, ref_bytes = _both_modes(
                lambda enc=enc: enc(np.zeros(0, dtype=np.int64))
            )
            assert vec_bytes == ref_bytes
            vec_out, ref_out = _both_modes(lambda dec=dec, b=vec_bytes: dec(b, 0))
            _assert_identical(vec_out, ref_out)
            assert vec_out.size == 0

    def test_truncated_stream_raises_in_both_modes(self):
        data = kernels.gamma_stream_encode(np.array([5, 9, 1000], dtype=np.int64))
        for mode in (False, True):
            with scalar_reference_mode(enabled=mode):
                with pytest.raises(CodecError):
                    kernels.gamma_stream_decode(data[:1], 3)


class TestAlignedCodewords:
    @given(st.lists(st.integers(min_value=1, max_value=2**31 - 1), max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_gamma_codewords_identical(self, values):
        values = np.asarray(values, dtype=np.int64)
        vec, ref = _both_modes(lambda: kernels.gamma_codewords(values))
        _assert_identical(vec, ref, "gamma_codewords")

    @given(st.lists(st.integers(min_value=1, max_value=2**55), max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_delta_codewords_and_inverse_identical(self, values):
        values = np.asarray(values, dtype=np.int64)
        vec, ref = _both_modes(lambda: kernels.delta_codewords(values))
        _assert_identical(vec, ref, "delta_codewords")
        codes = vec[0]
        vec_inv, ref_inv = _both_modes(lambda: kernels.delta_invert(codes))
        _assert_identical(vec_inv, ref_inv, "delta_invert")
        np.testing.assert_array_equal(vec_inv, values)

    def test_max_width_codewords(self):
        # EG aligned: widest admissible codeword is 2 * 30 + 1 = 61 bits.
        eg = get_codec("eg")
        values = np.array([1, 2**30, 2**30 - 1], dtype=np.int64) + 0
        vec_cc = eg.compress(values)
        with scalar_reference_mode():
            ref_cc = eg.compress(values)
        assert bytes(vec_cc.payload) == bytes(ref_cc.payload)
        np.testing.assert_array_equal(eg.decompress(vec_cc), values)
        # ED aligned: values just below the codec's 2^53 domain bound.
        ed = get_codec("ed")
        values = np.array([2**53 - 1, 1, 2**52], dtype=np.int64)
        vec_cc = ed.compress(values)
        with scalar_reference_mode():
            ref_cc = ed.compress(values)
        assert bytes(vec_cc.payload) == bytes(ref_cc.payload)
        np.testing.assert_array_equal(ed.decompress(vec_cc), values)


class TestStructureKernels:
    @given(column_strategy)
    @settings(max_examples=30, deadline=None)
    def test_rle_dict_bd_bitmap_identical(self, spec):
        seed, n, style = spec
        values = _column(seed, n, style)
        for fn in (
            kernels.rle_runs,
            kernels.dict_encode,
            kernels.dict_pack,
            kernels.bd_pack,
            kernels.bitmap_planes,
        ):
            vec, ref = _both_modes(lambda fn=fn: fn(values))
            _assert_identical(vec, ref, fn.__name__)

    def test_single_run_column(self):
        values = np.full(97, -3, dtype=np.int64)
        vec, ref = _both_modes(lambda: kernels.rle_runs(values))
        _assert_identical(vec, ref, "rle_runs")
        assert vec[0].size == 1 and int(vec[1][0]) == 97

    def test_bd_negative_and_zero_bases(self):
        for base_values in (
            np.array([-100, -97, -100], dtype=np.int64),  # negative base
            np.array([0, 5, 3], dtype=np.int64),          # zero base
            np.array([-(2**40), -(2**40) + 7], dtype=np.int64),
        ):
            vec, ref = _both_modes(lambda v=base_values: kernels.bd_pack(v))
            _assert_identical(vec, ref, "bd_pack")
            base, width, payload = vec
            deltas = kernels.unpack_ints(payload, width, base_values.size)
            np.testing.assert_array_equal(base + deltas, base_values)

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=400),
        st.sampled_from(["rand", "sparse", "dense", "zero", "one"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_plwah_identical(self, seed, n, style):
        rng = np.random.default_rng(seed)
        if style == "rand":
            bits = rng.random(n) < 0.5
        elif style == "sparse":
            bits = rng.random(n) < 0.02
        elif style == "dense":
            bits = rng.random(n) > 0.02
        elif style == "zero":
            bits = np.zeros(n, dtype=bool)
        else:
            bits = np.ones(n, dtype=bool)
        vec_words, ref_words = _both_modes(lambda: kernels.plwah_encode(bits))
        _assert_identical(vec_words, ref_words, "plwah_encode")
        vec_bits, ref_bits = _both_modes(lambda: kernels.plwah_decode(vec_words, n))
        _assert_identical(vec_bits, ref_bits, "plwah_decode")
        np.testing.assert_array_equal(vec_bits, bits)

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=300),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_nsv_identical(self, seed, n, signed):
        rng = np.random.default_rng(seed)
        lo = -(2**20) if signed else 0
        values = rng.integers(lo, 2**20, n).astype(np.int64)
        vec, ref = _both_modes(lambda: kernels.nsv_pack(values, signed))
        _assert_identical(vec, ref, "nsv_pack")
        desc, data = vec
        vec_out, ref_out = _both_modes(
            lambda: kernels.nsv_unpack(desc, data, n, signed)
        )
        _assert_identical(vec_out, ref_out, "nsv_unpack")
        np.testing.assert_array_equal(vec_out, values)

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=1, max_value=8),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_pack_ints_identical(self, seed, n, width, signed):
        rng = np.random.default_rng(seed)
        lo, hi = _pack_range(width, signed)
        values = rng.integers(lo, hi, n, endpoint=True).astype(np.int64)
        if n >= 2:
            values[:2] = lo, hi  # both ends of the representable range
        vec, ref = _both_modes(lambda: kernels.pack_ints(values, width, signed=signed))
        _assert_identical(vec, ref, "pack_ints")
        vec_out, ref_out = _both_modes(
            lambda: kernels.unpack_ints(vec, width, n, signed=signed)
        )
        _assert_identical(vec_out, ref_out, "unpack_ints")
        np.testing.assert_array_equal(vec_out, values)

    @pytest.mark.parametrize("width", range(1, 8))
    @pytest.mark.parametrize("signed", [False, True])
    def test_pack_ints_out_of_range_raises_in_both_modes(self, width, signed):
        lo, hi = _pack_range(width, signed)
        for outside in (lo - 1, hi + 1):
            values = np.array([0, outside, 1], dtype=np.int64)
            for mode in (False, True):
                with scalar_reference_mode(enabled=mode):
                    with pytest.raises(CodecError, match="out of range"):
                        kernels.pack_ints(values, width, signed=signed)

    @given(
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=1, max_value=3000),
        st.integers(min_value=-1, max_value=1),
        st.sampled_from([-(2**63), -5000, 0, 2**40, 2**63 - 1]),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_dict_encode_both_sides_of_dense_cutoff(self, seed, n, nudge, anchor, few):
        # span = DENSE_SPAN_FACTOR * n + {-1, 0, +1}: presence table below
        # the cutoff, sort at and above it; both must code identically
        rng = np.random.default_rng(seed)
        span = DENSE_SPAN_FACTOR * n + nudge
        lo = min(max(anchor, -(2**63)), 2**63 - 1 - span)
        pool = rng.integers(0, span + 1, 3 if few else n)
        offsets = rng.choice(pool, n)
        offsets[0], offsets[-1] = 0, span
        values = np.int64(lo) + offsets.astype(np.int64)
        vec, ref = _both_modes(lambda: kernels.dict_encode(values))
        _assert_identical(vec, ref, "dict_encode")
        _assert_identical(vec, scalar_ref.dict_encode(values), "scalar_ref")
        dictionary, inverse = np.unique(values, return_inverse=True)
        _assert_identical(vec, (dictionary, inverse.astype(np.int64)), "np.unique")

    def test_empty_batches(self):
        empty = np.zeros(0, dtype=np.int64)
        for fn in (
            kernels.rle_runs,
            kernels.dict_encode,
            kernels.dict_pack,
            kernels.bitmap_planes,
        ):
            vec, ref = _both_modes(lambda fn=fn: fn(empty))
            _assert_identical(vec, ref, fn.__name__)
        vec, ref = _both_modes(lambda: kernels.plwah_encode(np.zeros(0, dtype=bool)))
        _assert_identical(vec, ref, "plwah_encode")
        vec, ref = _both_modes(lambda: kernels.pack_ints(empty, 4))
        _assert_identical(vec, ref, "pack_ints")


def _two_pass_pack(codes, width):
    """The layout the one-pass packers must reproduce: codes, then a pack."""
    return scalar_ref.pack_int_array(np.asarray(codes, dtype=np.int64), width)


class TestOnePassPacking:
    """``bd_pack``/``dict_pack`` write codes at their width in one pass.

    Both must equal their scalar references and the two-pass layout
    (int64 codes, then ``pack_int_array``) byte for byte, on both sides
    of every width step and every algorithm cutoff.
    """

    @pytest.mark.parametrize("k", range(1, 8))
    @pytest.mark.parametrize("base", [-(2**62), -12345, -1, 0, 2**40])
    def test_bd_pack_at_width_steps(self, k, base):
        rng = np.random.default_rng(k)
        for top, width in (((1 << (8 * k)) - 1, k), (1 << (8 * k), k + 1)):
            values = np.int64(base) + (
                rng.integers(0, 2, 40) * np.int64(top)
            )
            values[:2] = base, base + top
            vec, ref = _both_modes(lambda v=values: kernels.bd_pack(v))
            _assert_identical(vec, ref, f"bd_pack span {top}")
            assert vec[:2] == (base, width)
            assert vec[2].dtype == np.uint8
            assert bytes(vec[2]) == bytes(_two_pass_pack(values - base, width))

    @pytest.mark.parametrize("value", [-(2**63), -1, 0, 2**63 - 1])
    def test_bd_pack_constant_column(self, value):
        values = np.full(9, value, dtype=np.int64)
        vec, ref = _both_modes(lambda: kernels.bd_pack(values))
        _assert_identical(vec, ref, "bd_pack constant")
        assert vec[:2] == (value, 1) and bytes(vec[2]) == bytes(9)

    def test_bd_pack_widest_span_fits(self):
        values = np.array([-(2**63), -1, -(2**62)], dtype=np.int64)
        vec, ref = _both_modes(lambda: kernels.bd_pack(values))
        _assert_identical(vec, ref, "bd_pack span 2^63 - 1")
        assert vec[1] == 8

    @pytest.mark.parametrize(
        "values",
        [
            [-(2**63), 0],
            [-1, 2**63 - 1],
            [-(2**63), -(2**62), 2**63 - 1],
            [-(2**63), 2**63 - 1],
        ],
    )
    def test_bd_span_past_int64_raises_in_both_modes(self, values):
        values = np.asarray(values, dtype=np.int64)
        for mode in (False, True):
            with scalar_reference_mode(enabled=mode):
                with pytest.raises(CodecError, match="span"):
                    kernels.bd_pack(values)
                with pytest.raises(CodecError, match="span"):
                    get_codec("bd").compress(values)

    @given(
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=1, max_value=2000),
        st.sampled_from([DENSE_SPAN_FACTOR, kernels.DICT_LUT_SPAN_FACTOR]),
        st.integers(min_value=-1, max_value=1),
        st.sampled_from([-(2**63), -5000, 0, 2**40, 2**63 - 1]),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_dict_pack_both_sides_of_each_cutoff(
        self, seed, n, factor, nudge, anchor, few
    ):
        # max - min = factor * n + {-1, 0, +1}: presence below the dense
        # cutoff, sort + lookup table up to the table budget, np.unique past it
        rng = np.random.default_rng(seed)
        span = factor * n + nudge
        lo = min(max(anchor, -(2**63)), 2**63 - 1 - span)
        pool = rng.integers(0, span + 1, 3 if few else n)
        offsets = rng.choice(pool, n)
        offsets[0], offsets[-1] = 0, span
        values = np.int64(lo) + offsets.astype(np.int64)
        vec, ref = _both_modes(lambda: kernels.dict_pack(values))
        _assert_identical(vec, ref, "dict_pack")
        dictionary, inverse = np.unique(values, return_inverse=True)
        width = max(((dictionary.size - 1).bit_length() + 7) // 8, 1)
        _assert_identical(
            vec, (dictionary, width, _two_pass_pack(inverse, width)), "np.unique"
        )

    @pytest.mark.parametrize("kinds", [256, 257, 65536, 65537])
    @pytest.mark.parametrize("stride", [1, 20, 100])
    def test_dict_pack_code_width_steps(self, kinds, stride):
        # stride 1 is dense, 20 sorts into a lookup table, 100 is np.unique
        rng = np.random.default_rng(kinds + stride)
        values = rng.permutation(kinds).astype(np.int64) * stride - 7
        dictionary, width, payload = kernels.dict_pack(values)
        assert width == (1 if kinds <= 256 else 2 if kinds <= 65536 else 3)
        _assert_identical(
            (dictionary, width, payload), scalar_ref.dict_pack(values), "dict_pack"
        )

    @pytest.mark.parametrize("nudge, sorts", [(-1, False), (0, True)])
    def test_dict_pack_dense_cutoff_decides_the_sort(self, monkeypatch, nudge, sorts):
        n = 500
        values = np.arange(n, dtype=np.int64) * 3
        values[-1] = DENSE_SPAN_FACTOR * n + nudge
        calls = []
        real_sort = np.sort
        monkeypatch.setattr(
            np, "sort", lambda *a, **k: calls.append(1) or real_sort(*a, **k)
        )
        kernels.dict_pack(values)
        assert bool(calls) == sorts

    @pytest.mark.parametrize("nudge, uniques", [(-1, False), (0, True)])
    def test_dict_pack_table_budget_decides_unique(self, monkeypatch, nudge, uniques):
        n = 500
        values = np.arange(n, dtype=np.int64)
        values[-1] = kernels.DICT_LUT_SPAN_FACTOR * n + nudge
        calls = []
        real_unique = np.unique
        monkeypatch.setattr(
            np, "unique", lambda *a, **k: calls.append(1) or real_unique(*a, **k)
        )
        kernels.dict_pack(values)
        assert bool(calls) == uniques

    def test_codecs_reach_the_scalar_packers(self, monkeypatch):
        calls = []
        for name in ("bd_pack", "dict_pack"):
            real = getattr(scalar_ref, name)

            def spy(values, real=real, name=name):
                calls.append(name)
                return real(values)

            monkeypatch.setattr(scalar_ref, name, spy)
        values = np.array([5, 9, 5, 7], dtype=np.int64)
        for codec in ("bd", "dict"):
            get_codec(codec).compress(values)
        assert calls == []
        with scalar_reference_mode():
            for codec in ("bd", "dict"):
                get_codec(codec).compress(values)
        assert calls == ["bd_pack", "dict_pack"]


class TestNamedScalarOracles:
    """Call the scalar oracles *by name*, next to their dispatchers.

    The hypothesis suites above exercise every pair through the
    ``scalar_reference_mode()`` dispatch; these directed cases pin the
    pairing itself — each dispatcher against an explicit
    ``scalar_ref.<oracle>`` call — so a renamed or rewired oracle fails
    loudly (and the CSD002 scalar-parity lint rule can verify both
    halves of every pair appear in this module).
    """

    VALUES = np.array([0, 1, 2, 255, 256, 65535, 1 << 20], dtype=np.int64)

    def test_pack_int_array_is_the_pack_ints_oracle(self):
        packed = scalar_ref.pack_int_array(self.VALUES, 3)
        np.testing.assert_array_equal(kernels.pack_ints(self.VALUES, 3), packed)
        out = scalar_ref.unpack_int_array(packed, 3, self.VALUES.size)
        np.testing.assert_array_equal(out, self.VALUES)
        np.testing.assert_array_equal(
            kernels.unpack_ints(packed, 3, self.VALUES.size), out
        )

    def test_gamma_codeword_ints_is_the_gamma_codewords_oracle(self):
        values = self.VALUES + 1  # gamma codes are for positive integers
        ref_codes, ref_widths = scalar_ref.gamma_codeword_ints(values)
        vec_codes, vec_widths = kernels.gamma_codewords(values)
        np.testing.assert_array_equal(vec_codes, ref_codes)
        np.testing.assert_array_equal(vec_widths, ref_widths)

    def test_delta_codeword_ints_is_the_delta_codewords_oracle(self):
        values = self.VALUES + 1
        ref_codes, ref_widths = scalar_ref.delta_codeword_ints(values)
        vec_codes, vec_widths = kernels.delta_codewords(values)
        np.testing.assert_array_equal(vec_codes, ref_codes)
        np.testing.assert_array_equal(vec_widths, ref_widths)
        inverted = scalar_ref.delta_codeword_invert(ref_codes)
        np.testing.assert_array_equal(inverted, values)
        np.testing.assert_array_equal(kernels.delta_invert(vec_codes), inverted)
