"""Direct-processing semantics per codec: codes, literals, bounds, decode.

These are the properties the operator kernels rely on (DESIGN.md §2):
equality-capable codes are bijective, order-capable codes preserve <, and
affine codecs satisfy value = scale * code + offset.
"""

import numpy as np
import pytest

from repro.compression import (
    CAP_AFFINE,
    CAP_ORDER,
    get_codec,
)

DIRECT_CODECS = ("identity", "ns", "bd", "dict", "eg", "ed")


@pytest.fixture
def sample(rng):
    return rng.integers(0, 5000, size=400)


@pytest.mark.parametrize("name", DIRECT_CODECS)
class TestDirectCodes:
    def test_codes_bijective(self, name, sample):
        codec = get_codec(name)
        cc = codec.compress(sample)
        codes = codec.direct_codes(cc)
        # equal values <-> equal codes
        for i, j in [(0, 1), (5, 6), (10, 200)]:
            assert (sample[i] == sample[j]) == (codes[i] == codes[j])
        # full bijection: decode restores everything
        np.testing.assert_array_equal(codec.decode_codes(cc, codes), sample)

    def test_codes_order_preserving(self, name, sample):
        codec = get_codec(name)
        if CAP_ORDER not in codec.capabilities:
            pytest.skip("not order-capable")
        cc = codec.compress(sample)
        codes = codec.direct_codes(cc)
        order_values = np.argsort(sample, kind="stable")
        order_codes = np.argsort(codes, kind="stable")
        np.testing.assert_array_equal(order_values, order_codes)

    def test_lower_bound_translates_range_predicates(self, name, sample):
        codec = get_codec(name)
        if CAP_ORDER not in codec.capabilities:
            pytest.skip("not order-capable")
        cc = codec.compress(sample)
        codes = codec.direct_codes(cc)
        for literal in (0, 17, 2500, 4999, 6000):
            expected = sample >= literal
            np.testing.assert_array_equal(
                codes >= codec.lower_bound(cc, literal), expected,
                err_msg=f"literal={literal}",
            )

    def test_encode_literal_equality(self, name, sample):
        codec = get_codec(name)
        cc = codec.compress(sample)
        present = int(sample[3])
        code = codec.encode_literal(cc, present)
        codes = codec.direct_codes(cc)
        if code is None:
            pytest.fail("present literal must be encodable")
        np.testing.assert_array_equal(codes == code, sample == present)


@pytest.mark.parametrize("name", ["identity", "ns", "bd", "eg"])
def test_affine_params_reconstruct_values(name, sample):
    codec = get_codec(name)
    assert CAP_AFFINE in codec.capabilities
    cc = codec.compress(sample)
    scale, offset = codec.affine_params(cc)
    codes = codec.direct_codes(cc)
    np.testing.assert_array_equal(scale * codes + offset, sample)


def test_bd_offset_is_batch_minimum(rng):
    values = rng.integers(900, 1000, size=64)
    codec = get_codec("bd")
    cc = codec.compress(values)
    _, offset = codec.affine_params(cc)
    assert offset == values.min()
    assert cc.meta["width"] == 1  # deltas of <100 fit one byte


def test_dict_absent_literal_returns_none(rng):
    values = rng.integers(0, 100, size=128) * 2  # even values only
    codec = get_codec("dict")
    cc = codec.compress(values)
    assert codec.encode_literal(cc, 3) is None  # odd -> absent
    present = int(values[0])
    assert codec.encode_literal(cc, present) is not None


def test_dict_lower_bound_between_entries(rng):
    values = np.array([10, 20, 30, 40], dtype=np.int64)
    codec = get_codec("dict")
    cc = codec.compress(values)
    # 25 is absent; codes >= lower_bound(25) must select {30, 40}
    bound = codec.lower_bound(cc, 25)
    codes = codec.direct_codes(cc)
    np.testing.assert_array_equal(codes >= bound, values >= 25)


def test_dict_decode_rejects_out_of_range(rng):
    codec = get_codec("dict")
    cc = codec.compress(np.array([1, 2, 3], dtype=np.int64))
    from repro.errors import CodecError

    with pytest.raises(CodecError):
        codec.decode_codes(cc, np.array([99]))


@pytest.mark.parametrize("bad", [3, -1, -3, np.iinfo(np.int64).min])
def test_dict_decode_range_check_covers_both_ends(bad):
    codec = get_codec("dict")
    cc = codec.compress(np.array([1, 2, 3], dtype=np.int64))
    from repro.errors import CodecError

    # a negative code would index the dictionary from its end; the one
    # unsigned range check rejects it like a code past the end
    with pytest.raises(CodecError):
        codec.decode_codes(cc, np.array([0, bad, 2]))
    np.testing.assert_array_equal(codec.decode_codes(cc, np.array([2, 0])), [3, 1])


def test_ed_codes_not_affine():
    codec = get_codec("ed")
    assert CAP_AFFINE not in codec.capabilities
    assert CAP_ORDER in codec.capabilities


def test_ns_negative_column_still_direct(rng):
    values = rng.integers(-100, 100, size=256)
    codec = get_codec("ns")
    cc = codec.compress(values)
    assert cc.meta["signed"]
    codes = codec.direct_codes(cc)
    np.testing.assert_array_equal(codes, values)  # NS codes ARE the values
    assert codec.lower_bound(cc, -50) == -50


def test_eg_shift_admits_zero():
    codec = get_codec("eg")
    values = np.array([0, 1, 2], dtype=np.int64)
    cc = codec.compress(values)
    scale, offset = codec.affine_params(cc)
    assert (scale, offset) == (1, -1)
    np.testing.assert_array_equal(codec.direct_codes(cc), values + 1)
