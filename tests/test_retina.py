"""Containers, PGM input, and grid calculus.

Frozen expected values come from direct per-pixel oracle loops coded
independently of the library (see the *_oracle helpers below); the literal
constants were produced by running those oracles alone.
"""

import gc
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from gazefield import (
    BlurSchedule,
    DataError,
    DimensionError,
    Field2D,
    NumericalError,
    ParameterError,
    PgmParseError,
    VectorField2D,
    gaussian_blur,
    gradient,
    laplacian,
    load_pgm,
    magnitude,
    save_pgm,
    schedule_sigma,
    synth,
    temporal_derivative,
)
from gazefield.retina import (
    _bump,
    _gaussian_kernel,
    _gradient_magnitude,
    _gradient_rows,
    _line_aligned,
    _shifted,
)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def lap_oracle(v, h):
    H, W = v.shape
    out = np.zeros_like(v)
    for y in range(H):
        for x in range(W):
            def at(yy, xx):
                yy = min(max(yy, 0), H - 1)  # edge replication
                xx = min(max(xx, 0), W - 1)
                return v[yy, xx]
            out[y, x] = (at(y - 1, x) + at(y + 1, x) + at(y, x - 1) + at(y, x + 1)
                         - 4 * v[y, x]) / (h * h)
    return out


def blur_oracle(v, sigma):
    r = math.ceil(3 * sigma)
    offs = np.arange(-r, r + 1)
    k1 = np.exp(-offs**2 / (2 * sigma**2))
    k1 = k1 / k1.sum()
    k2 = np.outer(k1, k1)
    H, W = v.shape
    out = np.zeros_like(v)
    for y in range(H):
        for x in range(W):
            acc = 0.0
            for dy in range(-r, r + 1):
                for dx in range(-r, r + 1):
                    yy = min(max(y + dy, 0), H - 1)
                    xx = min(max(x + dx, 0), W - 1)
                    acc += k2[dy + r, dx + r] * v[yy, xx]
            out[y, x] = acc
    return out


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def signed_zeros(shape):
    # normal values, a third of the nodes set to -0.0 and a third to +0.0
    rng = np.random.default_rng(11)
    v, pick = rng.standard_normal(shape), rng.integers(0, 3, shape)
    v[pick == 1], v[pick == 2] = -0.0, 0.0
    return v


def grad_max_norm(f):
    g = gradient(f)
    return max(np.abs(g.dx).max(), np.abs(g.dy).max())


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

class TestField2D:
    def test_row_major_layout(self):
        f = Field2D(np.array([0, 1, 2, 10, 11, 12]).reshape(2, 3))
        assert f.width == 3 and f.height == 2
        assert f.values[1, 2] == 12  # values[y, x]
        assert list(f.data) == [0, 1, 2, 10, 11, 12]

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            Field2D(np.array([[0.0, np.nan], [0.0, 0.0]]))
        with pytest.raises(DataError):
            Field2D(np.array([[np.inf, 0.0]]))

    def test_rejects_wrong_rank_and_size_mismatch(self):
        with pytest.raises(DimensionError):
            Field2D(np.zeros(4))

    def test_values_are_read_only(self):
        f = Field2D.zeros(4, 4)
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0

    def test_does_not_alias_caller_array(self):
        src = np.zeros((3, 3))
        f = Field2D(src)
        src[0, 0] = 99.0
        assert f.values[0, 0] == 0.0


class TestVectorField2D:
    def test_component_shape_mismatch(self):
        with pytest.raises(DimensionError):
            VectorField2D(np.zeros((2, 3)), np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# load_pgm
# ---------------------------------------------------------------------------

class TestLoadPgm:
    def test_minimal_8bit(self):
        payload = b"P5 2 2 255\n" + bytes([0, 51, 102, 255])
        f = load_pgm(payload)
        assert f.width == 2 and f.height == 2
        np.testing.assert_allclose(f.data, [0.0, 0.2, 0.4, 1.0])

    def test_16bit_big_endian(self):
        payload = b"P5 2 2 1000\n\x00\x00\x00\xfa\x01\xf4\x03\xe8"
        f = load_pgm(payload)
        np.testing.assert_allclose(f.data, [0.0, 0.25, 0.5, 1.0])

    def test_header_comments(self):
        payload = b"P5\n# made by hand\n2 1\n# another\n255\n" + bytes([0, 255])
        f = load_pgm(payload)
        np.testing.assert_allclose(f.data, [0.0, 1.0])

    def test_text_is_not_a_file_image(self):
        with pytest.raises(DataError, match="^load_pgm expects bytes$"):
            load_pgm("P5 2 2 255\n\x00\x00\x00\x00")

    def test_bad_magic_names_offset_zero(self):
        with pytest.raises(PgmParseError) as exc:
            load_pgm(b"P2 2 2 255\n0 0 0 0")
        assert exc.value.offset == 0

    def test_truncated_raster_names_end_offset(self):
        payload = b"P5 2 2 255\n" + bytes([0, 1])
        with pytest.raises(PgmParseError) as exc:
            load_pgm(payload)
        assert exc.value.offset == len(payload)

    @pytest.mark.parametrize("maxval, dtype", [(255, "u1"), (65535, ">u2")])
    def test_one_load_peaks_below_two_frames(self, maxval, dtype):
        # one float64 frame, decoded and scaled in place, and the raster's bytes
        values = np.random.default_rng(4).uniform(0.0, 1.0, (256, 256))
        payload = save_pgm(Field2D(values), maxval)
        load_pgm(payload)  # first-call allocations outside the measure
        tracemalloc.start()
        try:
            f = load_pgm(payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * values.nbytes
        assert f.values.base is None and not f.values.flags.writeable  # no view kept
        samples = np.frombuffer(payload[-values.size * np.dtype(dtype).itemsize:], dtype)
        np.testing.assert_array_equal(f.values.ravel(), samples / maxval)

    def test_maxval_out_of_range(self):
        with pytest.raises(PgmParseError):
            load_pgm(b"P5 2 2 0\n\x00\x00\x00\x00")
        with pytest.raises(PgmParseError):
            load_pgm(b"P5 2 2 70000\n" + bytes(8))

    def test_garbage_header_token(self):
        payload = b"P5 2 xx 255\n" + bytes(4)
        with pytest.raises(PgmParseError) as exc:
            load_pgm(payload)
        assert exc.value.offset == payload.index(b"xx")

    @pytest.mark.parametrize("field, offset", [("width", 3), ("height", 5),
                                               ("maxval", 7)])
    def test_header_integer_past_the_int_limit_names_its_offset(self, field, offset):
        # 5000 digits is past int()'s default limit for digit strings
        tokens = {"width": b"2", "height": b"2", "maxval": b"255"}
        tokens[field] = b"9" * 5000
        payload = b"P5 " + b" ".join(tokens.values()) + b"\n" + bytes(4)
        with pytest.raises(PgmParseError) as exc:
            load_pgm(payload)
        limit = len(str(np.iinfo(np.intp).max))
        assert str(exc.value) == (f"{field} has 5000 significant digits, more than "
                                  f"the {limit} a frame can use (byte offset {offset})")
        assert exc.value.offset == offset

    def test_header_integer_one_digit_past_the_index_type_is_rejected(self):
        digits = len(str(np.iinfo(np.intp).max))
        with pytest.raises(PgmParseError, match="truncated"):
            load_pgm(b"P5 " + b"9" * digits + b" 1 255\n" + bytes(4))
        with pytest.raises(PgmParseError, match=f"{digits + 1} significant digits"):
            load_pgm(b"P5 " + b"1" + b"0" * digits + b" 1 255\n" + bytes(4))

    def test_zero_padded_header_integers_load(self):
        payload = (b"P5 " + b"0" * 4399 + b"2 " + b"0" * 4399 + b"1 "
                   + b"0" * 4397 + b"255\n" + bytes([0, 255]))
        np.testing.assert_array_equal(load_pgm(payload).values, [[0.0, 1.0]])

    def test_values_land_in_unit_interval(self):
        rng = np.random.default_rng(3)
        raw = rng.integers(0, 256, size=30, dtype=np.uint8)
        f = load_pgm(b"P5 6 5 255\n" + raw.tobytes())
        assert f.data.min() >= 0.0 and f.data.max() <= 1.0


# (payload, message, byte offset) of malformed P5 headers
PGM_HEADER_ERRORS = [
    (b"P5#c\r0 2 255\n" + bytes(4), "width must be >= 1, got 0", 5),
    (b"P5 #a\r\x0b#b\n\x0c7 x 255\n", "expected decimal height", 13),
    (b"P5 2\x0b\x0cx 255\n", "expected decimal height", 6),
    (b"P5\x0c2\x0b2\x0b255\x0c" + bytes(4), None, None),
    (b"P5 2 2#255\n", "expected decimal maxval", 11),
    (b"P5 #2 2 255\n" + bytes(4), "expected decimal width", 12),
    (b"P5", "expected decimal width", 2),
    (b"P5\n\n# only a comment", "expected decimal width", 20),
    (b"P5 -3 3 255\n", "expected decimal width", 3),
    (b"P5 3 -1 255\n", "expected decimal height", 5),
    (b"P5 3 3 +255\n", "expected decimal maxval", 7),
    (b"P5 00 2 255\n", "width must be >= 1, got 0", 3),
    (b"P5 3 0 255\n", "height must be >= 1, got 0", 5),
    (b"P5 3 3 0\n", "maxval must be in [1, 65535], got 0", 7),
    (b"P5 3 3 65536\n", "maxval must be in [1, 65535], got 65536", 7),
    (b"P5 3 3 255", "expected single whitespace byte before raster", 10),
    (b"P5 3 3 255x" + bytes(9), "expected single whitespace byte before raster", 10),
    (b"P5 3 3 255#\n" + bytes(9), "expected single whitespace byte before raster", 10),
]


@pytest.mark.parametrize("payload, message, offset", PGM_HEADER_ERRORS)
def test_pgm_header_error_table(payload, message, offset):
    if message is None:  # VT and FF separate tokens and end the header
        assert load_pgm(payload).values.shape == (2, 2)
        return
    with pytest.raises(PgmParseError) as exc:
        load_pgm(payload)
    assert str(exc.value) == f"{message} (byte offset {offset})"
    assert exc.value.offset == offset


class TestSavePgm:
    def test_header_and_payload_8bit(self):
        f = Field2D(np.array([[0.0, 1.0], [0.5, 0.25]]))
        data = save_pgm(f)
        assert data == b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64])

    def test_roundtrip_is_exact_after_quantization(self):
        rng = np.random.default_rng(21)
        f = Field2D(rng.uniform(0.0, 1.0, (7, 5)))
        for maxval in (255, 65535):
            back = load_pgm(save_pgm(f, maxval))
            q = np.rint(f.values * maxval) / maxval
            assert np.array_equal(back.values, q)

    def test_out_of_range_values_clip(self):
        f = Field2D(np.array([[-0.5, 1.5]]))
        assert save_pgm(f)[-2:] == bytes([0, 255])

    def test_sixteen_bit_samples_are_big_endian(self):
        f = Field2D(np.array([[1.0]]))
        assert save_pgm(f, 65535)[-2:] == b"\xff\xff"

    def test_rejects_bad_maxval(self):
        with pytest.raises(ParameterError):
            save_pgm(Field2D.zeros(2, 2), 0)
        with pytest.raises(ParameterError):
            save_pgm(Field2D.zeros(2, 2), 70000)


# ---------------------------------------------------------------------------
# gradient / laplacian / temporal derivative
# ---------------------------------------------------------------------------

class TestGradient:
    def test_ramp_x(self):
        xs = np.tile(np.arange(5.0), (4, 1))
        g = gradient(Field2D(xs))
        np.testing.assert_allclose(g.dx, 1.0)
        np.testing.assert_allclose(g.dy, 0.0)

    def test_constant(self):
        g = gradient(Field2D(np.full((4, 4), 7.0)))
        np.testing.assert_allclose(g.dx, 0.0)
        np.testing.assert_allclose(g.dy, 0.0)

    def test_bilinear_product_exact(self):
        # b = x*y has exact central and one-sided differences
        ys, xs = np.mgrid[0:5, 0:6].astype(float)
        g = gradient(Field2D(xs * ys))
        np.testing.assert_allclose(g.dx, ys)
        np.testing.assert_allclose(g.dy, xs)

    def test_quadratic_central_exact_interior(self):
        # central differences are exact on quadratics: d(x^2)/dx = 2x
        ys, xs = np.mgrid[0:5, 0:8].astype(float)
        g = gradient(Field2D(xs * xs))
        np.testing.assert_allclose(g.dx[:, 1:-1], 2.0 * xs[:, 1:-1], atol=1e-12)

    def test_spacing_scales_inverse(self):
        rng = np.random.default_rng(11)
        f = Field2D(rng.standard_normal((6, 6)))
        g1 = gradient(f, 1.0)
        g2 = gradient(f, 0.5)
        np.testing.assert_allclose(g2.dx, 2.0 * g1.dx)
        np.testing.assert_allclose(g2.dy, 2.0 * g1.dy)

    def test_too_small(self):
        with pytest.raises(DimensionError):
            gradient(Field2D(np.zeros((1, 5))))

    @pytest.mark.parametrize("h", [1.0, 0.37])
    @pytest.mark.parametrize("shape", [(2, 2), (2, 7), (7, 2), (33, 64)])
    def test_bitwise_matches_per_node_rule(self, shape, h):
        # central (v[i+1] - v[i-1]) / (2h) inside, one-sided / h at the ends
        v = np.random.default_rng(17).standard_normal(shape)
        H, W = shape
        dx = np.empty(shape)
        dy = np.empty(shape)
        for y in range(H):
            for x in range(W):
                if x == 0:
                    dx[y, x] = (v[y, 1] - v[y, 0]) / h
                elif x == W - 1:
                    dx[y, x] = (v[y, x] - v[y, x - 1]) / h
                else:
                    dx[y, x] = (v[y, x + 1] - v[y, x - 1]) / (2 * h)
                if y == 0:
                    dy[y, x] = (v[1, x] - v[0, x]) / h
                elif y == H - 1:
                    dy[y, x] = (v[y, x] - v[y - 1, x]) / h
                else:
                    dy[y, x] = (v[y + 1, x] - v[y - 1, x]) / (2 * h)
        g = gradient(Field2D(v), h)
        np.testing.assert_array_equal(g.dx, dx)
        np.testing.assert_array_equal(g.dy, dy)

    @pytest.mark.parametrize("h", [1.0, 0.5, 3.0])
    @pytest.mark.parametrize("shape", [(2, 2), (2, 7), (7, 2), (3, 3), (33, 65), (256, 256)])
    def test_bit_for_bit_np_gradient_and_its_magnitude(self, shape, h):
        # np.gradient is the reference, sign of zero included: a third of the
        # nodes hold -0.0 and a third +0.0, so some differences are -0.0
        v = signed_zeros(shape)
        dy, dx = np.gradient(v, h)
        assert (np.signbit(dx) & (dx == 0)).any() or shape[1] == 2
        for values in (v, np.asfortranarray(v)):  # a field keeps its array's order
            g = gradient(Field2D(values), h)
            assert same_bits(g.dx, dx) and same_bits(g.dy, dy)
            assert same_bits(_gradient_magnitude(Field2D(values), h), np.hypot(dx, dy))

    @pytest.mark.parametrize("shape", [(2, 2), (2, 7), (7, 2), (3, 3), (33, 65)])
    def test_rows_of_any_block_match_the_whole_grid(self, shape):
        # each block lo:hi, edge rows included, as np.gradient's rows lo:hi
        v = signed_zeros(shape)
        dy, dx = np.gradient(v, 0.5)
        cuts = sorted({0, 1, 2, 16, 17, 31, 32} & set(range(shape[0])) | {shape[0]})
        for lo in cuts:
            for hi in (c for c in cuts if c > lo):
                bx, by = np.full((hi - lo, shape[1]), np.nan), np.full((hi - lo, shape[1]), np.nan)
                _gradient_rows(v, 0.5, lo, hi, bx, by)
                assert same_bits(bx, dx[lo:hi]) and same_bits(by, dy[lo:hi]), (lo, hi)

    @pytest.mark.parametrize("shape", [(33, 600), (3, 4100)])
    def test_magnitude_in_row_blocks_matches_the_whole_grid(self, shape):
        # 6 rows a 32 KiB block with a last block of 3; one row, past 32 KiB, a block
        v = signed_zeros(shape)
        assert same_bits(_gradient_magnitude(Field2D(v), 3.0), np.hypot(*np.gradient(v, 3.0)))

    @pytest.mark.parametrize("v, text", [
        (np.where(np.indices((8, 8)).sum(axis=0) % 2, 1e308, -1e308), "gradient"),
        (np.pad([[-1.5e308]], ((0, 7), (0, 7))), "magnitude"),
    ], ids=["gradient", "magnitude"])
    def test_magnitude_overflow_raises_the_reference_text(self, v, text):
        # a difference past float range, or a finite gradient whose hypot is not
        want = rf"^{text} overflow: result contains non-finite values$"
        with pytest.raises(NumericalError, match=want):
            magnitude(gradient(Field2D(v)))
        with pytest.raises(NumericalError, match=want):
            _gradient_magnitude(Field2D(v), 1.0)

    def test_linearity(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5))
        ga = gradient(Field2D(a))
        gb = gradient(Field2D(b))
        gs = gradient(Field2D(2.0 * a - 3.0 * b))
        np.testing.assert_allclose(gs.dx, 2.0 * ga.dx - 3.0 * gb.dx, atol=1e-12)
        np.testing.assert_allclose(gs.dy, 2.0 * ga.dy - 3.0 * gb.dy, atol=1e-12)


class TestLaplacian:
    def test_matches_direct_stencil_oracle(self):
        rng = np.random.default_rng(20260822)
        v = rng.uniform(-1.0, 1.0, size=(8, 8))
        lap = laplacian(Field2D(v)).values
        np.testing.assert_allclose(lap, lap_oracle(v, 1.0), atol=1e-13)
        # frozen spot values from the oracle run
        assert lap[0, 0] == pytest.approx(-0.1378995955075697, abs=1e-12)
        assert lap[3, 4] == pytest.approx(2.46659190996305, abs=1e-12)
        assert lap[7, 7] == pytest.approx(-0.8892867600807757, abs=1e-12)
        # replication makes the stencil sum telescope away
        assert lap.sum() == pytest.approx(0.0, abs=1e-11)

    @pytest.mark.parametrize("h", [1.0, 0.5, 0.3])
    def test_bitwise_matches_oracle_operand_order(self, h):
        # the oracle sums up, down, left, right, then subtracts the centre;
        # the potential steppers share this stencil, so the order is pinned
        # here.  Magnitudes spread over 12 decades so a reordered sum rounds
        # differently.
        rng = np.random.default_rng(44)
        v = rng.uniform(-1.0, 1.0, (7, 9)) * 10.0 ** rng.integers(-6, 7, (7, 9))
        np.testing.assert_array_equal(laplacian(Field2D(v), h).values, lap_oracle(v, h))

    def test_constant_zero_everywhere(self):
        lap = laplacian(Field2D(np.full((6, 6), 3.0))).values
        np.testing.assert_allclose(lap, 0.0, atol=1e-14)

    def test_quadratic_curvature(self):
        # f = x^2 + y^2 has discrete Laplacian exactly 4 in the interior
        ys, xs = np.mgrid[0:7, 0:7].astype(float)
        lap = laplacian(Field2D(xs * xs + ys * ys)).values
        np.testing.assert_allclose(lap[1:-1, 1:-1], 4.0, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6))
        la = laplacian(Field2D(a)).values
        lb = laplacian(Field2D(b)).values
        ls = laplacian(Field2D(1.5 * a + 2.5 * b)).values
        np.testing.assert_allclose(ls, 1.5 * la + 2.5 * lb, atol=1e-12)

    def test_spacing(self):
        ys, xs = np.mgrid[0:7, 0:7].astype(float)
        lap = laplacian(Field2D(0.5 * xs * xs), h=0.5).values
        np.testing.assert_allclose(lap[1:-1, 1:-1], 4.0 * 1.0, atol=1e-11)

    def test_too_small(self):
        with pytest.raises(DimensionError):
            laplacian(Field2D(np.zeros((2, 5))))


def test_laplacian_is_divergence_of_gradient_deep_interior():
    # matching stencil pair: forward-difference gradient composed with
    # backward-difference divergence reproduces the compact 5-point stencil
    rng = np.random.default_rng(9)
    v = rng.standard_normal((9, 10))
    lap = laplacian(Field2D(v)).values
    gx = v[:, 1:] - v[:, :-1]
    gy = v[1:, :] - v[:-1, :]
    div = np.zeros_like(v)
    div[:, 1:-1] += gx[:, 1:] - gx[:, :-1]
    div[1:-1, :] += gy[1:, :] - gy[:-1, :]
    np.testing.assert_allclose(div[2:-2, 2:-2], lap[2:-2, 2:-2], atol=1e-12)


class TestTemporalDerivative:
    def test_forward_difference(self):
        a = Field2D(np.zeros((3, 3)))
        b = Field2D(np.full((3, 3), 0.5))
        d = temporal_derivative(a, b, 0.25)
        np.testing.assert_allclose(d.values, 2.0)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            temporal_derivative(Field2D.zeros(3, 3), Field2D.zeros(4, 3), 0.1)

    def test_bad_dt(self):
        with pytest.raises(ParameterError):
            temporal_derivative(Field2D.zeros(3, 3), Field2D.zeros(3, 3), -1.0)


@pytest.mark.parametrize("call, outputs", [
    (lambda f, g: gradient(f, 0.5), 2),
    (lambda f, g: temporal_derivative(f, g, 0.5), 1),
], ids=["gradient", "temporal_derivative"])
def test_derivative_allocates_its_outputs_and_64_kib(call, outputs):
    # at 256x256 each result array is built in place, and the finite check
    # reads its min and max: no difference, quotient or mask the size of a grid
    rng = np.random.default_rng(8)
    f, g = Field2D(rng.standard_normal((256, 256))), Field2D(rng.standard_normal((256, 256)))
    call(f, g)  # warm-up: numpy's lazy set-up
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call(f, g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= outputs * f.values.nbytes + 64 * 1024, peak
    del result


def test_magnitude():
    vf = VectorField2D(np.full((2, 2), 3.0), np.full((2, 2), 4.0))
    np.testing.assert_allclose(magnitude(vf).values, 5.0)


@pytest.mark.parametrize("compute", [
    lambda: temporal_derivative(Field2D.zeros(3, 3), Field2D(np.ones((3, 3))), 1e-310),
    lambda: gradient(Field2D(np.arange(9.0).reshape(3, 3)), 1e-310),
    lambda: magnitude(VectorField2D(np.full((2, 2), 1.5e308), np.full((2, 2), 1.5e308))),
    lambda: laplacian(Field2D(np.arange(9.0).reshape(3, 3)), 1e-160),
], ids=["temporal_derivative", "gradient", "magnitude", "laplacian"])
def test_overflow_from_finite_fields_is_numerical_error(compute):
    # the inputs are finite, so a non-finite result is overflow, not bad data
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match="overflow"):
        compute()


# ---------------------------------------------------------------------------
# gaussian_blur
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("size, lo", [(1, 0), (100, 3), (4096, 65), (33 * 31, 34)])
def test_line_aligned_starts_element_lo_on_a_line(size, lo):
    a = _line_aligned(size, lo)
    assert a.shape == (size,) and not a.any()
    assert (a.__array_interface__["data"][0] + 8 * lo) % 64 == 0


def test_shifted_leaves_no_cyclic_garbage():
    # with the collector off, garbage stays traced: a generator expression
    # held about 80 B a call, 80 KB for these 1000
    flat, enabled = np.zeros(100), gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(1000):
            _shifted(flat, 10, 10, 90)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert held < 1024


class TestGaussianBlur:
    def test_sigma_zero_is_identity(self):
        rng = np.random.default_rng(5)
        f = Field2D(rng.standard_normal((4, 6)))
        out = gaussian_blur(f, 0.0)
        np.testing.assert_array_equal(out.values, f.values)

    @pytest.mark.parametrize("sigma", [5e-324, 1e-170, 1e-160, 1e-154, 0.01, 0.0249])
    def test_sigma_below_point_threshold_is_identity_without_warning(self, sigma):
        # the side taps exp(-1/(2 sigma^2)) underflow to zero; for the smallest
        # sigmas 2 sigma^2 does too, and a kernel built anyway would be NaN
        f = Field2D(np.eye(5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gaussian_blur(f, sigma) is f

    @pytest.mark.parametrize("sigma", [0.025, 0.026, 0.03, 1.2, 24.0])
    def test_kernel_bits_from_point_threshold_up(self, sigma):
        radius = math.ceil(3.0 * sigma)
        offsets = np.arange(-radius, radius + 1, dtype=np.float64)
        taps = np.exp(-(offsets ** 2) / (2.0 * sigma * sigma))
        assert np.array_equal(_gaussian_kernel(sigma), taps / taps.sum())

    @pytest.mark.parametrize("sigma", [1.0, 2.5, 3.0, 1e-160])
    def test_one_gaussian_for_the_bump_and_the_blobs(self, sigma):
        # _bump against full-grid coordinates, and synth.blob_image through it
        # (ior_step is pinned in test_mass.py, the blur taps above); a subnormal
        # 2*sigma*sigma leaves the centre node alone, with no warning
        ys, xs = np.mgrid[0:6, 0:11].astype(np.float64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _bump(11, 6, 3.0, 4.0, sigma)
            blob = synth.blob_image(11, 6, 3, 4, sigma, 0.8).values  # int centres too
        with np.errstate(over="ignore"):
            want = np.exp(-((xs - 3.0) ** 2 + (ys - 4.0) ** 2) / (2.0 * sigma * sigma))
        assert np.array_equal(got, want) and got[4, 3] == 1.0
        assert np.array_equal(blob, np.clip(0.8 * want, 0.0, 1.0))

    def test_blobs_take_the_floats_their_checks_return(self):
        # a float32 sigma or dt gives the bits of its float value: under NEP 50 it
        # would otherwise pull the arithmetic it meets down to float32
        sigma, dt = np.float32(2.7), np.float32(1.0 / 30.0)
        got, want = (synth.blob_image(16, 16, 7.3, 8.1, s).values for s in (sigma, float(sigma)))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        got, want = (np.array([f.values for f in synth.moving_blob_frames(
            16, 16, 4, (3, 8), (6, 0), d, 2.7)]) for d in (dt, float(dt)))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_blur_starts_where_the_side_taps_stop_underflowing(self):
        # at 0.025 the kernel is still the centre tap alone; at 0.026 its
        # side taps are subnormal, and the impulse leaks into its neighbours
        v = np.zeros((5, 5))
        v[2, 2] = 1.0
        at = gaussian_blur(Field2D(v), 0.025)
        assert np.array_equal(at.values, v)
        above = gaussian_blur(Field2D(v), 0.026).values
        assert 0.0 < above[2, 1] < 1e-300 and above[2, 2] == 1.0

    def test_constant_preserved_exactly(self):
        f = Field2D(np.full((8, 8), 0.37))
        out = gaussian_blur(f, 2.5)
        np.testing.assert_allclose(out.values, 0.37, atol=1e-14)

    def test_matches_dense_convolution_oracle(self):
        rng = np.random.default_rng(7)
        v = rng.uniform(0.0, 1.0, size=(6, 7))
        out = gaussian_blur(Field2D(v), 1.2).values
        np.testing.assert_allclose(out, blur_oracle(v, 1.2), atol=1e-12)
        # frozen spot values from the oracle run
        assert out[0, 0] == pytest.approx(0.6970078729665805, abs=1e-12)
        assert out[3, 3] == pytest.approx(0.41044849001931943, abs=1e-12)
        assert out[5, 6] == pytest.approx(0.6397014303189882, abs=1e-12)
        assert out.sum() == pytest.approx(19.931303093286658, abs=1e-10)

    def test_centered_impulse_mass_preserved(self):
        v = np.zeros((15, 15))
        v[7, 7] = 1.0
        out = gaussian_blur(Field2D(v), 1.0).values
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        assert out[7, 7] == out.max()

    def test_gradient_max_norm_never_grows(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            f = Field2D(rng.uniform(0.0, 1.0, size=(12, 11)))
            sigma = float(rng.uniform(0.2, 3.0))
            assert grad_max_norm(gaussian_blur(f, sigma)) <= grad_max_norm(f) + 1e-12

    @pytest.mark.parametrize("sigma", [np.float32(1.0), np.float64(1.0), np.int64(1)])
    def test_numpy_scalar_sigma_matches_float(self, sigma):
        f = Field2D(np.random.default_rng(3).uniform(size=(6, 7)))
        np.testing.assert_array_equal(gaussian_blur(f, sigma).values,
                                      gaussian_blur(f, 1.0).values)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ParameterError):
            gaussian_blur(Field2D.zeros(4, 4), -0.5)

    def test_kernel_radius_bounded_by_larger_side(self):
        # radius ceil(3*sigma): 8 at sigma 2.5 fits an 8x8 grid, 9 does not
        f = Field2D(np.random.default_rng(11).uniform(size=(8, 8)))
        np.testing.assert_allclose(gaussian_blur(f, 2.5).values,
                                   blur_oracle(f.values, 2.5), atol=1e-12)
        assert gaussian_blur(Field2D.zeros(8, 3), 2.5).values.shape == (3, 8)
        for sigma in (3.0, 1e300):
            with pytest.raises(ParameterError, match="larger grid side 8"):
                gaussian_blur(f, sigma)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (33, 31), (256, 256)])
    def test_bitwise_matches_np_pad_reference(self, shape):
        # each pass as first written: np.pad's edge mode, then the taps in
        # order from a zero start; sigma 0.5, 1 and 3 where the grid takes
        # them, and the widest kernel, radius = larger side
        side = max(shape)
        widest = side / 3.0
        while 3.0 * widest > side:
            widest = float(np.nextafter(widest, 0.0))
        assert math.ceil(3.0 * widest) == side
        v = np.random.default_rng(17).uniform(size=shape)
        for sigma in [s for s in (0.5, 1.0, 3.0) if 3.0 * s <= side] + [widest]:
            kernel = _gaussian_kernel(sigma)
            r, want = len(kernel) // 2, v
            for axis in (1, 0):
                pad = [(0, 0), (0, 0)]
                pad[axis] = (r, r)
                p, n, acc = np.pad(want, pad, mode="edge"), want.shape[axis], np.zeros(shape)
                for k, w in enumerate(kernel):
                    acc = acc + w * (p[:, k:k + n] if axis else p[k:k + n])
                want = acc
            assert np.array_equal(gaussian_blur(Field2D(v), sigma).values, want), sigma

    def test_semigroup_far_from_boundary(self):
        # blur(blur(f,s1),s2) ~ blur(f, sqrt(s1^2+s2^2)) away from the edges.
        # Truncating at ceil(3*sigma) clips a different variance fraction for
        # each width, so the identity carries an O(1e-5) floor on smooth
        # inputs; it cannot reach machine precision with this kernel family.
        ys, xs = np.mgrid[0:72, 0:72].astype(float)
        v = np.exp(-((xs - 35.5) ** 2 + (ys - 35.5) ** 2) / (2.0 * 8.0 ** 2))
        s1, s2 = 1.0, 1.5
        twice = gaussian_blur(gaussian_blur(Field2D(v), s1), s2).values
        once = gaussian_blur(Field2D(v), math.hypot(s1, s2)).values
        margin = math.ceil(3 * (s1 + s2)) + 1
        inner = np.s_[margin:-margin, margin:-margin]
        assert np.abs(twice[inner] - once[inner]).max() < 5e-5


# ---------------------------------------------------------------------------
# schedule_sigma
# ---------------------------------------------------------------------------

class TestScheduleSigma:
    def test_initial_and_floor(self):
        s = BlurSchedule(sigma0=4.0, decay_rate=1.0, floor=0.5)
        assert schedule_sigma(s, 0.0) == 4.0
        assert schedule_sigma(s, 100.0) == 0.5

    def test_exponential_decay(self):
        s = BlurSchedule(sigma0=4.0, decay_rate=0.5, floor=0.0)
        assert schedule_sigma(s, 2.0) == pytest.approx(4.0 * math.exp(-1.0))

    def test_monotone_non_increasing(self):
        s = BlurSchedule(sigma0=3.0, decay_rate=0.7, floor=0.25)
        ts = np.linspace(0.0, 10.0, 50)
        sigmas = [schedule_sigma(s, float(t)) for t in ts]
        assert all(b <= a + 1e-15 for a, b in zip(sigmas, sigmas[1:]))
        assert all(sig >= 0.25 for sig in sigmas)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ParameterError):
            BlurSchedule(sigma0=-1.0)
        with pytest.raises(ParameterError):
            schedule_sigma(BlurSchedule(), -0.1)
