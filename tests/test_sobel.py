import mmap
import os
import random

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import brute_force_sobel
from support import random_image
import taskgrid.sobel as sobel
from taskgrid.sobel import (
    GrayImage,
    PgmError,
    _round_half_up_sqrt,
    lane_bounds,
    neighborhood,
    parse_pgm,
    sobel_parallel,
    sobel_pixel,
    sobel_sequential,
    usable_cpu_count,
    write_pgm,
)

images = st.integers(1, 24).flatmap(
    lambda w: st.integers(1, 24).flatmap(
        lambda h: st.binary(min_size=w * h, max_size=w * h).map(
            lambda raster: GrayImage(w, h, raster)
        )
    )
)


# -- PGM ---------------------------------------------------------------------


def test_parse_minimal_pgm():
    img = parse_pgm(b"P5\n2 2\n255\n" + bytes([1, 2, 3, 4]))
    assert (img.width, img.height) == (2, 2)
    assert img.pixels == bytes([1, 2, 3, 4])


def test_parse_rejects_ascii_pgm():
    with pytest.raises(PgmError) as exc:
        parse_pgm(b"P2\n2 2\n255\n1 2 3 4")
    assert exc.value.code == "UNSUPPORTED_FORMAT"


def test_parse_rejects_short_raster():
    with pytest.raises(PgmError) as exc:
        parse_pgm(b"P5\n4 4\n255\n" + bytes(15))
    assert exc.value.code == "SHORT_RASTER"


def test_parse_rejects_wrong_maxval():
    with pytest.raises(PgmError) as exc:
        parse_pgm(b"P5\n1 1\n65535\n\x00\x00")
    assert exc.value.code == "BAD_MAXVAL"


def test_parse_handles_comments():
    img = parse_pgm(b"P5\n# a comment\n2 1 # inline\n255\n\x01\x02")
    assert (img.width, img.height, img.pixels) == (2, 1, b"\x01\x02")


def test_write_one_pixel():
    assert write_pgm(GrayImage(1, 1, b"\x00")) == b"P5\n1 1\n255\n\x00"


def test_header_orders_width_then_height():
    assert write_pgm(GrayImage(2, 3, bytes(6))).startswith(b"P5\n2 3\n")
    assert write_pgm(GrayImage(3, 2, bytes(6))).startswith(b"P5\n3 2\n")


@given(images)
def test_pgm_round_trip(img):
    assert parse_pgm(write_pgm(img)) == img


# -- neighborhood -----------------------------------------------------------------


def test_neighborhood_interior_of_3x3_is_the_image():
    img = GrayImage(3, 3, bytes(range(9)))
    assert neighborhood(img, 1, 1) == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]


def test_neighborhood_corner_clamps():
    a, b, c, d = 10, 20, 30, 40
    img = GrayImage(2, 2, bytes([a, b, c, d]))
    assert neighborhood(img, 0, 0) == [[a, a, b], [a, a, b], [c, c, d]]


def test_neighborhood_1x1_fully_clamped():
    img = GrayImage(1, 1, b"\x2a")
    assert neighborhood(img, 0, 0) == [[42] * 3] * 3


def test_neighborhood_out_of_range():
    img = GrayImage(2, 2, bytes(4))
    with pytest.raises(ValueError):
        neighborhood(img, 2, 0)


# -- sobel_pixel -------------------------------------------------------------------


def test_constant_neighborhood_is_zero():
    for c in (0, 17, 255):
        assert sobel_pixel([[c] * 3] * 3) == 0


def test_vertical_step_edge():
    m = [[0, 0, 255], [0, 0, 255], [0, 0, 255]]
    # Sx = 0, Sy = -1020, magnitude 1020 clamps to 255
    assert sobel_pixel(m) == 255


def test_horizontal_step_edge():
    m = [[0, 0, 0], [0, 0, 0], [255, 255, 255]]
    # Sx = 1020, Sy = 0
    assert sobel_pixel(m) == 255


def test_magnitude_rounds_to_nearest():
    # single corner pixel = 1: Sx = 1, Sy = 1, sqrt(2) = 1.41 -> 1
    m = [[0, 0, 0], [0, 0, 0], [1, 0, 0]]
    assert sobel_pixel(m) == 1
    # corner pixel = 2: Sx = 2, Sy = 2, sqrt(8) = 2.83 -> 3
    m = [[0, 0, 0], [0, 0, 0], [2, 0, 0]]
    assert sobel_pixel(m) == 3


# -- full images ------------------------------------------------------------------


def test_uniform_image_maps_to_zero():
    img = GrayImage(7, 5, bytes([123]) * 35)
    assert sobel_sequential(img).pixels == bytes(35)


def test_single_pixel_image():
    assert sobel_sequential(GrayImage(1, 1, b"\x80")).pixels == b"\x00"


def test_vertical_split_bright_seam():
    w, h = 8, 6
    half = w // 2
    raster = bytes(([0] * half + [255] * half) * h)
    out = sobel_sequential(GrayImage(w, h, raster)).pixels
    expected = brute_force_sobel(GrayImage(w, h, raster))
    assert out == expected
    # bright pair of columns at the seam, dark away from it (interior rows)
    for y in range(1, h - 1):
        row = out[y * w : (y + 1) * w]
        assert row[half - 1] == 255 and row[half] == 255
        assert row[1] == 0 and row[w - 2] == 0


@given(images)
@settings(max_examples=60, deadline=None)
def test_sequential_matches_brute_force(img):
    assert sobel_sequential(img).pixels == brute_force_sobel(img)


@given(images, st.integers(1, 9))
@settings(max_examples=60, deadline=None)
def test_parallel_equals_sequential(img, lanes):
    assert sobel_parallel(img, lanes).pixels == sobel_sequential(img).pixels


def test_parallel_lane_edge_cases():
    rng = random.Random(5)
    img = random_image(rng, 5, 5)
    seq = sobel_sequential(img)
    for lanes in (1, 7, 25, 26):
        assert sobel_parallel(img, lanes).pixels == seq.pixels


def test_parallel_runs_at_most_one_lane_per_row(monkeypatch):
    # A huge lane_count must not build one halo copy per requested lane.
    calls = []
    run_lane = sobel._run_lane
    monkeypatch.setattr(sobel, "_run_lane", lambda job: calls.append(job) or run_lane(job))
    img = random_image(random.Random(5), 5, 5)
    assert sobel_parallel(img, 26).pixels == sobel_sequential(img).pixels
    assert 0 < len(calls) <= 5


def test_usable_cpu_count_follows_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert usable_cpu_count() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert usable_cpu_count() == 64


def test_parallel_process_pool_path():
    # large enough to cross the process-lane threshold
    rng = random.Random(11)
    img = random_image(rng, 1024, 512)
    assert sobel_parallel(img, 4).pixels == sobel_sequential(img).pixels


def _live_children():
    # In /proc/<pid>/stat the fields after the parenthesised command name
    # start with the state and the parent pid.
    children = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                text = fh.read()
        except OSError:
            continue
        state, ppid = text[text.rindex(")") + 2 :].split()[:2]
        if state != "Z" and int(ppid) == os.getpid():
            children.add(int(entry))
    return children


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="lists processes through /proc")
def test_no_lane_process_outlives_its_call():
    # A process left behind (a forkserver, say) would outlive the task,
    # and the benchmark's traced runs fail on any child left alive.
    img = random_image(random.Random(12), 512, 512)
    before = _live_children()
    assert sobel_parallel(img, 2).pixels == sobel_parallel(img, 1).pixels
    assert _live_children() - before == set()


def test_parallel_process_pool_path_with_lanes_split_mid_row():
    w, h = 1021, 263
    assert w * h >= sobel._PROCESS_LANES_MIN_PIXELS
    img = random_image(random.Random(14), w, h)
    expected = sobel_sequential(img).pixels
    # Seven lanes outnumber the lane processes on a small host; each
    # still writes only its own range of the shared output.
    for lanes in (3, 7):
        assert all(start % w for start, _ in lane_bounds(w * h, lanes)[1:])
        assert sobel_parallel(img, lanes).pixels == expected


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="lists processes through /proc")
def test_a_pooled_lane_that_raises_fails_the_call_and_leaves_nothing(monkeypatch):
    # The forked lanes inherit the patched kernel.
    def fail(job):
        raise RuntimeError("lane failed")

    monkeypatch.setattr(sobel, "_run_lane", fail)
    buffers = []
    new_mmap = mmap.mmap
    monkeypatch.setattr(mmap, "mmap", lambda *args: buffers.append(new_mmap(*args)) or buffers[-1])
    img = random_image(random.Random(15), 512, 512)
    before = _live_children()
    with pytest.raises(RuntimeError, match="lane failed"):
        sobel_parallel(img, 2)
    assert _live_children() - before == set()
    [buffer] = buffers
    assert buffer.closed


def test_magnitude_table_with_the_clamp_is_the_integer_rule():
    # Every sum of squares a 3x3 neighborhood of bytes can give.
    limit = 2 * 1020 * 1020
    expected = np.frombuffer(bytes(min(_round_half_up_sqrt(s), 255) for s in range(limit + 1)), np.uint8)
    sy = np.arange(-1020, 1021)
    clamped_sy = np.minimum(np.abs(sy), 255)
    for sx in range(-1020, 1021):
        index = (min(abs(sx), 255) << 8) | clamped_sy
        assert np.array_equal(sobel._MAGNITUDE[index], expected[sx * sx + sy * sy]), sx


def test_lane_bounds_partition():
    for total in (0, 1, 5, 24, 100):
        for lanes in (1, 2, 3, 7, 24):
            bounds = lane_bounds(total, lanes)
            assert bounds[0][0] == 0 and bounds[-1][1] == total
            for (s0, e0), (s1, e1) in zip(bounds, bounds[1:]):
                assert e0 == s1


def test_invalid_lane_count():
    with pytest.raises(ValueError):
        sobel_parallel(GrayImage(1, 1, b"\x00"), 0)


@given(images)
@settings(max_examples=40, deadline=None)
def test_inversion_invariance(img):
    inverted = GrayImage(img.width, img.height, bytes(255 - p for p in img.pixels))
    assert sobel_sequential(inverted).pixels == sobel_sequential(img).pixels


@given(images)
@settings(max_examples=40, deadline=None)
def test_translation_covariance_on_interior(img):
    w, h = img.width, img.height
    if w < 4 or h < 3:
        return
    # shift content one pixel right; compare interiors away from all borders
    shifted_rows = []
    for y in range(h):
        row = img.pixels[y * w : (y + 1) * w]
        shifted_rows.append(row[:1] + row[:-1])
    shifted = GrayImage(w, h, b"".join(shifted_rows))
    out = sobel_sequential(img).pixels
    out_shifted = sobel_sequential(shifted).pixels
    for y in range(1, h - 1):
        for x in range(1, w - 2):
            assert out_shifted[y * w + x + 1] == out[y * w + x]


@given(images)
@settings(max_examples=40, deadline=None)
def test_output_in_byte_range(img):
    out = sobel_sequential(img)
    assert len(out.pixels) == img.width * img.height
    assert all(0 <= p <= 255 for p in out.pixels)
