import math

import numpy as np
import pytest

from faceseg.geometry import (
    BBox,
    FracRect,
    ImageMeta,
    SegmentCatalog,
    SEGMENT_IDS,
    PROPOSAL_SEGMENTS,
    face_from_segment,
    segment_from_face,
)

CATALOG = SegmentCatalog.default()


def test_segment_ids_are_fourteen_unique():
    assert len(SEGMENT_IDS) == 14
    assert len(set(SEGMENT_IDS)) == 14


def test_proposal_set_is_the_nine_segment_selector():
    assert set(PROPOSAL_SEGMENTS) == {"NS", "EP", "UL34", "UR34", "U12", "L34", "UL12", "R12", "L12"}


def test_half_and_three_fourth_fractions_are_exact():
    assert CATALOG["L12"].as_tuple() == (0.0, 0.0, 0.5, 1.0)
    assert CATALOG["U34"].as_tuple() == (0.0, 0.0, 1.0, 0.75)
    assert CATALOG["B12"].as_tuple() == (0.0, 0.5, 1.0, 1.0)
    assert CATALOG["U12"].as_tuple() == (0.0, 0.0, 1.0, 0.5)


def test_default_interior_patches():
    assert CATALOG["NS"].as_tuple() == (0.35, 0.40, 0.65, 0.75)
    assert CATALOG["EP"].as_tuple() == (0.125, 0.25, 0.875, 0.50)


def test_catalog_requires_all_segments():
    partial = {seg: FracRect(0, 0, 0.5, 0.5) for seg in SEGMENT_IDS[:5]}
    with pytest.raises(ValueError):
        SegmentCatalog(partial)


def test_catalog_dict_round_trip():
    table = CATALOG.to_dict()
    again = SegmentCatalog.from_dict(table)
    for seg in SEGMENT_IDS:
        assert again[seg] == CATALOG[seg]


def test_fracrect_rejects_bad_order():
    with pytest.raises(ValueError):
        FracRect(0.5, 0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        FracRect(0.0, 0.0, 1.1, 1.0)


def test_segment_from_face_upper_half():
    box = segment_from_face("U12", BBox(0, 0, 100, 100), CATALOG)
    assert box.as_tuple() == (0.0, 0.0, 100.0, 50.0)


def test_segment_from_face_fraction_arithmetic():
    # L34 of (20,20,120,120): x2' = 20 + 0.75 * 100 = 95
    box = segment_from_face("L34", BBox(20, 20, 120, 120), CATALOG)
    assert box.as_tuple() == (20.0, 20.0, 95.0, 120.0)


def test_full_face_fracrect_is_identity():
    cat = SegmentCatalog.from_dict({**CATALOG.to_dict(), "NS": [0.0, 0.0, 1.0, 1.0]})
    face = BBox(3.5, 7.25, 40.0, 61.5)
    assert segment_from_face("NS", face, cat) == face


def test_face_from_segment_matches_l12_closed_form():
    # Inverse of a left-half detection uses the closed form
    # face = (x1, y1, min(w_img, x2 + (x2 - x1)), y2),
    # center = (x2, y1 + (y2 - y1) / 2).
    img = ImageMeta(200, 200)
    face, center = face_from_segment("L12", BBox(10, 20, 50, 100), img, CATALOG)
    assert face.as_tuple() == (10.0, 20.0, 90.0, 100.0)
    assert center == (50.0, 60.0)


def test_face_from_segment_u12_doubles_height():
    img = ImageMeta(200, 200)
    face, center = face_from_segment("U12", BBox(0, 0, 100, 50), img, CATALOG)
    assert face.as_tuple() == (0.0, 0.0, 100.0, 100.0)
    assert center == (50.0, 50.0)


def test_face_from_segment_identity_rect():
    cat = SegmentCatalog.from_dict({**CATALOG.to_dict(), "NS": [0.0, 0.0, 1.0, 1.0]})
    face, center = face_from_segment("NS", BBox(5, 5, 9, 9), ImageMeta(20, 20), cat)
    assert face.as_tuple() == (5.0, 5.0, 9.0, 9.0)
    assert center == (7.0, 7.0)


def test_face_from_segment_rejects_degenerate():
    img = ImageMeta(100, 100)
    with pytest.raises(ValueError):
        face_from_segment("NS", BBox(10, 10, 10, 40), img, CATALOG)
    # fully outside the image clips to zero size
    with pytest.raises(ValueError):
        face_from_segment("NS", BBox(200, 200, 250, 250), img, CATALOG)


def test_l12_closed_form_on_random_boxes():
    rng = np.random.default_rng(7)
    img = ImageMeta(400, 300)
    for _ in range(1000):
        x1, y1 = rng.uniform(0, 350), rng.uniform(0, 250)
        w, h = rng.uniform(1, 45), rng.uniform(1, 45)
        det = BBox(x1, y1, x1 + w, y1 + h)
        face, center = face_from_segment("L12", det, img, CATALOG)
        expected = BBox(det.x1, det.y1, min(img.width, det.x2 + (det.x2 - det.x1)), det.y2)
        assert face == expected
        assert center == (det.x2, det.y1 + (det.y2 - det.y1) / 2.0)


def test_round_trip_all_segments():
    rng = np.random.default_rng(11)
    img = ImageMeta(1000, 1000)
    for _ in range(200):
        x1, y1 = rng.uniform(50, 400), rng.uniform(50, 400)
        w, h = rng.uniform(20, 300), rng.uniform(20, 300)
        face = BBox(x1, y1, x1 + w, y1 + h)
        for seg in SEGMENT_IDS:
            det = segment_from_face(seg, face, CATALOG)
            est, center = face_from_segment(seg, det, img, CATALOG)
            for got, want in zip(est.as_tuple(), face.as_tuple()):
                assert abs(got - want) < 1e-9
            cx, cy = face.center
            assert abs(center[0] - cx) < 1e-9
            assert abs(center[1] - cy) < 1e-9


def test_clip_never_inverts():
    rng = np.random.default_rng(3)
    for _ in range(500):
        vals = rng.uniform(-50, 150, size=4)
        box = BBox(min(vals[0], vals[2]), min(vals[1], vals[3]),
                   max(vals[0], vals[2]), max(vals[1], vals[3]))
        clipped = box.clip(100, 100)
        assert clipped.x1 <= clipped.x2
        assert clipped.y1 <= clipped.y2


def test_scaling_detection_scales_estimated_face_about_same_center():
    # Use a huge image so the clipped estimate equals the raw estimate.
    img = ImageMeta(10**6, 10**6)
    rng = np.random.default_rng(5)
    for _ in range(100):
        seg = SEGMENT_IDS[rng.integers(len(SEGMENT_IDS))]
        x1, y1 = rng.uniform(2000, 4000, 2)
        w, h = rng.uniform(10, 200, 2)
        det = BBox(x1, y1, x1 + w, y1 + h)
        s = rng.uniform(0.3, 3.0)
        face0, _ = face_from_segment(seg, det, img, CATALOG)
        face1, _ = face_from_segment(seg, det.scale_about_center(s), img, CATALOG)
        cx, cy = det.center
        expected = BBox(cx - s * (cx - face0.x1), cy - s * (cy - face0.y1),
                        cx + s * (face0.x2 - cx), cy + s * (face0.y2 - cy))
        for got, want in zip(face1.as_tuple(), expected.as_tuple()):
            assert got == pytest.approx(want, abs=1e-6)


def test_bbox_validate_rejects_inverted_and_nonfinite():
    with pytest.raises(ValueError):
        BBox(5, 0, 1, 10).validate()
    with pytest.raises(ValueError):
        BBox(0, 0, math.nan, 10).validate()
