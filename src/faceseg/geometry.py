"""Facial-segment geometry: the 14-segment catalog and face <-> segment box mappings.

Every segment is a fixed fractional rectangle of a canonical face, so a full
face box determines all segment boxes (forward mapping) and any single
segment detection determines an estimated full-face box (inverse mapping).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Canonical ordering of all 14 facial segments.
SEGMENT_IDS = (
    "EP", "UL12", "U12", "UR12", "UL34", "U34", "UR34",
    "L12", "L34", "NS", "R34", "R12", "B34", "B12",
)

# The 9 segments driven by the simulated detectors / proposal pipeline.
PROPOSAL_SEGMENTS = ("NS", "EP", "UL34", "UR34", "U12", "L34", "UL12", "R12", "L12")

# Identity swaps under horizontal mirroring; unlisted segments are symmetric.
FLIP_PAIRS = {
    "L12": "R12", "R12": "L12",
    "L34": "R34", "R34": "L34",
    "UL12": "UR12", "UR12": "UL12",
    "UL34": "UR34", "UR34": "UL34",
}


@dataclass(frozen=True)
class BBox:
    """Axis-aligned rectangle in continuous pixel coordinates (y grows down).

    Construction performs no validation: predicted boxes are allowed to have
    x1 > x2 / y1 > y2 until a loss penalizes them.  Call ``validate`` before
    geometric use.
    """

    x1: float
    y1: float
    x2: float
    y2: float

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return ((self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0)

    def is_valid(self) -> bool:
        return self.x1 <= self.x2 and self.y1 <= self.y2

    def validate(self) -> "BBox":
        if not all(math.isfinite(v) for v in self.as_tuple()):
            raise ValueError(f"non-finite box {self}")
        if not self.is_valid():
            raise ValueError(f"invalid box ordering {self}")
        return self

    def clip(self, width: float, height: float) -> "BBox":
        """Clip to [0, width] x [0, height]; never produces x1 > x2."""
        x1 = min(max(self.x1, 0.0), width)
        x2 = min(max(self.x2, 0.0), width)
        y1 = min(max(self.y1, 0.0), height)
        y2 = min(max(self.y2, 0.0), height)
        return BBox(x1, y1, x2, y2)

    def translate(self, dx: float, dy: float) -> "BBox":
        return BBox(self.x1 + dx, self.y1 + dy, self.x2 + dx, self.y2 + dy)

    def scale_about_center(self, s: float) -> "BBox":
        cx, cy = self.center
        hw, hh = self.width * s / 2.0, self.height * s / 2.0
        return BBox(cx - hw, cy - hh, cx + hw, cy + hh)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


@dataclass(frozen=True)
class FracRect:
    """Unitless sub-rectangle of the canonical face, coordinates in [0, 1]."""

    fx1: float
    fy1: float
    fx2: float
    fy2: float

    def __post_init__(self):
        if not (0.0 <= self.fx1 < self.fx2 <= 1.0 and 0.0 <= self.fy1 < self.fy2 <= 1.0):
            raise ValueError(f"fractions out of order or range: {self}")

    def contains(self, other: "FracRect", tol: float = 1e-9) -> bool:
        return (self.fx1 <= other.fx1 + tol and self.fy1 <= other.fy1 + tol
                and self.fx2 >= other.fx2 - tol and self.fy2 >= other.fy2 - tol)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.fx1, self.fy1, self.fx2, self.fy2)


@dataclass(frozen=True)
class ImageMeta:
    """Pixel dimensions of a source image."""

    width: int
    height: int

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"image dimensions must be positive: {self.width}x{self.height}")


# Half/three-fourth segments are forced by their names; EP and NS are interior
# patches whose exact fractions are catalog configuration, not contract.
_DEFAULT_FRACTIONS = {
    "EP": (0.125, 0.25, 0.875, 0.50),
    "UL12": (0.0, 0.0, 0.5, 0.5),
    "U12": (0.0, 0.0, 1.0, 0.5),
    "UR12": (0.5, 0.0, 1.0, 0.5),
    "UL34": (0.0, 0.0, 0.75, 0.75),
    "U34": (0.0, 0.0, 1.0, 0.75),
    "UR34": (0.25, 0.0, 1.0, 0.75),
    "L12": (0.0, 0.0, 0.5, 1.0),
    "L34": (0.0, 0.0, 0.75, 1.0),
    "NS": (0.35, 0.40, 0.65, 0.75),
    "R34": (0.25, 0.0, 1.0, 1.0),
    "R12": (0.5, 0.0, 1.0, 1.0),
    "B34": (0.0, 0.25, 1.0, 1.0),
    "B12": (0.0, 0.5, 1.0, 1.0),
}


class SegmentCatalog:
    """Maps each of the 14 segment ids to its fractional rectangle."""

    def __init__(self, fractions: dict[str, FracRect]):
        missing = set(SEGMENT_IDS) - set(fractions)
        extra = set(fractions) - set(SEGMENT_IDS)
        if missing or extra:
            raise ValueError(f"catalog must cover exactly the 14 segments "
                             f"(missing={sorted(missing)}, extra={sorted(extra)})")
        self._fractions = dict(fractions)

    @classmethod
    def default(cls) -> "SegmentCatalog":
        return cls({k: FracRect(*v) for k, v in _DEFAULT_FRACTIONS.items()})

    def __getitem__(self, seg: str) -> FracRect:
        return self._fractions[seg]

    @property
    def proposal_segments(self) -> tuple[str, ...]:
        return PROPOSAL_SEGMENTS

    def to_dict(self) -> dict[str, list[float]]:
        return {seg: list(self._fractions[seg].as_tuple()) for seg in SEGMENT_IDS}

    @classmethod
    def from_dict(cls, table: dict[str, list[float]]) -> "SegmentCatalog":
        return cls({seg: FracRect(*vals) for seg, vals in table.items()})


def segment_from_face(seg: str, face: BBox, catalog: SegmentCatalog) -> BBox:
    """Forward mapping: pixel box of a segment given the full-face box."""
    face.validate()
    fr = catalog[seg]
    w, h = face.width, face.height
    return BBox(
        face.x1 + fr.fx1 * w,
        face.y1 + fr.fy1 * h,
        face.x1 + fr.fx2 * w,
        face.y1 + fr.fy2 * h,
    )


def face_from_segment(seg: str, det: BBox, img: ImageMeta,
                      catalog: SegmentCatalog) -> tuple[BBox, tuple[float, float]]:
    """Inverse mapping: estimated full-face box and center from one detection.

    The detection is clipped to the image before inversion; the returned face
    box is clipped to the image, but the center is taken from the unclipped
    estimate.

    Returns
    -------
    (face, center) : clipped estimated face box and unclipped face center.
    """
    det = det.validate().clip(img.width, img.height)
    if det.width <= 0.0 or det.height <= 0.0:
        raise ValueError(f"degenerate segment detection for {seg}: {det}")
    fr = catalog[seg]
    face_w = det.width / (fr.fx2 - fr.fx1)
    face_h = det.height / (fr.fy2 - fr.fy1)
    # Anchor each face edge at the nearest detection edge so that segments
    # flush with a face border (fx1 = 0, fx2 = 1, ...) invert with zero
    # rounding error; the L12 path then reproduces
    # (x1, y1, min(w_img, x2 + (x2 - x1)), y2) bit-for-bit.
    face = BBox(
        det.x1 - fr.fx1 * face_w,
        det.y1 - fr.fy1 * face_h,
        det.x2 + (1.0 - fr.fx2) * face_w,
        det.y2 + (1.0 - fr.fy2) * face_h,
    )
    tx = (0.5 - fr.fx1) / (fr.fx2 - fr.fx1)
    ty = (0.5 - fr.fy1) / (fr.fy2 - fr.fy1)
    center = ((1.0 - tx) * det.x1 + tx * det.x2,
              det.y1 + ty * (det.y2 - det.y1))
    return face.clip(img.width, img.height), center
