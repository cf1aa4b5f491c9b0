"""Shared raster helpers: bilinear sampling, resizing, blur, gradient histograms.

Images are 2-d float64 arrays in [0, 1], indexed [row, col] with y growing down.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import gaussian_filter

from faceseg.geometry import BBox


def bilinear_resize(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize by bilinear interpolation over pixel centers (aspect-distorting)."""
    h, w = image.shape
    return sample_rect(image, BBox(0.0, 0.0, float(w), float(h)), out_h, out_w)


def sample_rect(image: np.ndarray, box: BBox, out_h: int, out_w: int) -> np.ndarray:
    """Bilinearly sample an ``out_h x out_w`` grid spanning ``box``.

    Sample points are the centers of a regular grid over the box; coordinates
    outside the image are clamped to the border.  A degenerate box yields a
    constant patch.
    """
    h, w = image.shape
    xs = box.x1 + (np.arange(out_w) + 0.5) * (box.width / out_w)
    ys = box.y1 + (np.arange(out_h) + 0.5) * (box.height / out_h)
    # to pixel-center coordinates, clamped inside the raster
    xs = np.clip(xs - 0.5, 0.0, w - 1.0)
    ys = np.clip(ys - 0.5, 0.0, h - 1.0)
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = (xs - x0)[None, :]
    fy = (ys - y0)[:, None]
    top = image[y0[:, None], x0[None, :]] * (1 - fx) + image[y0[:, None], x1[None, :]] * fx
    bot = image[y1[:, None], x0[None, :]] * (1 - fx) + image[y1[:, None], x1[None, :]] * fx
    return top * (1 - fy) + bot * fy


def gaussian_blur(image: np.ndarray, radius: float) -> np.ndarray:
    """Gaussian blur with standard deviation ``radius`` pixels; 0 is identity."""
    if radius <= 0.0:
        return image.copy()
    return gaussian_filter(image, sigma=radius, mode="nearest")


def hog_features(patch: np.ndarray, cells: int = 4, bins: int = 9) -> np.ndarray:
    """Gradient-orientation-histogram descriptor of a square patch.

    Unsigned orientations in ``bins`` bins, a ``cells x cells`` cell grid,
    L2-normalized over 2x2 cell blocks (stride 1); output length is
    (cells-1)^2 * 4 * bins.
    """
    gy, gx = np.gradient(patch)
    mag = np.hypot(gx, gy)
    ang = np.mod(np.arctan2(gy, gx), np.pi)
    bin_idx = np.minimum((ang / (np.pi / bins)).astype(np.intp), bins - 1)

    h, w = patch.shape
    cy = np.minimum((np.arange(h) * cells) // h, cells - 1)
    cx = np.minimum((np.arange(w) * cells) // w, cells - 1)
    hist = np.zeros((cells, cells, bins))
    np.add.at(hist, (cy[:, None].repeat(w, 1), cx[None, :].repeat(h, 0), bin_idx), mag)

    blocks = []
    for by in range(cells - 1):
        for bx in range(cells - 1):
            block = hist[by:by + 2, bx:bx + 2].ravel()
            blocks.append(block / (np.linalg.norm(block) + 1e-9))
    return np.concatenate(blocks)


HOG_DIM = 3 * 3 * 4 * 9  # 4x4 cells, 2x2 blocks stride 1, 9 bins


def write_pgm(path, image: np.ndarray) -> None:
    """Write a [0,1] float image as binary 8-bit PGM (P5)."""
    h, w = image.shape
    data = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary 8-bit PGM back into a [0,1] float image.

    The header's four fields may span lines, and ``#`` starts a comment that
    runs to the end of its line, as netpbm allows; the pixels follow the
    newline that ends the maxval's line.
    """
    with open(path, "rb") as fh:
        fields: list[bytes] = []
        while len(fields) < 4 and (line := fh.readline()):
            fields += line.split(b"#", 1)[0].split()
        if fields[:1] != [b"P5"] or len(fields) < 4 or not all(f.isdigit() for f in fields[1:4]):
            raise ValueError(f"{path}: not a binary PGM header ({b' '.join(fields)[:40]!r})")
        w, h, maxval = (int(f) for f in fields[1:4])
        if maxval != 255:
            raise ValueError(f"{path}: unsupported maxval {maxval}")
        data = fh.read(w * h)
    if len(data) != w * h:
        raise ValueError(f"{path}: expected {w * h} pixel bytes for {w}x{h}, got {len(data)}")
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w).astype(np.float64) / 255.0
