"""Face proposal generation: cluster segment detections by estimated face
center, then enumerate bounded random subsets of each cluster.

Every detection seeds a cluster of all detections whose estimated face
centers fall within radius r; each cluster yields up to zeta proposals, each
a subset containing the seed with at least c members, whose bounding box is
the envelope of the members' estimated faces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations

import numpy as np

from faceseg.geometry import BBox, ImageMeta, SegmentCatalog, face_from_segment

# exhaustive subset enumeration is exact up to this family size; beyond it,
# subsets are rejection-sampled
_EXHAUSTIVE_LIMIT = 512


@dataclass(frozen=True)
class SegmentDetection:
    """One segment detection with its implied full-face estimate."""

    seg: str
    box: BBox
    est_face: BBox
    est_center: tuple[float, float]

    @classmethod
    def from_box(cls, seg: str, box: BBox, img: ImageMeta,
                 catalog: SegmentCatalog) -> "SegmentDetection":
        face, center = face_from_segment(seg, box, img, catalog)
        return cls(seg=seg, box=box, est_face=face, est_center=center)

    def key(self):
        return (self.seg, self.box.as_tuple())


@dataclass
class Cluster:
    """Detections whose estimated centers lie within r of the seed's center.

    ``anchor`` indexes the seed in the (deduplicated) detection list passed
    to ``cluster_detections``; ``members[0]`` is always the seed itself.
    """

    anchor: int
    members: list[SegmentDetection]


@dataclass(frozen=True)
class Proposal:
    """A nonempty co-located segment subset plus its enclosing face box."""

    segments: tuple[SegmentDetection, ...]
    bbox: BBox

    def tags(self) -> tuple[str, ...]:
        return self._tags

    @cached_property
    def _tags(self) -> tuple[str, ...]:
        # sorted once per proposal: priors look the identity up per proposal
        return tuple(sorted(d.seg for d in self.segments))

    def key(self):
        return (tuple(sorted(d.key() for d in self.segments)), self.bbox.as_tuple())


@dataclass
class ProposalConfig:
    """r: cluster radius (px); c: min segments per proposal; zeta: proposal cap
    per cluster (None = unbounded); seed drives subset sampling."""

    r: float = 25.0
    c: int = 2
    zeta: int | None = 10
    seed: int = 0

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError("cluster radius must be positive")
        if self.c < 1:
            raise ValueError("minimum segment count must be >= 1")
        if self.zeta is not None and self.zeta < 1:
            raise ValueError("zeta must be >= 1 (or None for unbounded)")


def default_radius(img: ImageMeta) -> float:
    return 0.2 * min(img.width, img.height)


def cluster_detections(dets: list[SegmentDetection], cfg: ProposalConfig) -> list[Cluster]:
    """One cluster per seed detection; identical member sets are deduplicated."""
    unique: list[SegmentDetection] = []
    seen = set()
    for d in dets:
        if d.key() not in seen:
            seen.add(d.key())
            unique.append(d)
    if not unique:
        return []

    centers = np.array([d.est_center for d in unique])
    clusters: list[Cluster] = []
    member_sets = set()
    for i in range(len(unique)):
        dist = np.hypot(centers[:, 0] - centers[i, 0], centers[:, 1] - centers[i, 1])
        idx = [j for j in range(len(unique)) if dist[j] <= cfg.r]
        ident = frozenset(idx)
        if ident in member_sets:
            continue
        member_sets.add(ident)
        members = [unique[i]] + [unique[j] for j in idx if j != i]
        clusters.append(Cluster(anchor=i, members=members))
    return clusters


def _family_size(m: int, c: int) -> int:
    return sum(math.comb(m, j) for j in range(max(c - 1, 0), m + 1))


def enumerate_subsets(cluster: Cluster, cfg: ProposalConfig) -> list[Proposal]:
    """Anchor-fixed subsets of the cluster, at most zeta of them.

    The family is every subset that contains the anchor and has at least c
    members; small families are enumerated exhaustively and sampled without
    replacement, large ones are rejection-sampled.  Deterministic under the
    seed.
    """
    anchor, others = cluster.members[0], cluster.members[1:]
    m = len(others)
    if len(cluster.members) < cfg.c:
        return []
    rng = np.random.default_rng(cfg.seed)
    min_j = max(cfg.c - 1, 0)
    size = _family_size(m, cfg.c)

    chosen: list[tuple[int, ...]] = []
    if size <= _EXHAUSTIVE_LIMIT:
        family: list[tuple[int, ...]] = []
        for j in range(min_j, m + 1):
            family.extend(combinations(range(m), j))
        if cfg.zeta is None or cfg.zeta >= size:
            chosen = family
        else:
            picks = np.sort(rng.choice(size, size=cfg.zeta, replace=False))
            chosen = [family[k] for k in picks]
    else:
        want = size if cfg.zeta is None else min(cfg.zeta, size)
        seen = set()
        attempts = 0
        while len(chosen) < want and attempts < 64 * max(want, 1):
            attempts += 1
            mask = rng.random(m) < 0.5
            subset = tuple(np.flatnonzero(mask))
            if len(subset) >= min_j and subset not in seen:
                seen.add(subset)
                chosen.append(subset)

    proposals = []
    for subset in chosen:
        members = (anchor,) + tuple(others[j] for j in subset)
        proposals.append(Proposal(segments=members, bbox=proposal_bbox(members)))
    return proposals


def proposal_bbox(members) -> BBox:
    """Envelope of the members' estimated face boxes."""
    if not members:
        raise ValueError("proposal needs at least one member")
    faces = [d.est_face for d in members]
    return BBox(min(f.x1 for f in faces), min(f.y1 for f in faces),
                max(f.x2 for f in faces), max(f.y2 for f in faces))


def generate_proposals(dets: list[SegmentDetection],
                       cfg: ProposalConfig) -> list[tuple[int, Proposal]]:
    """Full per-image pipeline: cluster, enumerate, and deduplicate exact
    repeats across clusters.  Returns (cluster_index, proposal) pairs."""
    clusters = cluster_detections(dets, cfg)
    out: list[tuple[int, Proposal]] = []
    seen = set()
    for ci, cluster in enumerate(clusters):
        sub_seed = int(np.random.SeedSequence((cfg.seed, ci)).generate_state(1)[0])
        for p in enumerate_subsets(cluster, replace(cfg, seed=sub_seed)):
            if p.key() in seen:
                continue
            seen.add(p.key())
            out.append((ci, p))
    return out


def proposal_to_record(image_id: str, cluster_id: int, p: Proposal) -> dict:
    """JSON-lines record for one proposal."""
    return {
        "image_id": image_id,
        "cluster_id": cluster_id,
        "segments": [{"seg": d.seg, "box": list(d.box.as_tuple())} for d in p.segments],
        "bbox": list(p.bbox.as_tuple()),
    }


def proposal_from_record(rec: dict, img: ImageMeta,
                         catalog: SegmentCatalog) -> tuple[str, int, Proposal]:
    members = tuple(
        SegmentDetection.from_box(s["seg"], BBox(*s["box"]), img, catalog)
        for s in rec["segments"]
    )
    return rec["image_id"], rec["cluster_id"], Proposal(segments=members,
                                                        bbox=BBox(*rec["bbox"]))
