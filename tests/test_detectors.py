import numpy as np
import pytest

from faceseg import nn
from faceseg.detectors import (
    LinearModel,
    MultiColumnNet,
    SegmentScorerBank,
    fsfd_score,
    hinge_loss,
    load_deepsegface,
    load_fsfd,
    load_segface,
    save_deepsegface,
    save_fsfd,
    save_segface,
    segface_features,
    train_linear,
)
from faceseg.geometry import BBox, ImageMeta, SegmentCatalog, PROPOSAL_SEGMENTS
from faceseg.imageops import HOG_DIM
from faceseg.priors import fit_priors, prior_features
from faceseg.proposals import Proposal, SegmentDetection, proposal_bbox

CATALOG = SegmentCatalog.default()
IMG = ImageMeta(10**6, 10**6)


def make_proposal(tags, offset=0.0):
    dets = []
    for i, seg in enumerate(tags):
        x = 100 + offset + 3 * i
        box = BBox(x, 100, x + 30, 140)
        dets.append(SegmentDetection.from_box(seg, box, IMG, CATALOG))
    return Proposal(segments=tuple(dets), bbox=proposal_bbox(dets))


def fitted_table():
    labeled = [(make_proposal(["NS", "EP"]), True),
               (make_proposal(["NS", "L12", "EP"]), True),
               (make_proposal(["U12"]), False),
               (make_proposal(["R12"]), False)]
    return fit_priors(labeled)


def test_train_linear_separable_reaches_zero_hinge():
    X = np.array([[2.0, 0.0], [-2.0, 0.0]])
    y = np.array([1.0, -1.0])
    m = train_linear(X, y, epochs=200, step=0.5, penalty=1e-5, seed=0)
    assert hinge_loss(m, X, y) == pytest.approx(0.0, abs=1e-6)


def test_train_linear_xor_stays_positive():
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    m = train_linear(X, y, epochs=100, seed=0)
    assert hinge_loss(m, X, y) > 0.1


def test_train_linear_deterministic():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 5))
    y = np.sign(X[:, 0] + 0.1)
    a = train_linear(X, y, seed=7)
    b = train_linear(X, y, seed=7)
    assert np.array_equal(a.w, b.w) and a.b == b.b


def test_train_linear_rejects_single_class():
    X = np.ones((3, 2))
    with pytest.raises(ValueError):
        train_linear(X, np.ones(3))


def test_fsfd_score_bias_cases():
    table = fitted_table()
    p = make_proposal(["NS", "EP"])
    dim = table.feature_dim()
    m = LinearModel(w=np.zeros(dim), b=0.375)
    assert fsfd_score(p, table, m) == 0.375


def test_fsfd_score_matches_dot_product_oracle():
    table = fitted_table()
    rng = np.random.default_rng(1)
    m = LinearModel(w=rng.standard_normal(table.feature_dim()), b=0.2)
    proposals = [make_proposal(["NS", "EP"]), make_proposal(["U12"]),
                 make_proposal(["NS", "L12", "EP"]), make_proposal(["R12"]),
                 make_proposal(["NS"])]
    scores = [fsfd_score(p, table, m) for p in proposals]
    oracle = [float(m.w @ prior_features(p, table) + m.b) for p in proposals]
    assert scores == oracle
    assert int(np.argmax(scores)) == int(np.argmax(oracle))


def test_fsfd_dimension_mismatch():
    table = fitted_table()
    m = LinearModel(w=np.zeros(5), b=0.0)
    with pytest.raises(ValueError):
        fsfd_score(make_proposal(["NS"]), table, m)


def random_bank(seed=0):
    rng = np.random.default_rng(seed)
    return SegmentScorerBank(models={
        seg: LinearModel(w=rng.standard_normal(HOG_DIM) * 0.1, b=0.0)
        for seg in PROPOSAL_SEGMENTS
    })


def test_segface_features_shape_and_zeroing():
    table = fitted_table()
    bank = random_bank()
    rng = np.random.default_rng(2)
    image = rng.uniform(0, 1, (256, 256))
    p = make_proposal(["NS", "EP"])
    f = segface_features(p, image, bank, table)
    assert f.shape == (3 * 9 + 2,) == (29,)
    present = {d.seg for d in p.segments}
    for i, seg in enumerate(table.segments):
        if seg not in present:
            assert f[i] == 0.0
    # prior tail matches the prior feature vector exactly
    assert np.array_equal(f[9:], prior_features(p, table))


def test_segface_features_pure():
    table = fitted_table()
    bank = random_bank()
    rng = np.random.default_rng(3)
    image = rng.uniform(0, 1, (256, 256))
    p = make_proposal(["NS", "L12", "EP"])
    a = segface_features(p, image, bank, table)
    b = segface_features(p, image, bank, table)
    assert np.array_equal(a, b)


def small_image_proposal(tags, seed=4):
    # disjoint detection boxes so zeroing one segment's pixels leaves the rest intact
    rng = np.random.default_rng(seed)
    image = rng.uniform(0.1, 0.9, (64, 64))
    slots = [BBox(4, 4, 26, 26), BBox(34, 34, 60, 60), BBox(34, 4, 60, 26)]
    dets = [SegmentDetection.from_box(seg, slots[i], ImageMeta(64, 64), CATALOG)
            for i, seg in enumerate(tags)]
    return image, Proposal(segments=tuple(dets), bbox=proposal_bbox(dets))


def face_prob(net, p, image):
    """Face-class probability of one proposal through the network's forward."""
    probs, _, _ = net.forward(net.patches_for(p, image)[None])
    return float(probs[0])


def test_deepsegface_softmax_sums_to_one():
    net = MultiColumnNet.init(seed=0)
    image, p = small_image_proposal(["NS", "EP"])
    patches = net.patches_for(p, image)[None]
    _, logits, _ = net.forward(patches)
    probs = nn.softmax(logits)
    assert probs.sum() == pytest.approx(1.0, abs=1e-6)
    prob = face_prob(net, p, image)
    assert 0.0 < prob < 1.0


def test_deepsegface_missing_equals_zeroed_pixels():
    net = MultiColumnNet.init(seed=1)
    image, p_with = small_image_proposal(["NS", "EP"])
    p_without = Proposal(segments=(p_with.segments[0],), bbox=p_with.bbox)
    # zero out EP's source pixels (with a margin for bilinear support)
    ep_box = p_with.segments[1].box
    zeroed = image.copy()
    zeroed[int(ep_box.y1) - 1:int(ep_box.y2) + 1, int(ep_box.x1) - 1:int(ep_box.x2) + 1] = 0.0
    assert face_prob(net, p_without, image) == face_prob(net, p_with, zeroed)


def test_deepsegface_sensitive_to_present_invariant_to_absent():
    net = MultiColumnNet.init(seed=2)
    image, p = small_image_proposal(["NS", "EP"])
    base = face_prob(net, p, image)
    rng = np.random.default_rng(5)
    # permute pixels inside a present segment: probability changes
    shuffled = image.copy()
    box = p.segments[0].box
    sl = shuffled[int(box.y1):int(box.y2), int(box.x1):int(box.x2)]
    perm = rng.permutation(sl.ravel()).reshape(sl.shape)
    shuffled[int(box.y1):int(box.y2), int(box.x1):int(box.x2)] = perm
    assert face_prob(net, p, shuffled) != base
    # change pixels far from every present segment: probability identical
    altered = image.copy()
    altered[2:20, 36:58] = rng.uniform(0, 1, (18, 22))
    assert face_prob(net, p, altered) == base


def test_deepsegface_end_to_end_gradient_spotcheck():
    net = MultiColumnNet.init(seed=3)
    rng = np.random.default_rng(6)
    patches = rng.uniform(0, 1, (2, 9, 32, 32))
    labels = np.array([1, 0])

    def loss():
        _, logits, _ = net.forward(patches)
        l, _ = nn.softmax_ce(logits, labels)
        return l

    _, logits, cache = net.forward(patches, want_cache=True)
    _, dlogits = nn.softmax_ce(logits, labels)
    grads = net.backward(dlogits, cache)
    h = 1e-6
    for name in ("out_w", "head_w", "col0_w2", "col3_w1", "col8_wr"):
        arr = net.params[name]
        flat_idx = rng.integers(arr.size, size=3)
        for j in flat_idx:
            old = arr.flat[j]
            arr.flat[j] = old + h
            up = loss()
            arr.flat[j] = old - h
            dn = loss()
            arr.flat[j] = old
            num = (up - dn) / (2 * h)
            assert grads[name].flat[j] == pytest.approx(num, rel=1e-4, abs=1e-7)


def test_model_containers_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    fsfd = LinearModel(w=rng.standard_normal(20), b=0.5)
    save_fsfd(tmp_path / "fsfd.json", fsfd)
    again = load_fsfd(tmp_path / "fsfd.json")
    assert np.array_equal(again.w, fsfd.w) and again.b == fsfd.b

    bank = random_bank()
    master = LinearModel(w=rng.standard_normal(29), b=-0.25)
    save_segface(tmp_path / "segface.json", bank, master)
    bank2, master2 = load_segface(tmp_path / "segface.json")
    assert np.array_equal(master2.w, master.w)
    for seg in bank.models:
        assert np.array_equal(bank2.models[seg].w, bank.models[seg].w)

    net = MultiColumnNet.init(seed=8)
    save_deepsegface(tmp_path / "dsf.json", net)
    net2 = load_deepsegface(tmp_path / "dsf.json")
    assert net2.segments == net.segments
    for k in net.params:
        assert np.array_equal(net2.params[k], net.params[k])

    with pytest.raises(ValueError):
        load_fsfd(tmp_path / "segface.json")
