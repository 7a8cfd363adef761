import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (
    cb_qp,
    perceptual_offset,
    temporal_offset_br,
    temporal_offset_g,
)
from spaqlab import qp_model
from spaqlab.qp_model import (
    CLAMP_SCOPES,
    build_qp_map,
    qp_to_qstep,
    round_half_away,
    spatial_offset,
    uniform_qp_map,
)

G_RANGE = (3.0, 6.0)
BR_RANGE = (6.0, 12.0)


def test_round_half_away():
    assert round_half_away(0.5) == 1
    assert round_half_away(-0.5) == -1
    assert round_half_away(2.5) == 3
    assert round_half_away(-2.5) == -3
    assert round_half_away(3.49) == 3
    assert round_half_away(-3.49) == -3
    assert round_half_away(0.0) == 0


def test_spatial_offset_values():
    assert spatial_offset(1.0) == 0
    assert spatial_offset(2.0) == 6
    assert spatial_offset(0.5) == -6
    assert spatial_offset(1.5) == 4  # 6*log2(1.5) = 3.5098 rounds to 4
    with pytest.raises(ValueError):
        spatial_offset(0.0)
    with pytest.raises(ValueError):
        spatial_offset(-1.0)


def test_perceptual_offset_examples():
    # neutral activity, no motion: raw 0 clamps up to the floor
    assert perceptual_offset(1.0, 0.0, *G_RANGE) == 3.0
    # 3 + round(3.51) = 7 clamps down to 6
    assert perceptual_offset(1.5, 3.0, *G_RANGE) == 6.0
    # both terms at maximum touch the upper bound exactly
    assert perceptual_offset(2.0, 6.0, *BR_RANGE) == 12.0


def test_perceptual_offset_term_scope():
    # alternate reading: the window clamps the spatial term only
    assert perceptual_offset(1.0, 0.0, *G_RANGE, scope="term") == 3.0
    assert perceptual_offset(1.0, 3.0, *G_RANGE, scope="term") == 6.0
    assert perceptual_offset(2.0, 6.0, *BR_RANGE, scope="term") == 12.0
    # and can exceed the window once t is added
    assert perceptual_offset(1.5, 3.0, *G_RANGE, scope="term") == 7.0


def test_offset_monotonicity():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        a1, a2 = sorted(rng.uniform(0.5, 2.0, 2))
        t = float(rng.choice([0.0, 3.0, 6.0]))
        assert perceptual_offset(a1, t, *BR_RANGE) <= perceptual_offset(
            a2, t, *BR_RANGE
        )
        a = float(rng.uniform(0.5, 2.0))
        t1, t2 = sorted(rng.uniform(0.0, 6.0, 2))
        assert perceptual_offset(a, t1, *G_RANGE) <= perceptual_offset(
            a, t2, *G_RANGE
        )


def test_channel_ordering():
    # with both temporal offsets triggered and equal activity, B/R is
    # quantized at least as coarsely as G
    rng = np.random.default_rng(1)
    for _ in range(500):
        a = float(rng.uniform(0.5, 2.0))
        dg = perceptual_offset(a, 3.0, *G_RANGE)
        dbr = perceptual_offset(a, 6.0, *BR_RANGE)
        assert dbr >= dg


def test_cb_qp_clamps():
    assert cb_qp(27, 6) == 33
    assert cb_qp(47, 12) == 51
    assert cb_qp(22, 3) == 25
    assert cb_qp(0, -5) == 0


def test_qstep_values():
    assert qp_to_qstep(4) == 1.0
    assert qp_to_qstep(22) == 8.0
    assert qp_to_qstep(28) == 16.0
    with pytest.raises(ValueError):
        qp_to_qstep(-1)
    with pytest.raises(ValueError):
        qp_to_qstep(52)
    with pytest.raises(ValueError, match="integers"):
        qp_to_qstep(27.5)


def test_qstep_doubles_every_six_qp_exactly():
    for q in range(0, 46):
        assert qp_to_qstep(q + 6) == 2.0 * qp_to_qstep(q)


def test_qstep_matches_exponential_law():
    for q in range(52):
        assert qp_to_qstep(q) == pytest.approx(2.0 ** ((q - 4) / 6.0), rel=1e-12)


def test_offset_ranges_over_random_inputs():
    rng = np.random.default_rng(2)
    for _ in range(5000):
        a = float(rng.uniform(0.5, 2.0))
        high = bool(rng.integers(0, 2))
        tg = 3.0 if high else 0.0
        tbr = 6.0 if high else 0.0
        dg = perceptual_offset(a, tg, *qp_model.G_RANGE)
        dbr = perceptual_offset(a, tbr, *qp_model.BR_RANGE)
        assert 3.0 <= dg <= 6.0
        assert 6.0 <= dbr <= 12.0


def test_uniform_map_is_flat():
    qmap = uniform_qp_map(27, 6)
    assert (qmap.qp == 27).all()
    assert (qmap.delta == 0).all()
    assert (qmap.qstep == qp_to_qstep(27)).all()
    assert qmap.qp.shape == (3, 6) and (qmap.raw == 0).all()
    for key in ("raw", "t", "delta", "qp"):
        assert getattr(qmap, key).dtype == np.int64, key
    # the array lookup equals qp_to_qstep on every legal QP
    for q in range(52):
        assert (uniform_qp_map(q, 3).qstep == qp_to_qstep(q)).all()
    # both builders reject the base QPs that qp_to_qstep rejects
    for bad in (27.5, 52, 60, -1, -10):
        for builder in (uniform_qp_map, build_qp_map):
            with pytest.raises(ValueError, match="integers"):
                builder(bad, 3)


@st.composite
def qp_map_inputs(draw):
    """A base QP, a clamp scope, activities and magnitudes (each possibly
    absent) and a mean magnitude that some magnitudes may equal."""
    n = draw(st.integers(1, 40))
    base = draw(st.integers(0, 51))
    scope = draw(st.sampled_from(CLAMP_SCOPES))
    act = draw(st.none() | arrays(np.float64, (3, n),
                                  elements=st.floats(0.5, 2.0)))
    mags = draw(st.none() | st.lists(st.floats(0.0, 64.0), min_size=n,
                                     max_size=n))
    vmean = 0.0
    if mags is not None:
        vmean = draw(st.sampled_from([float(np.mean(mags)), *mags]))
    return n, base, scope, act, mags, vmean


@settings(deadline=None, max_examples=300)
@given(qp_map_inputs())
def test_build_qp_map_never_decreases_qp(inputs):
    n, base, scope, act, mags, vmean = inputs
    qmap = build_qp_map(base, n, activity=act, magnitudes=mags,
                        mean_magnitude=vmean, scope=scope)
    assert (base <= qmap.qp).all() and (qmap.qp <= 51).all()
    # temporal offsets follow the strict threshold per PU
    high = np.zeros(n, bool) if mags is None else np.asarray(mags) > vmean
    offsets = np.array([[3.0], [6.0], [6.0]])
    assert (qmap.t == np.where(high, offsets, 0.0)).all()
    lo = np.array([[G_RANGE[0]], [BR_RANGE[0]], [BR_RANGE[0]]])
    hi = np.array([[G_RANGE[1]], [BR_RANGE[1]], [BR_RANGE[1]]])
    clamped = qmap.delta if scope == "total" else qmap.delta - qmap.t
    assert (lo <= clamped).all() and (clamped <= hi).all()


def test_build_qp_map_ablations():
    n = 4
    qmap = build_qp_map(22, n, activity=None, magnitudes=None)
    # no data at all: deltas sit on the window floors
    assert (qmap.delta[0] == 3.0).all()
    assert (qmap.delta[1] == 6.0).all()
    assert (qmap.qp[0] == 25.0).all()
    assert (qmap.qp[1] == 28.0).all()
    with pytest.raises(ValueError, match="clamp scope 'Total'"):
        build_qp_map(22, n, scope="Total")


def test_final_qp_cap_at_51():
    act = np.full((3, 2), 2.0)
    qmap = build_qp_map(47, 2, activity=act,
                        magnitudes=[9.0, 1.0], mean_magnitude=5.0)
    assert (qmap.qp <= 51.0).all()
    assert qmap.qp[1, 0] == 51.0  # 47 + 12 caps


def scalar_qp_map(base_qp, n, activity, magnitudes, vmean, scope):
    """Oracle: the per-entry scalar chain build_qp_map must reproduce."""
    ranges = (G_RANGE, BR_RANGE, BR_RANGE)
    offset_fns = (temporal_offset_g, temporal_offset_br, temporal_offset_br)
    out = {k: np.zeros((3, n)) for k in ("raw", "t", "delta", "qp", "qstep")}
    for ch in range(3):
        for cb in range(n):
            a = 1.0 if activity is None else float(activity[ch, cb])
            t = (0.0 if magnitudes is None
                 else offset_fns[ch](magnitudes[cb], vmean))
            delta = perceptual_offset(a, t, *ranges[ch], scope=scope)
            qp = cb_qp(float(base_qp), delta)
            for key, value in zip(out, (spatial_offset(a), t, delta, qp,
                                        qp_to_qstep(qp))):
                out[key][ch, cb] = value
    return out


def _activities(rng, n):
    """Random activities plus the window ends and the rounding boundaries
    of 6*log2(A), with their floating-point neighbours."""
    edges = [0.5, 1.0, 2.0]
    for k in range(-6, 6):
        edges.append(2.0 ** ((k + 0.5) / 6.0))
    special = []
    for e in edges:
        special += [np.nextafter(e, 0.0), e, np.nextafter(e, 3.0)]
    special = [min(max(v, 0.5), 2.0) for v in special]
    a = rng.uniform(0.5, 2.0, (3, n))
    a.flat[:len(special)] = special
    a[1:, :len(special)] = rng.permutation(special)
    return a


def test_build_qp_map_matches_scalar_oracle():
    rng = np.random.default_rng(11)
    n = 130  # beyond numpy's 8-element unrolled and pairwise summation
    act = _activities(rng, n)
    vecs = rng.integers(-8, 9, (n, 2))
    mags = [math.hypot(int(x), int(y)) for x, y in vecs]
    vmean = sum(mags) / n
    mags[0] = mags[1] = vmean  # equal to the mean: not high motion
    for base in (22, 27, 30, 33, 0, 47, 51):
        for scope in CLAMP_SCOPES:
            for a in (act, None):
                for m in (mags, None):
                    got = build_qp_map(base, n, activity=a, magnitudes=m,
                                       mean_magnitude=vmean, scope=scope)
                    want = scalar_qp_map(base, n, a, m, vmean, scope)
                    for key in ("raw", "t", "delta", "qp"):
                        assert getattr(got, key).dtype == np.int64, key
                    assert got.base_qp == base
                    for key, value in want.items():
                        assert np.array_equal(getattr(got, key), value), key
