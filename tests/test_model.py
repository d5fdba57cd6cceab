import math

import numpy as np
import pytest

from b4.model import (
    GridState,
    SystemParams,
    check_params,
    reaction_buffers,
    reaction_fields,
    stationary_solution,
)
from b4.solver import initial_condition


def pair_rates(activators, inhibitors, params):
    """((f, h), (g, k)) of ``reaction_fields`` at the stacks (u, w) and (v, z),
    given as pairs of scalars or of arrays of one shape, with the buffers
    the solver builds for them."""
    x, y = np.asarray(activators, dtype=float), np.asarray(inhibitors, dtype=float)
    shape = (4, *np.broadcast_shapes(x.shape, y.shape)[1:])
    rates, work = np.empty(shape), np.empty(shape)
    rates_in_role_order = (params.D1, params.D3, params.D2, params.D4)
    column = np.reshape(rates_in_role_order, (4,) + (1,) * (len(shape) - 1))
    return reaction_fields(x, y, reaction_buffers(x, y, rates, work, params, column))


def random_params(rng):
    return SystemParams(
        alpha=rng.uniform(0.1, 3.0),
        beta=rng.uniform(0.1, 3.0),
        D1=rng.uniform(0.001, 1.0),
        D2=rng.uniform(0.001, 1.0),
        D3=rng.uniform(0.001, 1.0),
        D4=rng.uniform(0.001, 1.0),
        a=rng.uniform(1e-6, 1.0),
        b=rng.uniform(1e-6, 1.0),
        c=rng.uniform(1e-6, 1.0),
        d=rng.uniform(1e-6, 1.0),
    )


def test_stationary_point_is_a_zero_of_the_reaction():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = random_params(rng)
        u, v, w, z = stationary_solution(p)
        (f, h), (g, k) = pair_rates((u, w), (v, z), p)
        assert max(abs(x) for x in (f, g, h, k)) <= 1e-14


def test_stationary_solution_values():
    assert stationary_solution(SystemParams(alpha=2, beta=5.5)) == (
        2,
        2.75,
        2,
        2.75,
    )
    assert stationary_solution(SystemParams(alpha=1, beta=1)) == (1, 1, 1, 1)
    assert stationary_solution(SystemParams(alpha=2, beta=5.9)) == (
        2,
        2.95,
        2,
        2.95,
    )
    with pytest.raises(ValueError):
        stationary_solution(SystemParams(alpha=0.0))


def test_reaction_at_origin_reduces_to_feed_rate():
    p = SystemParams(alpha=2.0)
    (f, h), (g, k) = pair_rates((0.0, 0.0), (0.0, 0.0), p)
    assert (f, g, h, k) == (2.0, 0.0, 2.0, 0.0)


def test_reaction_hand_computed_at_unit_state():
    # alpha=2, beta=5.5, all four fields equal one: the cross terms
    # D_i*(other - own) vanish, leaving f = 2 - 6.5 + 1 and g = 5.5 - 1.
    p = SystemParams()
    (f, h), (g, k) = pair_rates((1.0, 1.0), (1.0, 1.0), p)
    assert (f, g, h, k) == pytest.approx((-3.5, 4.5, -3.5, 4.5), abs=1e-15)


def test_pair_sums_cancel_cubic_terms():
    # f+g and h+k lose the u^2 v / w^2 z terms entirely.
    rng = np.random.default_rng(5)
    for _ in range(200):
        p = random_params(rng)
        u, v, w, z = rng.uniform(-3, 3, 4)
        (f, h), (g, k) = pair_rates((u, w), (v, z), p)
        fg = p.alpha - u + p.D1 * (w - u) + p.D2 * (z - v)
        hk = p.alpha - w + p.D3 * (u - w) + p.D4 * (v - z)
        assert f + g == pytest.approx(fg, abs=1e-11)
        assert h + k == pytest.approx(hk, abs=1e-11)


def test_rates_nonnegative_on_boundary_faces():
    # Each rate stays nonnegative when its own field is zero and the
    # others are nonnegative, so the flow never leaves the positive cone.
    rng = np.random.default_rng(7)
    for _ in range(300):
        p = random_params(rng)
        s, t, q = rng.uniform(0, 5, 3)
        (f, _), _ = pair_rates((0.0, t), (s, q), p)
        _, (g, _) = pair_rates((s, t), (0.0, q), p)
        (_, h), _ = pair_rates((s, 0.0), (t, q), p)
        _, (_, k) = pair_rates((s, q), (t, 0.0), p)
        assert f >= 0 and g >= 0 and h >= 0 and k >= 0


def test_check_params():
    assert check_params(SystemParams()) is None
    with pytest.raises(ValueError, match=r"^invalid parameters: alpha$"):
        check_params(SystemParams(alpha=0.0))
    with pytest.raises(ValueError, match=r"^invalid parameters: a$"):
        check_params(SystemParams(a=-1e-6))
    with pytest.raises(ValueError, match=r"^invalid parameters: beta$"):
        check_params(SystemParams(beta=float("nan")))
    with pytest.raises(ValueError, match=r"^invalid parameters: alpha, D2$"):
        check_params(SystemParams(alpha=-1, D2=0.0))


def test_stationary_solution_rejects_non_finite_components():
    with pytest.raises(ValueError, match="non-finite component 'u'"):
        stationary_solution(SystemParams(alpha=float("nan")))
    with pytest.raises(ValueError, match="non-finite component 'v'"):
        stationary_solution(SystemParams(beta=float("inf")))
    with pytest.raises(ValueError, match="alpha must be positive"):
        stationary_solution(SystemParams(alpha=0.0))
    # negative components are fine (the state is not checked for positivity)
    assert stationary_solution(SystemParams(beta=-1.0)) == (2.0, -0.5, 2.0, -0.5)


def test_grid_state_checks_shapes_and_freezes_arrays():
    ones = np.ones((4, 3))
    st = GridState(4, 3, 0.5, 0.5, ones, ones, ones, ones)
    assert not st.u.flags.writeable
    with pytest.raises(ValueError):
        GridState(4, 3, 0.5, 0.5, ones, ones, ones, np.ones((3, 4)))
    with pytest.raises(ValueError):
        GridState(4, 3, -0.5, 0.5, ones, ones, ones, ones)
    with pytest.raises(ValueError):
        GridState(4, 3, 0.5, 0.5, ones, ones, ones, ones, bc="periodic")


def test_geometry_rejects_empty_grids_and_non_finite_spacings():
    ones = np.ones((3, 1))
    for nx, ny, dx, dy in (
        (3, 1, math.nan, 1.0),
        (3, 1, 1.0, math.inf),
        (0, 1, 1.0, 1.0),
        (3, 0, 1.0, 1.0),
    ):
        with pytest.raises(ValueError):
            initial_condition(nx, ny, dx, dy, (1, 1, 1, 1), 0.0, seed=0)
        field = np.ones((nx, ny))
        with pytest.raises(ValueError):
            GridState(nx, ny, dx, dy, field, field, field, field)
    # the stacked array backs the field views
    st = GridState(3, 1, 1.0, 1.0, ones, 2 * ones, 3 * ones, 4 * ones)
    assert st.data.shape == (4, 3, 1)
    assert all(np.shares_memory(f, st.data) for f in (st.u, st.v, st.w, st.z))
    assert np.array_equal(st.z, 4 * ones)
