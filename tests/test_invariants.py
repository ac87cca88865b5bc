"""Properties of R(q) that the deterministic routes promise for any axes.

R/n = E_u sqrt(sum q_i^2 u_i^2) over the unit sphere is symmetric in q,
nondecreasing in each q_i and, as an average of norms of q, subadditive.
The axes are drawn with n from 1 to 8, log-uniform on [1e-8, 1e8].
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from ellipsurf.bounds import iso_ratio_asymptotic
from ellipsurf.geometry import Ellipsoid
from ellipsurf.lauricella import iso_ratio_lauricella
from ellipsurf.quadrature import iso_ratio_quad

ROUTES = {
    "laplace": iso_ratio_quad,
    "lauricella": iso_ratio_lauricella,
    "asymptotic": iso_ratio_asymptotic,
}

#: Routes that claim an error bound when they converge.
BOUNDED = ("laplace", "lauricella")

log_uniform = st.floats(min_value=-8.0, max_value=8.0).map(lambda t: 10.0 ** t)
q_lists = st.lists(log_uniform, min_size=1, max_size=8)


def ratio(route, q):
    return ROUTES[route](Ellipsoid.from_inverse_axes(q))


@pytest.mark.parametrize("route", sorted(ROUTES))
@given(data=st.data(), q=q_lists)
@settings(max_examples=200, deadline=None)
def test_permuting_the_axes_keeps_every_bit(route, data, q):
    permuted = data.draw(st.permutations(q))
    a, b = ratio(route, q), ratio(route, permuted)
    assert (a.value, a.abs_error, a.evals, a.converged) == \
        (b.value, b.abs_error, b.evals, b.converged)


@pytest.mark.parametrize("route", BOUNDED)
@given(data=st.data(), q=q_lists,
       factor=st.floats(min_value=0.0, max_value=4.0).map(lambda t: 10.0 ** t))
@settings(max_examples=200, deadline=None)
def test_raising_one_inverse_axis_never_lowers_the_ratio(route, data, q, factor):
    i = data.draw(st.integers(min_value=0, max_value=len(q) - 1))
    raised = list(q)
    raised[i] *= factor
    base, up = ratio(route, q), ratio(route, raised)
    assume(base.converged and up.converged)
    assert up.value >= base.value - (base.abs_error + up.abs_error)


@pytest.mark.parametrize("route", BOUNDED)
@given(data=st.data(), q=q_lists)
@settings(max_examples=200, deadline=None)
def test_ratio_is_subadditive(route, data, q):
    other = data.draw(st.lists(log_uniform, min_size=len(q), max_size=len(q)))
    both = [a + b for a, b in zip(q, other)]
    r, r_other, r_both = ratio(route, q), ratio(route, other), ratio(route, both)
    assume(r.converged and r_other.converged and r_both.converged)
    slack = r.abs_error + r_other.abs_error + r_both.abs_error
    assert r_both.value <= r.value + r_other.value + slack
