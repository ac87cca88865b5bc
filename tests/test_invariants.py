"""Properties of R(q) that the deterministic routes promise for any axes.

R/n = E_u sqrt(sum q_i^2 u_i^2) over the unit sphere is symmetric in q,
nondecreasing in each q_i, subadditive (an average of norms of q) and
concave in the squares q_i^2 (an average of square roots of linear
functions of them).  The axes are drawn with n from 1 to 8, log-uniform
on [1e-8, 1e8]; the Lauricella series converges within its degree budget
only up to an axis ratio of about 11, so its bounded properties draw within
one decade.
"""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from ellipsurf.bounds import iso_ratio_asymptotic
from ellipsurf.geometry import Ellipsoid
from ellipsurf.lauricella import iso_ratio_lauricella
from ellipsurf.quadrature import iso_ratio_quad

ROUTES = {
    "laplace": iso_ratio_quad,
    "lauricella": iso_ratio_lauricella,
    "lauricella_series": lambda e: iso_ratio_lauricella(e, route="series"),
    "asymptotic": iso_ratio_asymptotic,
}

#: Routes that claim an error bound when they converge.
BOUNDED = ("laplace", "lauricella", "lauricella_series")

#: log10 spans of the inverse axes a property draws and of the factor
#: that raises one of them: FULL unless SPANS names the route.
FULL = (16.0, 4.0)
SPANS = {"lauricella_series": (0.5, 0.5)}


def inverse_axes(span=FULL[0], size=None):
    entries = st.floats(min_value=-0.5 * span, max_value=0.5 * span).map(lambda t: 10.0 ** t)
    return st.lists(entries, min_size=size or 1, max_size=size or 8)


def ratio(route, q):
    return ROUTES[route](Ellipsoid.from_inverse_axes(q))


@pytest.mark.parametrize("route", sorted(ROUTES))
@given(data=st.data(), q=inverse_axes())
@settings(max_examples=200, deadline=None)
def test_permuting_the_axes_keeps_every_bit(route, data, q):
    permuted = data.draw(st.permutations(q))
    a, b = ratio(route, q), ratio(route, permuted)
    assert (a.value, a.abs_error, a.evals, a.converged) == \
        (b.value, b.abs_error, b.evals, b.converged)


@pytest.mark.parametrize("route", BOUNDED)
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_raising_one_inverse_axis_never_lowers_the_ratio(route, data):
    span, raise_span = SPANS.get(route, FULL)
    q = data.draw(inverse_axes(span))
    factor = 10.0 ** data.draw(st.floats(min_value=0.0, max_value=raise_span))
    i = data.draw(st.integers(min_value=0, max_value=len(q) - 1))
    raised = list(q)
    raised[i] *= factor
    base, up = ratio(route, q), ratio(route, raised)
    assume(base.converged and up.converged)
    assert up.value >= base.value - (base.abs_error + up.abs_error)


@pytest.mark.parametrize("route", BOUNDED)
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_ratio_is_subadditive(route, data):
    span, _ = SPANS.get(route, FULL)
    q = data.draw(inverse_axes(span))
    other = data.draw(inverse_axes(span, len(q)))
    both = [a + b for a, b in zip(q, other)]
    r, r_other, r_both = ratio(route, q), ratio(route, other), ratio(route, both)
    assume(r.converged and r_other.converged and r_both.converged)
    slack = r.abs_error + r_other.abs_error + r_both.abs_error
    assert r_both.value <= r.value + r_other.value + slack


@pytest.mark.parametrize("route", BOUNDED)
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_ratio_is_concave_in_the_squared_inverse_axes(route, data):
    span, _ = SPANS.get(route, FULL)
    q = data.draw(inverse_axes(span))
    other = data.draw(inverse_axes(span, len(q)))
    mid = [math.sqrt(0.5 * (a * a + b * b)) for a, b in zip(q, other)]
    r, r_other, r_mid = ratio(route, q), ratio(route, other), ratio(route, mid)
    assume(r.converged and r_other.converged and r_mid.converged)
    slack = r_mid.abs_error + 0.5 * (r.abs_error + r_other.abs_error)
    assert r_mid.value >= 0.5 * (r.value + r_other.value) - slack
