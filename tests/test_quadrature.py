import numpy as np
import pytest
from quadrature_reference import loop_panel_table

from covario._quadrature import gauss_legendre, panel_table
from covario.fourier_laplace import OSC_BUDGET
from covario.geometry import Direction
from covario.radon import chord_function


def _assert_same(table, reference):
    assert np.array_equal(table[0], reference[0])
    assert np.array_equal(table[1], reference[1])


def test_panel_table_equals_loop_build_context(cw3):
    # the table of quadrature_reference.chord_ray_table(cw3, u, max_abs_zeta=130)
    cf = chord_function(cw3, Direction(0.4))
    args = (cf.lo, cf.hi, cf.breakpoints)
    kwargs = dict(order=64, max_freq=130.0, osc_budget=OSC_BUDGET)
    table = panel_table(*args, **kwargs)
    assert table[0].size == 896
    _assert_same(table, loop_panel_table(*args, **kwargs))


def test_panel_table_equals_loop_breakpoints():
    # interior, duplicate, end and outside breakpoints, with and without subdivision
    brk = [0.0, 0.5, 0.5, 1.7, -1.0, 2.0, 3.0, -1.0 + 1e-16]
    for order, max_freq in ((32, 0.0), (64, 77.0), (16, 5.0)):
        _assert_same(panel_table(-1.0, 2.0, brk, order=order, max_freq=max_freq),
                     loop_panel_table(-1.0, 2.0, brk, order=order, max_freq=max_freq))
    assert panel_table(1.0, 1.0)[0].size == 0


def test_gauss_legendre_equals_numpy_leggauss():
    # the port keeps numpy's bits, signs of zero included; numpy.polynomial is
    # the oracle here only
    from numpy.polynomial.legendre import leggauss

    for order in range(1, 301):
        for ours, theirs in zip(gauss_legendre(order), leggauss(order)):
            assert np.array_equal(ours, theirs), order
            assert np.array_equal(np.signbit(ours), np.signbit(theirs)), order


@pytest.mark.parametrize("order, error", [(0, ValueError), (-3, ValueError), (2.5, TypeError)])
def test_gauss_legendre_rejects_order(order, error):
    with pytest.raises(error):
        gauss_legendre(order)
