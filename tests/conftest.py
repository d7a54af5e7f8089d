"""Shared coefficient families for the test suite."""

import numpy as np
import pytest

from jumphjb.coefficients import CoefficientSet
from jumphjb.drivers import MarkMeasure


def zeros_like_state(x):
    return np.zeros_like(x)


def make_coeffs(n=1, d=1, m=1, b=None, sigma=None, g=None, f=None, h=None,
                l=None, **kw):
    """Vectorized coefficient set with zero defaults.

    Conventions: x has shape (B, n), u (B, m), y/k (B,), z (B, d); all
    outputs carry the leading batch axis.
    """
    if b is None:
        b = lambda t, x, u, nz: np.zeros_like(x)
    if sigma is None:
        sigma = lambda t, x, u, nz: np.zeros(x.shape + (d,))
    if g is None:
        g = lambda t, e, x, u, nz: np.zeros_like(x)
    if f is None:
        f = lambda t, x, u, y, z, k, nz: np.zeros(np.shape(y))
    if h is None:
        h = lambda x, nz: np.zeros(x.shape[0])
    if l is None:
        l = lambda t, e: 1.0
    return CoefficientSet(n=n, d=d, m=m, b=b, sigma=sigma, g=g, f=f, h=h, l=l, **kw)


@pytest.fixture
def one_atom_measure():
    return MarkMeasure.from_atoms([((1.0,), 1.0)])
