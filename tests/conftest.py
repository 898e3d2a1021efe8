import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_phase_state(rng, a=1.0, b=None, phi_low=0.5, phi_high=2.0):
    """Flat 14-vector with the spin sector exactly on the surface
    omega^2 = a^2, pi^2 = b^2, omega.pi = 0 and a nonzero gauge variable."""
    from spinbundle.bundle_so3 import sample_surface_point
    from spinbundle.constraints import default_pi_norm

    if b is None:
        b = default_pi_norm(a)
    w, p = sample_surface_point(rng, a=a, b=b)
    z = np.zeros(14)
    z[0:3] = rng.standard_normal(3)
    z[3:6] = rng.standard_normal(3)
    z[6:9] = w
    z[9:12] = p
    z[12] = rng.uniform(phi_low, phi_high)
    return z


@pytest.fixture
def rhs_calls(monkeypatch):
    """Records (u, t) of every call of each physical-sector right-hand side
    that dynamics._physical_kernel builds while the test runs, in call
    order.  Every call is kept, so a run that may take many steps needs a
    step budget."""
    from spinbundle import dynamics

    calls = []
    build = dynamics._physical_kernel

    def spy_kernel(*args):
        rhs = build(*args)

        def spy(y, t):
            calls.append((y, t))
            return rhs(y, t)

        return spy

    monkeypatch.setattr(dynamics, "_physical_kernel", spy_kernel)
    return calls
