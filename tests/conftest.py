from types import SimpleNamespace

import pytest


@pytest.fixture
def tamper_k2_solves(monkeypatch):
    """``tamper(change)`` makes every K_2 solve return ``change`` of the true
    solution (by default off by a relative 1e-6), on every system, also one
    whose factorization is already cached: the property set on the class
    shadows the instance's cache until the test ends or undoes it."""
    from exdep.fem import FemSystem

    real = FemSystem._lu.func

    def tamper(change=lambda x: x * (1.0 + 1e-6)):
        monkeypatch.setattr(FemSystem, "_lu", property(lambda self: SimpleNamespace(
            solve=lambda rhs, lu=real(self): change(lu.solve(rhs)))))

    return tamper
