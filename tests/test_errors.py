import pickle

import pytest

from relaxns.errors import ConfigError, DomainError, FieldError, NumericalAbort, StructureError


@pytest.mark.parametrize(
    "exc, attrs",
    [
        (DomainError("pressure requires rho > 0"), {}),
        (StructureError("A0 degenerates at tau = 0"), {}),
        (FieldError("cfl", "cfl must be in (0, 1], got 2.0"), {"field": "cfl"}),
        (ConfigError("unknown key 'x'", line=3), {"line": 3}),
        (ConfigError("missing file"), {"line": None}),
        (NumericalAbort("rho <= 0 at cell 7", step=3, cell=7), {"step": 3, "cell": 7}),
    ],
)
def test_errors_round_trip_through_pickle(exc, attrs):
    # a sweep worker's exception reaches the parent through pickle
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    for name, value in attrs.items():
        assert getattr(back, name) == value
