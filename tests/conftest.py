import numpy as np
import pytest

from friendlyfec import channel


@pytest.fixture
def transmit_calls(monkeypatch):
    """The (signal, draws) of each `channel.transmit` call, in call order; the calls go through."""
    transmit, calls = channel.transmit, []

    def recorded(s, params, draws, coords_per_symbol=1):
        calls.append((np.array(s), draws))
        return transmit(s, params, draws, coords_per_symbol)

    monkeypatch.setattr(channel, "transmit", recorded)
    return calls
