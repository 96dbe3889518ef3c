import hypothesis
import numpy as np
import pytest

import noisycover as nc

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=60, derandomize=True
)
hypothesis.settings.load_profile("default")


@pytest.fixture
def tiny_arch():
    return nc.NetworkArch(3, (4, 3, 2), sigma=0.05, gamma=0.1)


@pytest.fixture
def tiny_quant():
    # hand-filled norms for a (3, [4, 3, 2]) network
    return nc.ArchQuantifiers(
        W_rvo=3 * 4 + 4 * 3 + 3, r_rvo=1 + 4 + 3, w=4, V=2.5, s=(1.5, 1.2, 0.9), b=(3.0, 2.2, 1.4), x_frob=0.8,
    )


def make_quant(arch, params, x_frob=1.0):
    return nc.quantifiers(arch, params, x_frob=x_frob)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
