import warnings

import numpy as np
import pytest

from cascadefund.beliefs import OutOfSupportWarning, QualitySpec, TypeDistribution


def triangular_spec() -> QualitySpec:
    # Density rising to a peak at 0.62 and falling off, positive at both ends.
    return QualitySpec.tabulated(
        0.5, 0.8, [(0.5, 0.6), (0.62, 4.2), (0.8, 0.4)], normalize=True
    )


def interior_zero_spec() -> QualitySpec:
    # Density vanishing at an interior knot, which the spec warns about.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OutOfSupportWarning)
        return QualitySpec.tabulated(
            0.5, 0.8, [(0.5, 2.0), (0.65, 0.0), (0.8, 2.0)], normalize=True
        )


def bimodal_spec() -> QualitySpec:
    return QualitySpec.tabulated(
        0.5,
        0.8,
        [(0.5, 3.0), (0.575, 0.3), (0.65, 2.8), (0.725, 0.3), (0.8, 3.0)],
        normalize=True,
    )


@pytest.fixture(scope="session")
def dist_u58() -> TypeDistribution:
    return TypeDistribution(QualitySpec.uniform(0.5, 0.8))


@pytest.fixture(scope="session")
def dist_u658() -> TypeDistribution:
    return TypeDistribution(QualitySpec.uniform(0.65, 0.8))


@pytest.fixture(scope="session")
def dist_u758() -> TypeDistribution:
    return TypeDistribution(QualitySpec.uniform(0.75, 0.8))


@pytest.fixture(scope="session")
def dist_triangular() -> TypeDistribution:
    return TypeDistribution(triangular_spec())


@pytest.fixture(scope="session")
def dist_bimodal() -> TypeDistribution:
    return TypeDistribution(bimodal_spec())


@pytest.fixture(scope="session")
def solved():
    """Session-wide memo of solved policy tables keyed by configuration."""
    from cascadefund.engine import backward_induction

    cache: dict = {}

    def get(spec: QualitySpec, B: int, n: int, grid_size: int = 2001):
        key = (tuple(sorted(spec.to_dict().items(), key=lambda kv: kv[0])).__repr__(), B, n, grid_size)
        if key not in cache:
            cache[key] = backward_induction(TypeDistribution(spec), B, n, grid_size=grid_size)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260816)
