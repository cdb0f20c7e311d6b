import os
import tempfile

import numpy as np
import pytest

from phasebound import PotentialModel, spectrum

# Hypothesis caches the constants it finds in the code under test; keep
# that cache out of the checkout.
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(),
                                   "phasebound-hypothesis"))


@pytest.fixture(scope="session")
def harmonic():
    return PotentialModel.harmonic(1.0)


@pytest.fixture(scope="session")
def morse10():
    return PotentialModel.morse(10.0, 1.0)


@pytest.fixture(scope="session")
def harmonic_spectrum(harmonic):
    return spectrum(harmonic, 10)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260823)
