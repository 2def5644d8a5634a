import numpy as np
import pytest
from hypothesis import settings

from jqpie.imagio import GrayscaleImage

# Property tests replay the same examples on every run and never time out
# on a slow host, so the suite stays deterministic.
settings.register_profile("jqpie", derandomize=True, deadline=None, database=None,
                          max_examples=100)
settings.load_profile("jqpie")


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)


def random_image(rng, height, width, bit_depth=8):
    peak = 2 ** bit_depth - 1
    pixels = rng.integers(0, peak + 1, (height, width)).astype(np.float64)
    return GrayscaleImage(pixels, bit_depth=bit_depth)


def gradient_image(height, width):
    y, x = np.mgrid[0:height, 0:width]
    pixels = 40.0 + 150.0 * (x + y) / (height + width - 2)
    return GrayscaleImage(pixels)


@pytest.fixture
def image_16(rng):
    return random_image(rng, 16, 16)


@pytest.fixture
def image_32(rng):
    return random_image(rng, 32, 32)
