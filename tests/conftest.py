import numpy as np
import pytest

import ellipsurf


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    # pay first-call overheads before timed assertions run
    x = np.ones((4, 3))
    ellipsurf.sqrt_qform_fn([1.0, 1.0, 1.0]).eval(x)
    ellipsurf.lp_norm_fn(1.0).eval(x)
    ellipsurf.sqrt_qform_moment([1.0, 2.0])
    ellipsurf.iso_ratio_mc(
        ellipsurf.Ellipsoid([1.0, 2.0]),
        ellipsurf.McConfig(samples=64, seed=0, chunk_size=16),
    )
