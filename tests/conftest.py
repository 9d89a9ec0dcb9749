import numpy as np
import pytest

from lwfv import mesh as mesh_module
from lwfv import (
    cartesian_2d_family,
    nonuniform_1d_family,
    perturbed_triangular_2d_family,
    polynomial_bump,
    smooth_function,
    uniform_1d_family,
)


@pytest.fixture(scope="session")
def families():
    """The four stock refinement families at their default coarse sizes."""
    return {
        "uniform-1d": uniform_1d_family(10),
        "nonuniform-1d": nonuniform_1d_family(10, ratio=2.0),
        "cartesian-2d": cartesian_2d_family(4),
        "triangular-2d": perturbed_triangular_2d_family(4, jitter=0.3, seed=0),
    }


@pytest.fixture
def rated_cells(monkeypatch):
    """The cell counts of the meshes whose quality is computed while the
    test runs, in order: a counting wrapper around the one computation."""
    rated = []
    measure = mesh_module._measure_quality

    def counting(mesh):
        rated.append(mesh.n_cells)
        return measure(mesh)

    monkeypatch.setattr(mesh_module, "_measure_quality", counting)
    return rated


@pytest.fixture(scope="session")
def bump_datum_1d():
    b = polynomial_bump([0.45], [0.3], k=3, amplitude=0.5)
    return smooth_function(
        lambda x: b.value(x, 0.0), lipschitz=b.grad_sup, name="bump-1d"
    )


@pytest.fixture(scope="session")
def sine_datum_1d():
    return smooth_function(
        lambda x: 0.5 + 0.25 * np.sin(2.0 * np.pi * x[..., 0]),
        lipschitz=0.5 * np.pi,
        name="sine-1d",
    )


@pytest.fixture(scope="session")
def sine_datum_2d():
    return smooth_function(
        lambda x: 0.5
        + 0.25 * np.sin(2.0 * np.pi * x[..., 0]) * np.sin(2.0 * np.pi * x[..., 1]),
        lipschitz=0.5 * np.pi * np.sqrt(2.0),
        name="sine-2d",
    )
