"""The package surface: ``icdms`` exports what its modules declare public."""

import pytest

import icdms
from icdms import ChannelParams, default_grid, discrete, gaussian, geometry, oracle

MODULES = (discrete, gaussian, geometry, oracle)


def test_all_is_the_version_and_the_modules_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert len(set(names)) == len(names)  # each name declared in one module
    assert icdms.__all__ == ["__version__", *names]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_each_name_is_the_modules_own_object(module):
    for name in module.__all__:
        assert getattr(icdms, name) is getattr(module, name), name


def test_sample_cap_error_is_importable_where_it_is_raised():
    ch = ChannelParams(p1=6.0, p2=6.0, c12=0.0, c21=0.3)
    with pytest.raises(icdms.SampleCapError):
        icdms.sweep_gaussian(ch, default_grid("g_sp1"), "g_sp1", r1_step=1e-7)
