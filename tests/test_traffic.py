"""tests/traffic.py, the line trace of the callers' traffic, on a small call."""
import semiwkb as sw

from traffic import never_run


def test_a_traced_call_lists_what_it_never_ran():
    missed = never_run(lambda: sw.GridSpec(-1, 1, 8))
    names = {entry.rpartition(":")[0] for entry in missed}
    assert "grids.band_mass" in names
    assert "grids.GridSpec.__post_init__" not in names
    assert "grids._is_power_of_two" not in names
