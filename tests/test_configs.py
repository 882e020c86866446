"""Every shipped config file loads."""

import pytest

from frametime.config import load_config
from scenarios import CONFIG_DIR


@pytest.mark.parametrize("name", ["characterization.ini", "selection.ini",
                                  "governor_heavy.ini", "governor_light.ini"])
def test_all_shipped_configs_parse(name):
    bundle = load_config(CONFIG_DIR / name)
    assert len(bundle.freq_table) == 9
