"""The package's public surface and the README's library example."""

import contextlib
import importlib
import io
import pathlib
import re

import pytest

import noma_aloha

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = {
    "Scenario",
    "PowerProfile",
    "CountPair",
    "RegionBounds",
    "sinr_high",
    "sinr_low",
    "region_bounds",
    "success_probability",
    "average_throughput",
    "baseline_success",
    "baseline_optimum",
    "OptimizationResult",
    "coordinate_ascent",
    "SimConfig",
    "SimStats",
    "sic_decode",
    "run_simulation",
}


def test_package_exports_exactly_the_public_names():
    assert len(noma_aloha.__all__) == len(PUBLIC) == 17
    assert set(noma_aloha.__all__) == PUBLIC


@pytest.mark.parametrize("module", ["", ".model", ".optimize", ".simulate", ".cli"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module("noma_aloha" + module)
    assert len(set(mod.__all__)) == len(mod.__all__)
    for name in mod.__all__:
        assert hasattr(mod, name), f"noma_aloha{module}.{name}"


def test_readme_library_usage_runs():
    text = README.read_text()
    section = text[text.index("## Library usage") :]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 3
    assert "+/-" in lines[2]
