"""The package's public names, and the README's examples run as written."""

import re
from pathlib import Path

import paircluster

PUBLIC = [
    "AnalysisReport",
    "Assignment",
    "DGPConfig",
    "ExperimentData",
    "Seed",
    "SizeCell",
    "SizeExperimentSpec",
    "SizeTable",
    "__version__",
    "analyze",
    "draw_stratified_assignment",
    "errors",
    "read_csv",
    "resampling_size_experiment",
    "run_size_experiment",
    "validate_dataset",
    "variance_set",
    "write_csv",
]

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_are_pinned_and_resolve():
    assert sorted(paircluster.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(paircluster, name) is not None


def test_readme_python_blocks_run(capsys):
    # One namespace for all blocks, in order, as a reader pasting them into one session.
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.M | re.S)
    assert len(blocks) >= 3
    namespace = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)
    assert "unit/pair variance ratio (FE): 0.5" in capsys.readouterr().out
