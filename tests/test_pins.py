import re
from pathlib import Path

import pytest

from collatz_arbor import cli
from pins import PINS, run


@pytest.mark.parametrize("pin", [pin for pin in PINS if not pin.c10], ids=lambda pin: pin.argv)
def test_pinned_output(pin, monkeypatch):
    monkeypatch.setenv(cli.MAX_NODES_ENV, "1")  # which the runner must ignore
    assert run(pin) == (pin.code, pin.sha256)


def test_rows_parse_once_and_ci_keeps_no_other_digest():
    for pin in PINS:
        cli.build_parser().parse_args(pin.argv.split())
    assert len({pin.argv for pin in PINS}) == len(PINS)
    steps = (Path(__file__).parents[1] / ".github/workflows/tier1.yml").read_text().split("\n      - ")
    rest = "\n".join(step for step in steps if not step.startswith("name: Installed entry point"))
    assert "python tests/pins.py" in rest and re.findall(r"\b[0-9a-f]{64}\b", rest) == []
