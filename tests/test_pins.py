"""The byte pins: every artifact tests/pins.py builds has the sha256 that
tests/pins.json pins for it on this Python's float regime."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pins

MANIFEST = pins.load()


# Builds and checks the artifacts named in argv in a fresh interpreter, with
# part (i) of the recursive inequalities (the first column
# check_recursive_inequalities hands note_rows) moved up one ulp; prints the
# names whose digest moved, then the click and pytest modules it imported
NUDGED_CHECK = """
import math, sys, pins
from tmlab.geometry import AxiomReport
note_rows = AxiomReport.note_rows

def nudged(self, columns, inputs):
    if self.axiom == "recursive-inequalities":
        columns = ([math.nextafter(v, math.inf) for v in columns[0]], *columns[1:])
    return note_rows(self, columns, inputs)

AxiomReport.note_rows = nudged
manifest = pins.load()
for name in sys.argv[1:]:
    if pins.problem(name, pins.build(name), manifest) is not None:
        print(name)
print(sorted({"click", "pytest"} & set(sys.modules)))
"""


@pytest.fixture(scope="module")
def nudged_check():
    """NUDGED_CHECK on every artifact, in a fresh interpreter started when
    the module's first test asks for it, so that it runs beside the
    manifest tests rather than after them."""
    tests = Path(__file__).parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tests), str(tests.parent / "src")])}
    proc = subprocess.Popen([sys.executable, "-c", NUDGED_CHECK, *pins.ARTIFACTS], env=env,
                            stdout=subprocess.PIPE, text=True)
    yield proc
    proc.kill()
    proc.wait()
    proc.stdout.close()


# starts the one-ulp check, which the last test of the module reads
@pytest.mark.usefixtures("nudged_check")
@pytest.mark.parametrize("name", list(pins.ARTIFACTS))
def test_artifact_bytes_are_pinned(name):
    assert pins.problem(name, pins.artifact(name), MANIFEST) is None


def test_the_manifest_names_the_recorders_artifacts():
    assert sorted(MANIFEST) == sorted(pins.ARTIFACTS)


def test_an_entry_without_this_regimes_digest_fails():
    name, here = "ceil-2e-47051", pins.regime()
    other = {"plain": "compensated", "compensated": "plain"}[here]
    data = pins.artifact(name)
    assert pins.problem(name, data, MANIFEST) is None
    want = f"{name}: no digest pinned for the {here} regime"
    assert pins.problem(name, data, {name: {other: MANIFEST[name][other]}}) == want
    assert pins.problem(name, data, {}) == want


def test_a_one_ulp_residual_moves_exactly_the_pins_that_read_it(nudged_check):
    # part (i) reaches the verify report alone: moved one ulp, it fails that
    # pin and no other.  (Part (iii) is never the largest of the three in
    # that report, so no pin reads it.)  The interpreter built every
    # artifact without importing click or pytest: the recorder runs without
    # the test extras
    out = nudged_check.communicate(timeout=600)[0].splitlines()
    assert nudged_check.returncode == 0
    assert out == ["verify/all/2000", "[]"]
