"""Engine runs whose write_csv bytes test_engine.py pins by sha256, and
their digests.  It imports only the standard library and tmlab, so it runs
on any Python without the test extras:

    PYTHONPATH=src python tests/engine_pins.py

prints the digest of each pinned run.  The runs are those the matrix pins
of test_engine.py do not reach: the resolvents of a rotation and of a ball
projection on each model, a constant family on each model, and the
identity, ball-projection and proximal families on Euclidean(1) and
Euclidean(3)."""

import hashlib
import io

from tmlab.engine import run
from tmlab.scenario import scenario_from_text

RESOLVENT_TEXTS = {
    "euclidean-resolvent-rotation": """
        space.kind = euclidean
        space.dim = 2
        family.kind = resolvent
        family.base.kind = rotation
        family.base.angle = 1.0
        schedule.preset = harmonic
        run.u = 0.41,-0.33
        run.x0 = -1.1,0.9
        run.steps = 100
    """,
    "tripod-resolvent-rotation": """
        space.kind = tripod
        family.kind = resolvent
        family.base.kind = rotation
        family.base.angle = 2.0943951023931953
        schedule.preset = harmonic
        run.u = 2:0.55
        run.x0 = 1:1.6
        run.steps = 100
    """,
    "disk-resolvent-rotation": """
        space.kind = disk
        family.kind = resolvent
        family.base.kind = rotation
        family.base.angle = 2.0943951023931953
        schedule.preset = harmonic
        run.u = 0.21,-0.33
        run.x0 = -0.5,0.4
        run.steps = 100
    """,
    # u outside the ball, so the projection takes geodesic steps
    **{f"{model}-resolvent-projection": f"""
        {space}
        family.kind = resolvent
        family.base.kind = projection
        family.base.center = {center}
        family.base.radius = 0.3
        schedule.preset = harmonic
        run.u = {u}
        run.x0 = {x0}
        run.steps = 100
    """ for model, space, center, u, x0 in (
        ("euclidean", "space.kind = euclidean\nspace.dim = 2", "0.2,0.1", "0.41,-0.33", "-1.1,0.9"),
        ("disk", "space.kind = disk", "0.1,0.05", "0.21,-0.33", "-0.5,0.4"),
        ("tripod", "space.kind = tripod", "0:0.2", "2:0.55", "1:1.6"))},
}

# a constant family of a rotation on each model
CONSTANT_TEXTS = {
    f"{model}-constant": f"""
        {space}
        family.kind = constant
        family.angle = {angle}
        schedule.preset = harmonic
        run.u = {u}
        run.x0 = {x0}
        run.steps = 2000
    """ for model, space, angle, u, x0 in (
        ("euclidean", "space.kind = euclidean\nspace.dim = 2", "1.0", "0.41,-0.33", "-1.1,0.9"),
        ("disk", "space.kind = disk", "2.0", "0.21,-0.33", "-0.5,0.4"),
        ("tripod", "space.kind = tripod", "2.0943951023931953", "2:0.55", "1:1.6"))
}

# the identity, ball-projection and proximal families in one and three
# dimensions, u outside the ball; the three-dimensional distances are
# float sums, which are compensated from Python 3.12 on
DIMENSION_TEXTS = {
    f"euclidean{dim}-{family}": f"""
        space.kind = euclidean
        space.dim = {dim}
        {lines}
        schedule.preset = harmonic
        run.u = {u}
        run.x0 = {x0}
        run.steps = 2000
    """ for dim, center, u, x0 in ((1, "0.2", "0.9", "-1.7"),
                                   (3, "0.2,0.1,-0.3", "0.41,-0.33,0.5", "-1.1,0.9,0.25"))
    for family, lines in (
        ("identity", "family.kind = identity"),
        ("projection", f"family.kind = projection\nfamily.center = {center}\n"
                       "family.radius = 0.3"),
        ("proximal", f"family.kind = proximal\nfamily.center = {center}"))
}

PINNED_TEXTS = {**RESOLVENT_TEXTS, **CONSTANT_TEXTS, **DIMENSION_TEXTS}


def csv_text(text: str) -> str:
    """write_csv of the run the scenario text describes."""
    sc = scenario_from_text(text)
    traj = run(sc.space, sc.family, sc.bundle, sc.u, sc.x0, sc.steps,
               scenario_hash=sc.scenario_hash)
    buf = io.StringIO()
    traj.write_csv(buf)
    return buf.getvalue()


def digest(name: str) -> str:
    return hashlib.sha256(csv_text(PINNED_TEXTS[name]).encode()).hexdigest()


if __name__ == "__main__":
    for name in PINNED_TEXTS:
        print(f"{name}: {digest(name)}")
