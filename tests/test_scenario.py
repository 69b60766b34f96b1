"""Config parsing and scenario construction."""

import re
from pathlib import Path

import pytest

from tmlab.scenario import (
    FIELDS,
    ConfigError,
    build_scenario,
    parse_config_text,
    scenario_from_text,
)

BASE = """
space.kind = euclidean
space.dim = 2
family.kind = rotation
schedule.preset = harmonic
run.u = 0,0
run.x0 = 1,0
"""


def test_parse_basic():
    cfg = parse_config_text("a.b = 1\n# comment\n\nc = two words\n")
    assert cfg == {"a.b": "1", "c": "two words"}


def test_parse_reports_line_numbers():
    with pytest.raises(ConfigError, match=":3:"):
        parse_config_text("a = 1\n\nno equals sign here\n")


def test_parse_rejects_duplicates_and_empty_keys():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("a = 1\na = 2\n")
    with pytest.raises(ConfigError, match="empty key"):
        parse_config_text(" = 2\n")


def test_build_minimal_scenario():
    sc = scenario_from_text(BASE)
    assert sc.space.describe() == "euclidean(2)"
    assert sc.family.name == "rotation"
    assert sc.M == 1.0
    assert sc.K == 1
    assert sc.steps == 100
    assert len(sc.scenario_hash) == 12


def test_missing_required_field():
    with pytest.raises(ConfigError, match="family.kind"):
        scenario_from_text("space.kind = euclidean\nrun.u = 0,0\nrun.x0 = 1,0")


def test_unknown_values_rejected():
    with pytest.raises(ConfigError):
        scenario_from_text(BASE.replace("euclidean", "hyperbolic-plane"))
    with pytest.raises(ConfigError):
        scenario_from_text(BASE.replace("rotation", "teleport"))
    with pytest.raises(ConfigError):
        scenario_from_text(BASE.replace("harmonic", "geometric"))


def test_point_parse_errors_name_the_field():
    with pytest.raises(ConfigError, match="run.x0"):
        scenario_from_text(BASE.replace("run.x0 = 1,0", "run.x0 = 1,0,0"))


def test_tripod_point_syntax():
    sc = scenario_from_text("""
space.kind = tripod
family.kind = rotation
family.angle = 2.0943951023931953
schedule.preset = harmonic
run.u = 0:0
run.x0 = 2:1.5
""")
    assert sc.x0.data == (2, 1.5)


def test_K_override_validation():
    sc = scenario_from_text(BASE + "run.K = 3\n")
    assert sc.K == 3
    # K below 1, and K = 1 below ceil(M) = 2 with x0 at distance 1.5
    for text, why in ((BASE + "run.K = 0\n", ">= 1"),
                      (BASE.replace("run.x0 = 1,0", "run.x0 = 1.5,0") + "run.K = 1\n",
                       "below ceil")):
        with pytest.raises(ConfigError, match=f"run.K.*{why}"):
            scenario_from_text(text)


def test_K_defaults_to_ceil_M():
    sc = scenario_from_text(BASE.replace("run.x0 = 1,0", "run.x0 = 1.5,0"))
    assert sc.M == 1.5
    assert sc.K == 2


def test_schedule_overrides():
    sc = scenario_from_text(BASE + "schedule.eta = affine:2,1\nschedule.G = 5\n")
    assert sc.bundle.eta(3) == 7
    assert sc.bundle.G == 5
    with pytest.raises(ConfigError, match="schedule.eta"):
        scenario_from_text(BASE + "schedule.eta = nope\n")


def test_hash_depends_on_content_only():
    a = scenario_from_text(BASE)
    b = scenario_from_text(BASE)
    c = scenario_from_text(BASE + "run.steps = 7\n")
    assert a.scenario_hash == b.scenario_hash
    assert a.scenario_hash != c.scenario_hash


def test_constant_family_kind():
    sc = scenario_from_text(BASE.replace("family.kind = rotation",
                                         "family.kind = constant"))
    assert sc.family.name == "constant"
    assert sc.chi_T_fn(5) == 0


def test_proximal_scenario_uses_schedule_gamma():
    sc = scenario_from_text("""
space.kind = euclidean
space.dim = 2
family.kind = proximal
family.center = 0,0
schedule.preset = harmonic
run.u = 0,0
run.x0 = 1,0
""")
    # chi_T inherited from the gamma data: identity modulus shifted
    assert sc.chi_T_fn(0) == 2 * sc.K * sc.bundle.Gamma - 1


def test_resolvent_scenario():
    sc = scenario_from_text("""
space.kind = euclidean
space.dim = 2
family.kind = resolvent
family.base.kind = rotation
family.base.angle = 1.0
schedule.preset = harmonic
run.u = 0,0
run.x0 = 1,0
""")
    out = sc.family.apply(0, sc.x0)
    assert sc.space.dist(out, sc.x0) > 0


def test_schedule_overrides_are_validated_and_monotonized():
    sc = scenario_from_text(BASE + "schedule.chi_beta = max(id,table:[5,1,9])\n")
    assert [sc.bundle.chi_beta(i) for i in range(4)] == [5, 5, 9, 9]
    # the bare table is no Cauchy modulus for harmonic beta: at k = 11 it
    # starts the window at 9, whose tail sum exceeds 1/12
    with pytest.raises(ConfigError, match=r"'schedule\.chi_beta'.*C2_q"):
        scenario_from_text(BASE + "schedule.chi_beta = table:[5,1,9]\n")
    with pytest.raises(ConfigError, match="Lambda"):
        scenario_from_text(BASE + "schedule.Lambda = 0\n")
    with pytest.raises(ConfigError, match="schedule.G"):
        scenario_from_text(BASE + "schedule.G = 1.5\n")


def _with_line(line):
    key = line.partition("=")[0].strip()
    kept = [ln for ln in BASE.splitlines() if ln.partition("=")[0].strip() != key]
    return "\n".join(kept + [line]) + "\n"


@pytest.mark.parametrize("line,key", [
    ("space.dim = two", "space.dim"),
    ("family.angle = nan", "family.angle"),
    ("run.steps = 1e3", "run.steps"),
    ("run.tol = inf", "run.tol"),
    ("run.bit_cap = big", "run.bit_cap"),
    ("run.K = 2.5", "run.K"),
    ("run.seed = x", "run.seed"),
])
def test_numeric_fields_name_the_key(line, key):
    with pytest.raises(ConfigError, match=key):
        scenario_from_text(_with_line(line))


def test_points_must_be_finite():
    for bad in ("inf,0", "0,nan"):
        with pytest.raises(ConfigError, match="run.x0"):
            scenario_from_text(_with_line(f"run.x0 = {bad}"))
    with pytest.raises(ConfigError, match="run.x0"):
        scenario_from_text(_with_line("run.x0 = 1e308,1e308"))


def test_family_geometry_errors_are_config_errors():
    # 3-coordinate points: the points are read (and their dimension checked)
    # before the family, so the rotation's own error is the one raised
    text = (BASE.replace("space.dim = 2", "space.dim = 3")
            .replace("run.u = 0,0", "run.u = 0,0,0").replace("run.x0 = 1,0", "run.x0 = 1,0,0"))
    with pytest.raises(ConfigError, match="fields 'space.dim', 'family.kind': rotation requires"):
        scenario_from_text(text)


def test_point_errors_name_the_field_once():
    with pytest.raises(ConfigError) as info:
        scenario_from_text(BASE.replace("run.x0 = 1,0", "run.x0 = 1,0,0"))
    assert str(info.value) == "field 'run.x0': expected 2 coordinates"


PROJECTION = BASE.replace("family.kind = rotation",
                          "family.kind = projection\nfamily.center = 0,0")
RESOLVENT = BASE.replace("family.kind = rotation", "family.kind = resolvent")
PROXIMAL = BASE.replace("family.kind = rotation",
                        "family.kind = proximal\nfamily.center = 0,0")
DISK = BASE.replace("space.kind = euclidean\nspace.dim = 2", "space.kind = disk").replace(
    "run.x0 = 1,0", "run.x0 = 0.5,0")


@pytest.mark.parametrize("text,line,key", [
    (BASE, "space.kind = sphere", "space.kind"),
    (BASE, "space.dim = 0", "space.dim"),
    (BASE, "family.kind = spiral", "family.kind"),
    (PROJECTION, "family.radius = 0", "family.radius"),
    (RESOLVENT + "family.base.kind = projection\nfamily.base.center = 0,0\n",
     "family.base.radius = -1", "family.base.radius"),
    (RESOLVENT, "family.base.kind = shear", "family.base.kind"),
    (PROXIMAL, "family.function = huber", "family.function"),
    (BASE, "schedule.preset = cosine", "schedule.preset"),
    (BASE, "schedule.Lambda = 0", "schedule.Lambda"),
    (BASE, "schedule.N_Gamma = -1", "schedule.N_Gamma"),
    (BASE, "run.tol = -1", "run.tol"),
    (BASE, "run.bit_cap = -3", "run.bit_cap"),
    (BASE, f"run.bit_cap = {2 ** 26 + 1}", "field 'run.bit_cap': 67108865 must be <= 2**26"),
    (PROJECTION + "family.radius = 1\n", "family.radus = 3",
     "unknown field 'family.radus'; did you mean 'family.radius'?"),
    (BASE.replace("family.kind = rotation", "family.kind = projection\nfamily.radius = 1"),
     "family.centre = 0,0", "unknown field 'family.centre'; did you mean 'family.center'?"),
    (BASE, "family.radius = 3", "field 'family.radius' is not used"),
    (DISK, "space.dim = 2", "field 'space.dim' is not used"),
    (BASE, "run.seed = 0", "unknown field 'run.seed'"),
    (PROXIMAL, "family.function = half-squared-norm", "unknown field 'family.function'"),
], ids=["space.kind", "space.dim", "family.kind", "family.radius",
        "family.base.radius", "family.base.kind", "family.function",
        "schedule.preset", "schedule.Lambda", "schedule.N_Gamma", "run.tol",
        "run.bit_cap", "run.bit_cap-above-2**26", "misspelled", "misspelled-required",
        "unread-by-family", "unread-by-space", "run.seed", "family.function-default"])
def test_config_errors_name_the_key(text, line, key):
    key_of = line.partition("=")[0].strip()
    kept = [ln for ln in text.splitlines() if ln.partition("=")[0].strip() != key_of]
    with pytest.raises(ConfigError) as info:
        scenario_from_text("\n".join(kept + [line]) + "\n")
    assert key in str(info.value)


def test_readme_documents_every_field():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n| key |", 1)[1].split("\n\n", 1)[0]
    documented = re.findall(r"^\| `([\w.]+)` \|", table, re.M)
    assert sorted(documented) == sorted(FIELDS)
