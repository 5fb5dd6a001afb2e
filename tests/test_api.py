"""The documented library surface, pinned by name.

A name that leaves or joins this list is an API change: README states it,
and this test is edited with it.
"""

import ast
import dataclasses
from pathlib import Path

import dichotomy
from dichotomy import LogScalar


def test_package_exports():
    assert sorted(dichotomy.__all__) == [
        "CertificateClaim", "ConfigError", "ConstantProfile", "DatkoReport",
        "DecayGapError", "DegenerateRangeError", "DenseOverflowError",
        "DiagonalClosedForm", "DichotomyCertificate", "DichotomyError",
        "EmptyFeasibleSetError", "ExplicitSequence", "ExponentialEstimate",
        "FalsificationClaim", "GalleryEntry", "IncompatibleProjectionError",
        "IndexOrderError", "InvalidCertificateError", "InvalidConstantsError",
        "InvalidProjectionError", "Kind", "LogOverflowError", "LogScalar",
        "NoDecayCertificateError", "OutOfRangeError", "ParamOutOfRangeError",
        "Profile", "ProjectionFamily", "RestrictedExtremes", "RunTooLargeError",
        "ScaledProfile",
        "ScheduleOutOfRangeError", "ShiftedPowerProfile",
        "StrongInstabilityClaim", "SummationConstants", "SystemDescription",
        "TabulatedProfile", "TowerExponentProfile", "UniformEstimate",
        "UnknownExampleError", "VerificationOutcome", "WindowSpec", "Witness",
        "WitnessReport", "WitnessSchedule", "certificate_to_datko",
        "certificates", "checkers", "closed_form_amn", "compatibility_defect",
        "datko", "default_alpha_grid", "default_beta_grid", "errors",
        "estimate_ed", "estimate_ued", "falsify", "gallery", "gallery_names",
        "logarray", "logscalar", "make_example", "minimal_ned_profile",
        "optimal_N_for_alpha", "overall_verdict", "raw_factor_log",
        "restricted_extremes", "restricted_ratio_extremes", "system",
        "verify_certificate", "verify_datko_ed", "verify_datko_ned",
        "verify_datko_ued", "verify_triplet_form",
    ]


def test_logscalar_surface():
    # what LogScalar defines beyond a bare frozen dataclass of the same fields
    @dataclasses.dataclass(frozen=True)
    class Bare:
        sign: int
        logmag: float

    assert [f.name for f in dataclasses.fields(LogScalar)] == ["sign", "logmag"]
    assert sorted(set(vars(LogScalar)) - set(vars(Bare))) == [
        "__post_init__", "from_float", "from_log", "is_zero", "one",
        "positive_infinity", "to_float", "zero",
    ]


def test_only_the_log_modules_name_the_form_choice():
    # the float-or-exact choice of log arithmetic is made in logscalar and
    # logarray alone; a kernel that names these has taken it back
    names = {"_FLOAT_SAFE", "mixes_as_float", "FLOAT_FORM", "EXACT_FORM"}
    named = {}
    for path in sorted(Path(dichotomy.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name in names:
                named.setdefault(path.name, set()).add(name)
    assert set(named) == {"logscalar.py", "logarray.py"}, named


def test_only_diag_factor_names_the_scalar_log_arithmetic_in_system():
    # the kernels read factor logs as arrays; a function of system.py that
    # calls lsub or ladd would be a scalar twin of the diagonal row's table
    tree = ast.parse((Path(dichotomy.__file__).parent / "system.py").read_text(encoding="utf-8"))
    users = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else None)
        if name in {"lsub", "ladd"}:
            users.add(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    assert users == {"SystemDescription.diag_factor"}, users
