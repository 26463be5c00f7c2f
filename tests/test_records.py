"""The result records: the dataclass protocol, value semantics, immutability,
and a cold start that loads none of dataclasses, inspect and typing (nor the
CLI's argparse, gettext, locale and json)."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import berger_rank
from berger_rank import (
    CycleTypeObservation,
    HypothesisRecord,
    PrimePoly,
    RuleFiring,
    Status,
    TowerLayer,
    Witness,
    certify_galois,
    decomposition_table,
    is_morse,
    parse_poly,
    rank_verdict,
    scan_A_h,
)
from berger_rank import rank_engine

SRC = str(Path(berger_rank.__file__).resolve().parents[1])

F, G = parse_poly("x^5 - x - 1"), parse_poly("y^2 - 1")

# one record of each class, its field names in declaration order, and a
# valid change of one field
RECORDS = {
    "PrimePoly": (
        lambda: PrimePoly(7, (13, 6, 0, 7)), ["p", "coeffs"], {"p": 11}
    ),
    "CycleTypeObservation": (
        lambda: CycleTypeObservation(3, (1, 2)), ["p", "pattern"], {"p": 5}
    ),
    "RuleFiring": (
        lambda: RuleFiring("R-trans", (2, 3)), ["rule", "primes", "detail"],
        {"detail": "why"},
    ),
    "GaloisCertificate": (
        lambda: certify_galois(F),
        ["polynomial", "disc", "disc_is_square", "observations", "rules_fired",
         "verdict", "witness"],
        {"disc_is_square": True},
    ),
    # a decomposition's polynomials, changed to a Dickson form's rationals
    "Witness": (
        lambda: certify_galois(parse_poly("x^4 - 2")).witness, ["kind", "values"],
        {"values": (0, Fraction(1, 4), Fraction(5, 64))},
    ),
    "TowerLayer": (lambda: TowerLayer(7, 2), ["p", "r", "q"], {"r": 3}),
    "DecompositionTable": (
        lambda: decomposition_table(5, 7, 2), ["m", "p", "r", "rows", "total"],
        {"total": 0},
    ),
    "MorseReport": (
        lambda: is_morse(parse_poly("x^5 - x")),
        ["h", "derivative_squarefree", "critical_value_disc_squarefree",
         "critical_values_poly", "is_morse"],
        {"is_morse": False},
    ),
    "ScanResult": (
        lambda: scan_A_h(parse_poly("x^5 - x"), 1, 1)[0],
        ["c", "in_A_h", "certificate", "quad_tag", "reason"],
        {"reason": "why"},
    ),
    "HypothesisRecord": (
        lambda: HypothesisRecord("c1-zero", Status.HOLDS, {"argument": "p^r > c2"}),
        ["name", "status", "evidence"],
        {"status": Status.UNKNOWN},
    ),
    "RankVerdict": (
        lambda: rank_verdict(F, G, 7, 2),
        ["kind", "layer", "m", "n", "c2_value", "hypotheses", "trace_Kd_zero",
         "trace_geometric_zero", "notes"],
        {"m": 6},
    ),
    "_Analysis": (
        lambda: rank_engine._analyze(F, G, 7, 200),
        ["m", "n", "route", "records", "full_vanishing", "bounded", "base_notes"],
        {"route": "other"},
    ),
}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    make, names, change = RECORDS[request.param]
    obj = make()
    assert type(obj).__name__ == request.param
    return obj, names, change


def _hashable(obj) -> bool:
    # records holding a dict (hypothesis evidence) are unhashable, as frozen
    # dataclasses holding one are
    try:
        hash(obj)
    except TypeError:
        return False
    return True


class TestDataclassProtocol:
    def test_fields(self, record):
        obj, names, _ = record
        assert dataclasses.is_dataclass(obj) and dataclasses.is_dataclass(type(obj))
        assert [f.name for f in dataclasses.fields(obj)] == names
        assert type(obj).__match_args__ == tuple(
            f.name for f in dataclasses.fields(obj) if f.init
        )

    def test_replace_round_trips(self, record):
        obj, names, change = record
        same = dataclasses.replace(obj)
        assert same == obj and same is not obj
        changed = dataclasses.replace(obj, **change)
        ((name, value),) = change.items()
        assert getattr(changed, name) == value and changed != obj
        assert dataclasses.replace(changed, **{name: getattr(obj, name)}) == obj

    def test_asdict(self, record):
        obj, names, _ = record
        as_dict = dataclasses.asdict(obj)
        assert list(as_dict) == names
        for name in names:
            value = getattr(obj, name)
            nested = isinstance(value, (tuple, dict)) or dataclasses.is_dataclass(value)
            if not nested:
                assert as_dict[name] == value


class TestValueSemantics:
    def test_eq_and_hash_by_class_and_fields(self, record):
        obj, _, _ = record
        twin = copy.copy(obj)
        assert twin == obj and not twin != obj
        if _hashable(obj):
            assert hash(twin) == hash(obj)
        assert obj != tuple(getattr(obj, n) for n in obj._fields)

        class Other(type(obj)):
            pass

        lookalike = copy.copy(obj)
        object.__setattr__(lookalike, "__class__", Other)
        assert lookalike != obj and obj != lookalike

    def test_assignment_raises(self, record):
        obj, names, _ = record
        for name in (names[0], "unknown"):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)

    def test_copy_and_pickle_round_trip(self, record):
        obj, _, _ = record
        twins = copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))
        for twin in twins:
            assert type(twin) is type(obj)
            assert twin == obj
            assert repr(twin) == repr(obj)

    def test_witness_with_a_polynomial_and_a_fraction(self):
        # values mix the polynomial and rational types a witness may hold
        witness = Witness("dickson", (parse_poly("x^2"), Fraction(1, 4), 3))
        twin = pickle.loads(pickle.dumps(witness))
        assert twin == witness and hash(twin) == hash(witness)
        assert twin != Witness("dickson", (parse_poly("x^2"), Fraction(1, 4), 4))
        assert twin != Witness("decomposition", witness.values)
        assert dataclasses.replace(witness, kind="factor").values == witness.values


class TestInit:
    def test_replace_reruns_post_init(self):
        holds = HypothesisRecord("c1-zero", Status.HOLDS, {"argument": "x"})
        with pytest.raises(ValueError, match="holds without evidence"):
            dataclasses.replace(holds, evidence={})
        assert dataclasses.replace(TowerLayer(7, 2), r=3).q == 343
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(TowerLayer(7, 2), q=1)
        reduced = dataclasses.replace(PrimePoly(7, (1, 2)), coeffs=(8, 0, 14))
        assert reduced.coeffs == (1,)

    def test_positional_keyword_and_default(self):
        assert RuleFiring("R", (2,)) == RuleFiring(rule="R", primes=(2,), detail="")
        assert TowerLayer(7, r=2) == TowerLayer(p=7, r=2)
        assert repr(TowerLayer(7, 2)) == "TowerLayer(p=7, r=2, q=49)"
        assert repr(RuleFiring("R", (2,))) == (
            "RuleFiring(rule='R', primes=(2,), detail='')"
        )
        with pytest.raises(TypeError, match="missing 1 required positional argument"):
            TowerLayer(7)
        with pytest.raises(TypeError, match="unexpected keyword argument 'q'"):
            TowerLayer(7, 2, q=49)


def _cold_import_loads(modules):
    """Which of ``modules`` a fresh ``python -S`` loads with the package and
    its CLI; -S keeps a site hook from preloading one and hiding an import."""
    code = (
        "import sys, berger_rank, berger_rank.cli; "
        f"print(sorted({set(modules)!r} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    ).stdout


def test_cold_import_loads_no_dataclasses_inspect_or_typing():
    assert _cold_import_loads(["dataclasses", "inspect", "typing"]) == "[]\n"


def test_cold_import_loads_no_argparse_gettext_locale_or_json():
    # the CLI builds its argparse parser only for help and usage errors, and
    # never imports json
    assert _cold_import_loads(["argparse", "gettext", "locale", "json"]) == "[]\n"


def test_json_output_loads_no_json_module():
    # --json output is written by cli._json_text, so a python -S child that
    # prints three envelopes has still not loaded json
    code = (
        "import sys, berger_rank.cli as cli\n"
        "for argv in (['galois', 'x^5 - x - 1'], ['scan', 'x^5 - x', '--c-range=-2..2'],\n"
        "             ['rank', '-f', 'x^5 - x - 1', '-g', 'y^2 - 1', '-p', '7', '-r', '2']):\n"
        "    assert cli.main([*argv, '--json']) == 0\n"
        "print('json' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    ).stdout
    assert out.count('"schema_version": "1"') == 3
    assert out.endswith("\nFalse\n")
