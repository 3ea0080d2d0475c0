"""Frozen records: the behaviour the value types keep from frozen dataclasses."""

import copy
import hashlib
import json
import pickle
from fractions import Fraction

import pytest

from conftest import run_latmin
from latmin import inequalities
from latmin.cli import encode
from latmin.enumeration import effective_sections
from latmin.errors import ConfigError
from latmin.inequalities import run_suite
from latmin.ledger import Ledger, LedgerStep, simulate_reduction
from latmin.minima import VolumeReport
from latmin.norms import NormedModule, NormSpec, compile_norm
from latmin.record import digest16, record
from latmin.reports import InequalityReport


def test_records_of_different_classes_never_compare_equal():
    """Records of two classes with equal field tuples differ, though their
    hashes agree; an ellipsoid and a polymax spec with the same rows are
    distinct compile_norm cache keys."""
    @record
    class Left:
        x: int

    @record
    class Right:
        x: int

    left, right = Left(1), Right(1)
    assert left != right and not left == right
    assert hash(left) == hash(right) == hash((1,))
    t = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    ell, poly = NormSpec("ellipsoid", t), NormSpec("polymax", t)
    assert ell != poly and not ell == poly
    assert hash(ell) == hash(("ellipsoid", t, 0))  # its own cached hash
    assert compile_norm(ell) is not compile_norm(poly)
    assert compile_norm(ell).squared and not compile_norm(poly).squared
    assert ell == NormSpec("ellipsoid", t)
    assert compile_norm(ell) is compile_norm(NormSpec("ellipsoid", t))


def test_record_fields_are_frozen():
    step = LedgerStep(4, 3, 1.0, 2.0)
    with pytest.raises(AttributeError, match="'d'"):
        step.d = 5
    with pytest.raises(AttributeError, match="'d'"):
        del step.d
    with pytest.raises(AttributeError):
        step.extra = 1
    assert step == LedgerStep(4, 3, 1.0, 2.0)
    assert not hasattr(step, "extra")


def test_record_init_hash_repr_and_fields():
    step = LedgerStep(d=4, r=3, slack=2.0, c=1.0)
    assert LedgerStep._fields == ("d", "r", "c", "slack")
    assert vars(step) == {"d": 4, "r": 3, "c": 1.0, "slack": 2.0}
    assert repr(step) == "LedgerStep(d=4, r=3, c=1.0, slack=2.0)"
    same = LedgerStep(4, 3, 1.0, 2.0)
    assert same == step and hash(same) == hash(step) == hash((4, 3, 1.0, 2.0))
    assert step != (4, 3, 1.0, 2.0)
    assert VolumeReport(1.0, "exact-ellipsoid", 0.0).exact is None  # class default
    vol = VolumeReport(log_value=0.0, value=1.0, method="exact-polytope", exact=1)
    assert vol == VolumeReport(1.0, "exact-polytope", 0.0, 1) and vol.exact == 1
    # the message that `ledger eval` reports for a step with no slack
    with pytest.raises(TypeError, match=r"^LedgerStep\.__init__\(\) missing "
                       "1 required positional argument: 'slack'$"):
        LedgerStep(4, 3, 1.0)


def test_post_init_runs_and_cached_properties_do_not_change_equality():
    with pytest.raises(ConfigError):  # Ledger.__post_init__ validates
        Ledger(2, 1, (), 20.0, "positive-genus")
    led = Ledger(2, 1, (LedgerStep(4, 3, 1, 2),), 20, "positive-genus")
    assert type(led.L2_0) is float and type(led.steps[0].c) is float
    fresh = Ledger(2, 1, (LedgerStep(4, 3, 1.0, 2.0),), 20.0, "positive-genus")
    assert led.digest() == fresh.digest()  # each kept when it was made
    assert led == fresh and hash(led) == hash(fresh)
    assert hash(led) == hash(tuple(getattr(led, k) for k in led._fields))
    again = pickle.loads(pickle.dumps(led))
    assert again == led and again.digest() == led.digest()


def test_values_every_use_reads_are_set_when_a_record_is_made():
    """A norm spec's hash, which each compile_norm lookup reads, is in its
    dict as soon as it is made; a module's digest, which only reports read,
    is written on its first read."""
    t = ((Fraction(2),),)
    spec = NormSpec("ellipsoid", t, Fraction(1, 3))
    assert vars(spec) == {"kind": "ellipsoid", "rows": t, "alpha": Fraction(1, 3),
                          "_hash": hash(("ellipsoid", t, Fraction(1, 3)))}
    assert hash(spec) == vars(spec)["_hash"]
    module = NormedModule(1, spec)
    assert "_digest" not in vars(module)
    assert module.digest() is vars(module)["_digest"] is module.digest()


_SPEC = 'make_ellipsoid([["1", "0"], ["0", "1"]])'


def test_a_pickled_spec_takes_the_hash_of_the_process_that_loads_it():
    """A str's hash is seeded per process: a spec pickled under one seed and
    loaded under another is rebuilt from its fields, so it hashes as an equal
    spec made there, and compile_norm finds it in its cache."""
    dump = run_latmin([], code="import pickle, sys\nfrom latmin import make_ellipsoid\n"
                      f"sys.stdout.buffer.write(pickle.dumps({_SPEC}))",
                      env={"PYTHONHASHSEED": "1"})
    assert dump.returncode == 0, dump.stderr
    load = run_latmin([], code="import pickle, sys\nfrom latmin import make_ellipsoid\n"
                      "from latmin.norms import compile_norm\n"
                      f"a, b = {_SPEC}, pickle.loads(sys.stdin.buffer.read())\n"
                      "compile_norm(a), compile_norm(b)\n"
                      "print(a == b, hash(a) == hash(b), len({a, b}),"
                      " compile_norm.cache_info().misses)",
                      env={"PYTHONHASHSEED": "2"}, input=dump.stdout)
    assert load.returncode == 0, load.stderr
    assert load.stdout.split() == [b"True", b"True", b"1", b"1"]


@pytest.mark.parametrize("twin", [lambda r: pickle.loads(pickle.dumps(r)), copy.copy,
                                  copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
def test_pickle_and_copy_rebuild_a_record_from_its_fields(twin):
    """Only the fields cross over: a ledger is validated again and takes its
    digest anew, and a module's digest and a count's vectors are computed
    again on their first read."""
    led = simulate_reduction(3, "positive-genus")
    again = twin(led)
    assert again == led and again is not led
    assert set(vars(again)) == set(vars(led))
    blob = json.dumps(led.to_json(), sort_keys=True, separators=(",", ":"))
    assert again.digest() == hashlib.sha256(blob.encode()).hexdigest()[:16]
    spec = NormSpec("ellipsoid", ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))))
    module = NormedModule(2, spec)
    module.digest()
    sections = effective_sections(module)
    assert len(sections.vectors) == 5
    for rec, lazy in ((module, "_digest"), (sections, "vectors")):
        copied = twin(rec)
        assert copied == rec and lazy not in vars(copied)
    assert twin(sections).vectors == sections.vectors
    assert twin(module).digest() == module.digest()


def test_violation_dump_text_is_unchanged(monkeypatch):
    """A forced violation dumps its report as a plain dict of its fields:
    the same text as the asdict-built dump (pinned from that code)."""
    real = inequalities.check_minkowski_count

    def violated(module):
        rep = real(module)
        return InequalityReport(rep.name, rep.rhs + 0.5, rep.rhs, -0.5, False,
                                rep.instance_digest, "violated")

    monkeypatch.setattr(inequalities, "check_minkowski_count", violated)
    summary = run_suite(seed=7, trials=2, rank_max=3)
    dumps = summary["violation_dumps"]
    assert summary["total_violations"] == len(dumps) == 4
    assert all(type(d["report"]) is dict for d in dumps)
    assert encode(dumps[0]["report"]) == (
        '{"holds":false,"instance_digest":"4e8d6469583589f4",'
        '"lhs":"2.29175946923","name":"minkowski-count",'
        '"rhs":"1.79175946923","slack":"-0.5","verdict":"violated"}')
    text = encode(dumps)
    assert len(text) == 1169
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "5e2f89cf0fff6540"


@pytest.mark.parametrize("data", [b"", b"latmin", bytes(range(256)) * 4096],
                         ids=["empty", "short", "1MB"])
def test_digest16_is_the_head_of_sha256(data):
    """The interpreter's own SHA-256 gives hashlib's digest, also fed in
    pieces, from bytes or a bytearray."""
    want = hashlib.sha256(data).hexdigest()[:16]
    assert digest16(data) == want
    assert digest16(data[:100], bytearray(data[100:])) == want
    assert digest16(*[data[i:i + 4096] for i in range(0, len(data), 4096)]) == want
