"""Property battery: the serve result cache never lies.

The service stores each result in a :class:`repro.store.PointStore`
under its :func:`repro.serve.points.serve_record`. The contract
(mirroring ``test_bench_memo.py`` for the warm-prefix memo): (1) a hit
returns the byte-identical JSON document that was saved — for ANY point
shape Hypothesis can draw; (2) distinct (kind, point) pairs never
collide — loading one never returns the other's result, even across
hash-adjacent parameter dicts; (3) bumping :data:`SERVE_CACHE_VERSION`
invalidates every stored result at once (stale keys simply never match
again).
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve.points import serve_record
from repro.store import PENDING, PointStore, content_key

SETTINGS = settings(max_examples=50, deadline=None,
                    suppress_health_check=[
                        HealthCheck.too_slow,
                        # tmp_path_factory/monkeypatch reset per test, not
                        # per example — safe here: every example makes its
                        # own directory and sets the same attribute.
                        HealthCheck.function_scoped_fixture])

# Parameter values a job document can carry: anything JSON, including
# the awkward cases (unicode keys, nested lists, null, bool-vs-int).
scalars = st.one_of(st.none(), st.booleans(), st.integers(-2**31, 2**31),
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.text(max_size=12))
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=8)
points = st.dictionaries(st.text(min_size=1, max_size=8), values,
                         max_size=4)
kinds = st.sampled_from(["msgrate", "scenario", "selftest"])
results = st.one_of(values, st.lists(values, max_size=4),
                    st.dictionaries(st.text(max_size=8), values,
                                    max_size=4))


def _canon(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      default=str)


@SETTINGS
@given(kind=kinds, point=points, result=results)
def test_hit_returns_byte_identical_result(tmp_path_factory, kind, point,
                                           result):
    cache = PointStore(str(tmp_path_factory.mktemp("cache")))
    record = serve_record(kind, point)
    assert cache.load(record) is PENDING  # cold
    cache.save(record, result)
    loaded = cache.load(record)
    assert _canon(loaded) == _canon(json.loads(_canon(result)))
    assert len(cache) == 1


@SETTINGS
@given(kind_a=kinds, point_a=points, kind_b=kinds, point_b=points,
       result_a=results, result_b=results)
def test_distinct_points_never_collide(tmp_path_factory, kind_a, point_a,
                                       kind_b, point_b, result_a, result_b):
    # Identity is the canonical JSON of (version, kind, point): only
    # byte-identical parameter documents share a key.
    record_a = serve_record(kind_a, point_a)
    record_b = serve_record(kind_b, point_b)
    same = content_key(record_a) == content_key(record_b)
    assert same == ((kind_a, _canon(point_a)) == (kind_b, _canon(point_b)))

    cache = PointStore(str(tmp_path_factory.mktemp("cache")))
    cache.save(record_a, result_a)
    cache.save(record_b, result_b)
    loaded_b = cache.load(record_b)
    assert _canon(loaded_b) == _canon(json.loads(_canon(result_b)))
    if not same:
        loaded_a = cache.load(record_a)
        assert _canon(loaded_a) == _canon(json.loads(_canon(result_a)))
        assert len(cache) == 2  # one file per point, neither clobbered


@SETTINGS
@given(kind=kinds, point=points, result=results)
def test_version_bump_invalidates_everything(tmp_path_factory, kind, point,
                                             result):
    from unittest import mock

    import repro.serve.points as points_mod

    cache = PointStore(str(tmp_path_factory.mktemp("cache")))
    cache.save(serve_record(kind, point), result)
    # Patch inside the example (a monkeypatch fixture would stay applied
    # across Hypothesis examples, poisoning later saves too).
    with mock.patch.object(points_mod, "SERVE_CACHE_VERSION",
                           "serve0-other"):
        assert cache.load(serve_record(kind, point)) is PENDING
    # The original version still hits.
    assert cache.load(serve_record(kind, point)) is not PENDING
