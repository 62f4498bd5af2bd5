"""Tests of the benchmark's own machinery, at toy sizes.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import statistics
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import recorder  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from mpnike import broadcast, cli, kgc, nike, numt, params  # noqa: E402

TOY = params.security_level("toy", 64)


@pytest.fixture(scope="module")
def toy_primes():
    _, msk = params.setup(TOY, numt.Rng(5))
    return msk.p, msk.z, msk.q


def toy_workloads(seed, primes, workdir):
    return [
        workloads.KgcEnroll(seed, TOY),
        workloads.BroadcastOverlap(seed, TOY, primes, roster=12, sizes=(3, 7), revoked=2),
        workloads.CliSession(seed, TOY, primes, workdir, roster=16),
    ]


class TestPercentiles:
    def test_sample_count_rule(self):
        assert run.reportable(100, 90) and not run.reportable(99, 90)
        assert run.reportable(20, 50) and not run.reportable(19, 50)

    def test_summary_drops_unsupported_percentiles(self):
        assert run.latency_summary([0.001] * 99).keys() == {"p50_ms"}
        assert run.latency_summary([0.001] * 19) == {}
        assert run.latency_summary([0.001] * 100).keys() == {"p50_ms", "p90_ms"}

    def test_values(self):
        samples = [i / 1000 for i in range(1, 101)]  # 1..100 ms
        summary = run.latency_summary(list(reversed(samples)))
        assert summary["p50_ms"] == pytest.approx(50.5)
        assert summary["p90_ms"] == pytest.approx(90.1)
        decile = statistics.quantiles(samples, n=10, method="inclusive")[8]
        assert run.percentile(samples, 90) == pytest.approx(decile)


class TestSelfTime:
    def test_nested_and_overlapping_children(self):
        spans = [
            ("root", 0.0, 10.0, None, 0),
            ("a", 1.0, 4.0, 0, 0),
            ("b", 3.0, 6.0, 0, 0),  # overlaps a: covered part of root is [1, 6]
            ("leaf", 1.5, 2.5, 1, 0),
            ("c", 8.0, 12.0, 0, 0),  # clipped to the parent's end
        ]
        assert recorder.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])

    def test_layer_metrics_sum_spans(self):
        rec = recorder.Recorder(spans=True)
        rec.spans = [("x.f", 0.0, 2.0, None, 0), ("x.g", 0.5, 1.0, 0, 0), ("x.f", 3.0, 4.0, None, 1)]
        m = rec.layer_metrics()
        assert m["x.f.total_s"] == pytest.approx(3.0)
        assert m["x.f.self_s"] == pytest.approx(2.5)
        assert m["x.g.self_s"] == pytest.approx(0.5)


def _originals():
    import importlib

    return {
        (mod, fn): getattr(importlib.import_module(f"mpnike.{mod}"), fn)
        for mod, fns in recorder.TRACED.items()
        for fn in fns
    }


def _mpnike_modules():
    return [m for n, m in sys.modules.items() if n == "mpnike" or n.startswith("mpnike.")]


class TestCoverage:
    @pytest.mark.parametrize("spans", [True, False])
    def test_every_binding_is_wrapped_and_restored(self, spans):
        originals = _originals()
        wrapped = {k for k in originals if spans or ".".join(k) in recorder.EXACT_SOURCES}
        with recorder.Recorder(spans=spans).install():
            for key, orig in originals.items():
                for module in _mpnike_modules():
                    for attr, value in vars(module).items():
                        if key in wrapped:
                            assert value is not orig, f"{module.__name__}.{attr} unwrapped"
            if spans:
                assert kgc.params_digest is not originals[("params", "params_digest")]
                assert nike.params_digest is not originals[("params", "params_digest")]
                import mpnike

                assert mpnike.keygen is not originals[("kgc", "keygen")]
        assert _originals() == originals
        assert kgc.params_digest is originals[("params", "params_digest")]

    def test_indirect_bindings_are_counted(self, toy_primes, tmp_path):
        pp, msk = params.setup(TOY, numt.Rng(1), forced_primes=toy_primes)
        rec = recorder.Recorder(spans=True)
        with rec.install():
            store = kgc.new_keystore(pp)  # kgc.params_digest
            a = kgc.keygen(pp, msk, store, "a", numt.Rng(2))  # kgc.params_digest
            b = kgc.keygen(pp, msk, store, "b", numt.Rng(3))
            nike.save_group(pp, [a.e, b.e], str(tmp_path / "g"))  # nike.params_digest
        assert rec.counts["params.params_digest.calls"] == 4
        names = {s[0] for s in rec.spans}
        assert {"kgc.keygen", "params.params_digest", "nike.save_group"} <= names

    @pytest.mark.parametrize("spans", [True, False])
    def test_mod_exp_calls_match_public_counter(self, spans, toy_primes, tmp_path):
        pp, msk = params.setup(TOY, numt.Rng(1), forced_primes=toy_primes)
        store = kgc.new_keystore(pp)
        pairs = [kgc.keygen(pp, msk, store, f"u{i}", numt.Rng(i)) for i in range(5)]
        params.save_public(pp, str(tmp_path / "pp"))
        kgc.store_save(store, str(tmp_path / "ks"))
        rec = recorder.Recorder(spans=spans)
        with numt.count_mod_exps() as counter, rec.install():
            state = nike.shared_key(pp, pairs[0], [p.e for p in pairs[1:3]])
            nike.join(pp, state, pairs[3].e)
            bc = broadcast.brod_encrypt(store, pp, ["u0", "u1", "u4"], b"m", numt.Rng(9))
            broadcast.brod_decrypt(pp, pairs[4], broadcast.ct_from_bytes(broadcast.ct_to_bytes(bc)))
            argv = ["--params", str(tmp_path / "pp"), "--keystore", str(tmp_path / "ks")]
            assert cli.main(["join", *argv, "--user", "u0", "--group", "u0,u1", "--new", "u2"]) == 0
        assert counter.count > 0
        assert rec.counts["numt.mod_exp.calls"] == counter.count
        assert rec.counts["nike.shared_key.peers"] == counter.count - 2  # two joins

    def test_paused_records_nothing(self, toy_primes):
        pp, msk = params.setup(TOY, numt.Rng(1), forced_primes=toy_primes)
        store = kgc.new_keystore(pp)
        rec = recorder.Recorder(spans=True)
        with rec.install(), rec.paused():
            kgc.keygen(pp, msk, store, "a", numt.Rng(2))
        assert not rec.spans and not any(rec.counts.values())


def _measure(wl, spans):
    rec = recorder.Recorder(spans=spans)
    with rec.install():
        m = run.measure(wl, rec, seconds=0)
    return m, rec


class TestWorkloads:
    def test_toy_runs_are_correct_and_exact_counts_repeat(self, toy_primes, tmp_path):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        produced = set()
        for spans in (False, True, True):
            results = []
            for wl in toy_workloads(7, toy_primes, str(tmp_path)):
                m, rec = _measure(wl, spans)
                assert m["failed"] == 0 and m["setup_failures"] == 0, wl.name
                assert m["attempted"] == run.MIN_OPS
                results.append(m["exact_counts"])
                if spans:
                    produced |= set(rec.layer_metrics())
            if spans is False:
                first = results
            assert results == first
        expected = {m["name"] for m in spec["per_layer"] if not m["name"].startswith("traced.")}
        assert expected <= produced, sorted(expected - produced)

    def test_exact_counts_depend_on_seed(self, toy_primes, tmp_path):
        a, _ = _measure(workloads.KgcEnroll(1, TOY), False)
        b, _ = _measure(workloads.KgcEnroll(2, TOY), False)
        assert a["exact_counts"] != b["exact_counts"]

    def test_failures_are_counted(self, toy_primes, monkeypatch):
        wl = workloads.BroadcastOverlap(3, TOY, toy_primes, roster=12, sizes=(3, 7), revoked=2)
        monkeypatch.setattr(broadcast, "brod_decrypt", lambda pp, pair, bc: b"wrong")
        m, _ = _measure(wl, False)
        assert m["failed"] == len(m["samples"]["decrypt"]) > 0
        assert m["attempted"] == sum(len(v) for v in m["samples"].values())

    def test_fixture_is_a_valid_level80_set(self):
        fx_primes = workloads.load_fixture()
        with open(workloads.FIXTURE) as fh:
            fixture = json.load(fh)
        assert fixture["command"].endswith(f"--seed {fixture['seed']}")
        pp, msk = params.setup(params.security_level("80"), numt.Rng(0), forced_primes=fx_primes)
        assert pp.N.bit_length() == 1024
        assert params.validate(pp, msk).ok
