"""Tests for the execution runtime: parallel fan-out and disk caching."""

import numpy as np
import pytest

from repro.cli import main
from repro.runtime import ResultCache, code_version, parallel_map, stable_key


def _square(x):
    return x * x


def _pid(_):
    import os

    return os.getpid()


class TestStableKey:
    def test_deterministic(self):
        payload = {"scene": "family", "frames": 12, "speed": 1.0}
        assert stable_key(payload) == stable_key(dict(reversed(list(payload.items()))))

    def test_sensitive_to_values(self):
        base = {"scene": "family", "frames": 12}
        assert stable_key(base) != stable_key({"scene": "family", "frames": 13})
        assert stable_key(base) != stable_key({"scene": "horse", "frames": 12})

    def test_code_version_shape(self):
        version = code_version()
        assert len(version) == 16
        int(version, 16)  # hex

    def test_code_change_invalidates_key(self, monkeypatch):
        import repro.runtime.cache as cache_mod

        payload = {"kind": "report", "system": "neo"}
        key_now = stable_key(payload)
        monkeypatch.setattr(cache_mod, "_code_version_cache", "deadbeefdeadbeef")
        assert stable_key(payload) != key_now


class TestResultCache:
    def test_json_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        payload = {"kind": "experiment", "name": "x", "frames": 3}
        assert cache.get("experiments", payload) is None
        cache.put("experiments", payload, {"rows": [{"a": 1.5, "b": "s"}]})
        assert cache.get("experiments", payload) == {"rows": [{"a": 1.5, "b": "s"}]}

    def test_numpy_scalars_in_json_values(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        payload = {"kind": "experiment", "name": "np"}
        cache.put(
            "experiments",
            payload,
            {"f": np.float64(0.1), "i": np.int64(7), "b": np.bool_(True)},
        )
        value = cache.get("experiments", payload)
        assert value == {"f": 0.1, "i": 7, "b": True}

    def test_pickle_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        payload = {"kind": "report", "system": "neo"}
        arr = np.arange(6).reshape(2, 3)
        cache.put("reports", payload, arr)
        assert np.array_equal(cache.get("reports", payload), arr)

    def test_miss_on_payload_change(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put("reports", {"frames": 12}, "twelve")
        assert cache.get("reports", {"frames": 13}) is None
        assert cache.get("reports", {"frames": 12}) == "twelve"

    def test_info_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put("experiments", {"n": 1}, {"rows": []})
        cache.put("reports", {"n": 2}, [1, 2, 3])
        info = cache.info()
        assert info["total_entries"] == 2
        assert info["namespaces"]["experiments"]["entries"] == 1
        assert cache.clear() == 2
        assert cache.info()["total_entries"] == 0
        assert cache.get("reports", {"n": 2}) is None

    def test_clear_leaves_foreign_files_alone(self, tmp_path):
        # Pointing --cache-dir at a directory with unrelated content must
        # never destroy that content.
        root = tmp_path / "mixed"
        root.mkdir()
        (root / "precious.txt").write_text("keep me")
        sub = root / "notes"
        sub.mkdir()
        (sub / "todo.md").write_text("keep me too")
        cache = ResultCache(root)
        cache.put("experiments", {"n": 1}, {"rows": []})
        assert cache.clear() == 1
        assert (root / "precious.txt").read_text() == "keep me"
        assert (sub / "todo.md").read_text() == "keep me too"
        assert not (root / "experiments").exists()

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        payload = {"n": 1}
        path = cache.put("reports", payload, "value")
        path.write_bytes(b"\x00not a pickle")
        assert cache.get("reports", payload) is None

    def test_info_on_never_created_root(self, tmp_path):
        # Regression: `repro cache info` must report an empty cache, not
        # raise, when the cache directory has never been created.
        cache = ResultCache(tmp_path / "never_created")
        info = cache.info()
        assert info["total_entries"] == 0
        assert info["total_bytes"] == 0
        assert info["namespaces"] == {}
        assert not (tmp_path / "never_created").exists()  # info() creates nothing

    def test_info_ignores_entries_deleted_mid_scan(self, tmp_path, monkeypatch):
        from pathlib import Path

        cache = ResultCache(tmp_path / "cache")
        cache.put("experiments", {"n": 1}, {"rows": []})
        cache.put("experiments", {"n": 2}, {"rows": []})

        # Simulate a concurrent `cache clear`: the first stat on each entry
        # (the is_file probe) succeeds, the second (st_size) finds the file
        # already gone.
        real_stat = Path.stat
        probed = set()

        def racing_stat(self, **kwargs):
            result = real_stat(self, **kwargs)
            if self.suffix == ".json":
                if self in probed:
                    raise FileNotFoundError(self)
                probed.add(self)
            return result

        monkeypatch.setattr(Path, "stat", racing_stat)
        info = cache.info()
        assert info["total_entries"] == 0

    def test_info_survives_namespace_dir_deleted_mid_scan(self, tmp_path, monkeypatch):
        import shutil
        from pathlib import Path

        cache = ResultCache(tmp_path / "cache")
        cache.put("experiments", {"n": 1}, {"rows": []})

        # Concurrent `cache clear` removes the namespace directory between
        # the root listing and the namespace listing.
        real_iterdir = Path.iterdir

        def racing_iterdir(self):
            if self.name == "experiments":
                shutil.rmtree(self)
            return real_iterdir(self)

        monkeypatch.setattr(Path, "iterdir", racing_iterdir)
        info = cache.info()
        assert info["total_entries"] == 0


class TestTenantNamespaces:
    def test_tenants_never_share_rows(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        payload = {"kind": "report", "system": "neo", "frames": 2}
        store.for_tenant("acme").put("reports", payload, "acme-row")
        assert store.for_tenant("acme").get("reports", payload) == "acme-row"
        assert store.for_tenant("globex").get("reports", payload) is None
        assert store.get("reports", payload) is None  # shared namespace too

    def test_shared_namespace_is_opt_in(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        payload = {"kind": "report", "system": "neo"}
        store.for_tenant(None).put("reports", payload, "shared-row")
        assert store.get("reports", payload) == "shared-row"
        assert store.for_tenant("acme").get("reports", payload) is None

    def test_invalid_tenant_names_rejected(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        for bad in ("../escape", "a/b", "", ".hidden", "x" * 65):
            with pytest.raises(ValueError):
                store.for_tenant(bad)

    def test_info_reports_per_namespace_counts(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        store.put("reports", {"n": 1}, "shared")
        store.for_tenant("acme").put("reports", {"n": 1}, "a1")
        store.for_tenant("acme").put("workloads", {"n": 2}, "a2")
        store.for_tenant("globex").put("reports", {"n": 1}, "g1")
        info = store.info()
        assert info["namespaces"]["reports"]["entries"] == 1
        assert info["namespaces"]["tenants/acme/reports"]["entries"] == 1
        assert info["namespaces"]["tenants/acme/workloads"]["entries"] == 1
        assert info["namespaces"]["tenants/globex/reports"]["entries"] == 1
        assert info["total_entries"] == 4
        assert all(ns["bytes"] > 0 for ns in info["namespaces"].values())

    def test_clear_namespace_is_surgical(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        store.put("reports", {"n": 1}, "shared")
        store.for_tenant("acme").put("reports", {"n": 1}, "a1")
        store.for_tenant("acme").put("workloads", {"n": 2}, "a2")
        store.for_tenant("globex").put("reports", {"n": 1}, "g1")

        # One tenant namespace.
        assert store.clear(namespace="tenants/acme/reports") == 1
        assert store.for_tenant("acme").get("reports", {"n": 1}) is None
        assert store.for_tenant("acme").get("workloads", {"n": 2}) == "a2"

        # A whole tenant subtree.
        assert store.clear(namespace="tenants/acme") == 1
        assert store.for_tenant("acme").get("workloads", {"n": 2}) is None
        assert store.for_tenant("globex").get("reports", {"n": 1}) == "g1"

        # A shared namespace leaves tenants alone.
        assert store.clear(namespace="reports") == 1
        assert store.for_tenant("globex").get("reports", {"n": 1}) == "g1"

        # Everything.
        assert store.clear() == 1
        assert store.info()["total_entries"] == 0

    def test_clear_unknown_namespace_removes_nothing(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        store.put("reports", {"n": 1}, "shared")
        assert store.clear(namespace="nope") == 0
        assert store.get("reports", {"n": 1}) == "shared"

    def test_cli_clear_namespace(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        store = ResultCache(cache_dir)
        store.for_tenant("acme").put("reports", {"n": 1}, "a1")
        store.for_tenant("globex").put("reports", {"n": 1}, "g1")
        rc = main(["cache", "clear", "--cache-dir", cache_dir,
                   "--namespace", "tenants/acme"])
        assert rc == 0
        assert "tenants/acme" in capsys.readouterr().out
        assert store.for_tenant("acme").get("reports", {"n": 1}) is None
        assert store.for_tenant("globex").get("reports", {"n": 1}) == "g1"

        rc = main(["cache", "info", "--cache-dir", cache_dir])
        assert rc == 0
        assert "tenants/globex/reports" in capsys.readouterr().out


class TestParallelMap:
    def test_serial_and_parallel_agree_in_order(self):
        tasks = list(range(7))
        serial = parallel_map(_square, tasks, jobs=1)
        parallel = parallel_map(_square, tasks, jobs=3)
        assert serial == parallel == [t * t for t in tasks]

    def test_single_task_stays_in_process(self):
        import os

        assert parallel_map(_pid, [None], jobs=8) == [os.getpid()]

    def test_empty(self):
        assert parallel_map(_square, [], jobs=4) == []


class TestCli:
    def test_experiments_cold_then_warm(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        json_path = str(tmp_path / "out.json")
        rc = main(
            ["experiments", "table3", "--frames", "3", "--cache-dir", cache_dir,
             "--json", json_path]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "computed in" in out
        assert "GSCore" in out

        rc = main(["experiments", "table3", "--frames", "3", "--cache-dir", cache_dir])
        assert rc == 0
        assert "cache hit" in capsys.readouterr().out

        import json

        with open(json_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["experiments"][0]["name"] == "table3"
        assert payload["experiments"][0]["rows"]

    def test_experiments_requires_names_or_all(self, capsys):
        assert main(["experiments"]) == 2
        assert "--all" in capsys.readouterr().err

    def test_cache_info_and_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["experiments", "table3", "--frames", "3", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()

        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "experiments" in out and "entries" in out

        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed" in capsys.readouterr().out

        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        assert "(empty)" in capsys.readouterr().out

    def test_cache_info_on_missing_dir(self, tmp_path, capsys):
        # Regression: must print an empty summary, not crash, when the
        # cache directory was never created.
        rc = main(["cache", "info", "--cache-dir", str(tmp_path / "never")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "(empty)" in out
        assert "total:        0 entries" in out

    def test_no_cache_flag_skips_cache_writes(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        rc = main(
            ["experiments", "table3", "--frames", "3", "--no-cache",
             "--cache-dir", str(cache_dir)]
        )
        assert rc == 0
        assert "cache disabled" in capsys.readouterr().out
        assert not cache_dir.exists()
