"""System-model registry + vectorized-core golden equivalence tests.

Two contracts pinned here:

* **Golden equivalence** — for every registered system, the shared
  vectorized sequence core (:meth:`repro.hw.system.SystemModel.simulate`)
  is *bit-identical*, field for field, to the frozen pre-refactor scalar
  per-frame loop preserved in :mod:`repro.hw.reference`.
* **Registry semantics** — duplicate registration fails loudly, variants
  inherit and compose overlays, and every unknown-system error reports the
  true registered option list (no hand-maintained tuples anywhere).
"""

import pytest

from repro.experiments.engine import SimJob
from repro.experiments.runner import build_system_model
from repro.hw import reference
from repro.hw.config import DramConfig, NeoConfig
from repro.hw.system import (
    FrameBatch,
    SystemModel,
    _REGISTRY,
    get_system,
    iter_systems,
    register_system,
    register_variant,
    registered_systems,
)
from repro.hw.workload import WorkloadModel
from repro.sweeps.spec import HardwareConfig


@pytest.fixture(scope="module")
def workload_model():
    return WorkloadModel.from_scene("family", num_frames=4, num_gaussians=1200)


@pytest.fixture()
def scratch_registry():
    """Let a test register throwaway systems; restores the registry after."""
    before = set(_REGISTRY)
    yield _REGISTRY
    for name in set(_REGISTRY) - before:
        del _REGISTRY[name]


def _assert_reports_identical(got, want) -> None:
    assert got.system == want.system
    assert got.num_frames == want.num_frames
    for g, w in zip(got.frames, want.frames):
        assert g.frame_index == w.frame_index
        # Bitwise equality, not approx: the vectorized core must reproduce
        # the scalar loop's float64 arithmetic exactly.
        assert g.traffic.feature_extraction == w.traffic.feature_extraction
        assert g.traffic.sorting == w.traffic.sorting
        assert g.traffic.rasterization == w.traffic.rasterization
        assert g.memory_time_s == w.memory_time_s
        assert g.compute_time_s == w.compute_time_s


class TestGoldenEquivalence:
    def test_every_registered_system_matches_scalar_reference(self, workload_model):
        for name in registered_systems():
            model, tile = build_system_model(name, dram=DramConfig())
            workloads = workload_model.sequence_workloads("hd", tile)
            _assert_reports_identical(
                model.simulate(workloads, scene="family"),
                reference.scalar_simulate(model, workloads, scene="family"),
            )

    def test_frame_report_matches_scalar_reference(self, workload_model):
        # The single-frame convenience goes through a batch of one; it must
        # agree with the scalar equations frame by frame, including frame 0
        # (Neo's cold-start sort) and later frames (churn-dependent terms).
        for name in registered_systems():
            model, tile = build_system_model(name, dram=DramConfig())
            for w in workload_model.sequence_workloads("hd", tile):
                got = model.frame_report(w)
                want = reference.scalar_frame_report(model, w)
                assert got.memory_time_s == want.memory_time_s, name
                assert got.compute_time_s == want.compute_time_s, name
                assert got.traffic.sorting == want.traffic.sorting, name

    def test_reference_rejects_foreign_models(self):
        class Alien(SystemModel):
            pass

        with pytest.raises(TypeError):
            reference.scalar_frame_report(Alien(), None)


class TestFrameBatch:
    def test_stacks_workload_fields(self, workload_model):
        workloads = workload_model.sequence_workloads("hd", 64)
        batch = FrameBatch.from_workloads(workloads)
        assert batch.num_frames == len(workloads)
        assert list(batch.frame_index) == [w.frame_index for w in workloads]
        assert list(batch.pairs) == [w.pairs for w in workloads]
        assert list(batch.incoming_pairs) == [w.incoming_pairs for w in workloads]
        assert list(batch.pixels) == [w.width * w.height for w in workloads]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FrameBatch.from_workloads([])

    def test_effective_pairs_matches_scalar(self, workload_model):
        from repro.hw.stages import effective_pairs

        workloads = workload_model.sequence_workloads("hd", 16)
        batch = FrameBatch.from_workloads(workloads)
        vec = batch.effective_pairs(250)
        for i, w in enumerate(workloads):
            assert vec[i] == effective_pairs(w, 250)


class TestRegistry:
    def test_systems_tuple_derived_from_registry(self):
        assert set(registered_systems()) >= {"orin", "orin-neo-sw", "gscore", "neo", "neo-s"}

    def test_new_variants_registered(self):
        for name in ("neo-lite", "gscore-32c", "neo-eager-depth"):
            assert name in registered_systems()

    def test_duplicate_registration_raises(self, scratch_registry):
        from repro.hw.accelerator import NeoModel

        @register_system(
            "test-dup", description="x", model_cls=NeoModel, config_cls=NeoConfig
        )
        def build(dram=None, cores=16, **kwargs):
            return NeoModel(**kwargs)

        with pytest.raises(ValueError, match="already registered"):
            register_system(
                "test-dup", description="x", model_cls=NeoModel, config_cls=NeoConfig
            )(build)

    def test_variant_of_unknown_base_raises(self):
        with pytest.raises(KeyError, match="unregistered"):
            register_variant("test-orphan", base="no-such", description="x", overrides={})

    def test_bad_dram_policy_rejected(self):
        with pytest.raises(ValueError, match="dram_policy"):
            register_system(
                "test-bad", description="x", model_cls=object, config_cls=object,
                dram_policy="quantum",
            )

    def test_variants_inherit_and_compose_overrides(self, scratch_registry):
        spec = register_variant(
            "test-neo-s-lite",
            base="neo-s",
            description="compose check",
            overrides={"config": NeoConfig(sorting_cores=4)},
        )
        # Inherits neo-s's overlay and adds its own on top.
        assert spec.override_kwargs["sorting_engine_only"] is True
        assert spec.override_kwargs["config"].sorting_cores == 4
        model = spec.build(dram=DramConfig())
        assert model.sorting_engine_only
        assert model.config.sorting_cores == 4

    def test_explicit_kwargs_win_over_overlay(self):
        model, _tile = build_system_model("neo-s", sorting_engine_only=False)
        assert not model.sorting_engine_only

    def test_variant_custom_name_survives_ablation_flags(self):
        # Only the canonical "neo" renames to neo-s/neo-eager-depth; a
        # variant's own name is not clobbered by its (or extra) flags.
        model, _ = build_system_model("neo-lite", sorting_engine_only=True)
        assert model.name == "neo-lite"
        assert model.config.sorting_cores == 8

    def test_gscore_32c_rejects_conflicting_cores(self):
        # A cores sweep over a pinned-core variant must fail loudly, not
        # silently return 32-core results under 8-core labels/cache keys.
        with pytest.raises(ValueError, match="pins 32 cores"):
            build_system_model("gscore-32c", cores=8)
        model, _ = build_system_model("gscore-32c", cores=32)
        assert model.config.cores == 32
        # The ubiquitous default (16) counts as "unspecified".
        model, _ = build_system_model("gscore-32c", cores=16)
        assert model.config.cores == 32

    def test_base_gscore_still_honors_cores(self):
        model, _ = build_system_model("gscore", cores=8)
        assert model.config.cores == 8

    def test_default_tile_size_for_configless_models(self):
        class Bare(SystemModel):
            pass

        assert Bare().tile_size == 16
        model, tile = build_system_model("neo")
        assert tile == model.config.tile_size == 64

    def test_unknown_system_error_lists_registry_keys(self):
        with pytest.raises(KeyError) as exc:
            get_system("tpu")
        message = str(exc.value)
        for name in registered_systems():
            assert name in message

    def test_build_system_model_unknown_lists_options(self):
        with pytest.raises(KeyError, match="neo-lite"):
            build_system_model("tpu")

    def test_simjob_validates_system_at_declaration(self):
        with pytest.raises(KeyError, match="options"):
            SimJob("tpu", "family", "hd")

    def test_sweep_hardware_config_accepts_variants(self):
        hw = HardwareConfig(system="gscore-32c")
        assert hw.system == "gscore-32c"
        with pytest.raises(ValueError, match="neo-lite"):
            HardwareConfig(system="tpu")

    def test_spec_metadata_introspection(self):
        spec = get_system("neo-s")
        assert spec.base == "neo"
        assert spec.dram_policy == "edge"
        assert "sorting_engine_only" in spec.model_fields()
        assert "tile_size" in spec.config_fields()
        orin = get_system("orin")
        assert orin.dram_policy == "native"
        assert orin.base is None

    def test_iter_systems_order_matches_names(self):
        assert tuple(s.name for s in iter_systems()) == registered_systems()


class TestVariantModels:
    def test_variant_tile_sizes_flow_from_config(self):
        _, neo_tile = build_system_model("neo-lite")
        _, gscore_tile = build_system_model("gscore-32c")
        assert neo_tile == 64
        assert gscore_tile == 16

    def test_neo_lite_slower_than_neo_when_compute_bound(self, workload_model):
        # With abundant bandwidth Neo becomes compute-bound, so halving the
        # sorting/raster engines must cost throughput.
        dram = DramConfig(bandwidth_gbps=2048.0)
        workloads = workload_model.sequence_workloads("qhd", 64)
        full, _ = build_system_model("neo", dram=dram)
        lite, _ = build_system_model("neo-lite", dram=dram)
        assert lite.simulate(workloads).fps < full.simulate(workloads).fps

    def test_gscore_32c_beats_16c(self, workload_model):
        workloads = workload_model.sequence_workloads("qhd", 16)
        base, _ = build_system_model("gscore")
        scaled, _ = build_system_model("gscore-32c")
        assert scaled.simulate(workloads).fps > base.simulate(workloads).fps

    def test_simjob_simulates_variants(self):
        report = SimJob.make("neo-lite", "family", "hd", frames=2).simulate()
        assert report.system == "neo-lite"
        assert report.fps > 0
