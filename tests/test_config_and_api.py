"""Tests for configuration objects and the public API surface."""

import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import (
    GPU_SPECS,
    MODEL_ZOO,
    ModelConfig,
    ParallelConfig,
    TrainConfig,
)
from repro.model import MoETransformer

PACKAGES = [
    "repro", "repro.core", "repro.comm", "repro.tensor", "repro.model",
    "repro.parallel", "repro.precision", "repro.perf", "repro.sim",
    "repro.data",
]


class TestPublicAPI:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_exports_resolve(self, package):
        module = importlib.import_module(package)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{package}.{name}"

    def test_version(self):
        import repro
        assert repro.__version__


class TestModelConfig:
    def test_zoo_matches_table2(self):
        m = MODEL_ZOO["internal-352b"]
        assert (m.n_layers, m.hidden_size, m.n_heads, m.gqa_ratio,
                m.ffn_hidden_size, m.n_experts, m.top_k) == \
            (60, 4096, 32, 4, 14336, 32, 3)
        assert MODEL_ZOO["deepseekmoe"].top_k == 6
        assert MODEL_ZOO["hunyuan-large"].gqa_ratio == 10

    def test_352b_total_params_near_name(self):
        assert MODEL_ZOO["internal-352b"].total_params == \
            pytest.approx(352e9, rel=0.05)

    def test_param_count_matches_real_model(self):
        """Config arithmetic equals the instantiated model, up to the
        final-norm weight the config's per-layer accounting excludes."""
        cfg = ModelConfig("check", 3, 32, 8, 2, 48, 8, 2,
                          vocab_size=64, seq_len=16)
        model = MoETransformer(cfg, seed=0)
        assert sum(p.size for p in model.parameters()) == \
            cfg.total_params + cfg.hidden_size

    def test_activated_less_than_total(self):
        for model in MODEL_ZOO.values():
            assert model.activated_params < model.total_params

    def test_flops_scale_with_topk(self):
        base = MODEL_ZOO["mixtral-8x7b"]
        more = base.scaled(top_k=4)
        assert more.flops_per_token() > base.flops_per_token() * 1.5

    def test_causal_discount(self):
        m = MODEL_ZOO["mixtral-8x7b"]
        assert m.flops_per_token(causal=False) > \
            m.flops_per_token(causal=True)

    def test_validation(self):
        with pytest.raises(ValueError, match="gqa_ratio"):
            ModelConfig("x", 1, 32, 6, 4, 48, 8, 2)
        with pytest.raises(ValueError, match="n_heads"):
            ModelConfig("x", 1, 30, 4, 2, 48, 8, 2)
        with pytest.raises(ValueError, match="top_k"):
            ModelConfig("x", 1, 32, 4, 2, 48, 4, 5)

    @given(st.integers(1, 8), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_train_flops_always_triple_forward(self, layers, k):
        cfg = ModelConfig("p", layers, 32, 8, 2, 48, 8,
                          min(k, 8), vocab_size=64, seq_len=16)
        assert cfg.train_flops_per_token() == \
            pytest.approx(3 * cfg.flops_per_token())


class TestGPUSpec:
    def test_table4_values(self):
        h800 = GPU_SPECS["h800"]
        assert h800.peak_flops == 989e12
        assert h800.nvlink_bandwidth == 400e9
        assert GPU_SPECS["a100"].nvlink_bandwidth == 600e9
        assert GPU_SPECS["h20"].memory_bandwidth == 4.0e12

    def test_ratio_ordering(self):
        def ratio(gpu):  # compute-to-NVLink ratio (Fig. 1)
            return GPU_SPECS[gpu].peak_flops / GPU_SPECS[gpu].nvlink_bandwidth

        assert ratio("h800") > ratio("a100") > ratio("v100")


class TestParallelConfig:
    def test_strategy_names(self):
        assert ParallelConfig.megascale(8).strategy_name == "SP+EP"
        assert ParallelConfig.megatron(8).strategy_name == "TP+TP"

    def test_total_gpus(self):
        pc = ParallelConfig.megascale(8, pipeline_size=15,
                                      data_parallel_size=12)
        assert pc.total_gpus == 1440

    def test_validation(self):
        with pytest.raises(ValueError, match="attention"):
            ParallelConfig(8, "rp", "ep")
        with pytest.raises(ValueError, match="ffn"):
            ParallelConfig(8, "sp", "pp")
        with pytest.raises(ValueError, match="ep_dispatch"):
            ParallelConfig(8, ep_dispatch="ring")
        with pytest.raises(ValueError, match="must be >= 1"):
            ParallelConfig(0)

    def test_dp_attention_is_not_a_strategy(self):
        """Attention runs under TP or SP; plain DP attention (n x the
        activation memory, §3.1) is not an option."""
        with pytest.raises(ValueError, match="attention"):
            ParallelConfig(8, attention="dp")


class TestTrainConfig:
    def test_defaults_match_paper(self):
        tc = TrainConfig()
        assert tc.global_batch_size == 720
        assert tc.seq_len == 8192
        assert tc.precision == "bf16"

    def test_validation(self):
        with pytest.raises(ValueError, match="precision"):
            TrainConfig(precision="fp4")
        with pytest.raises(ValueError, match="batch"):
            TrainConfig(global_batch_size=0)


class TestConfigFieldsAreLive:
    """Every knob is either read by the training loop or listed here as
    read only by the plan/performance model (or a benchmark shim)."""

    #: Fields the trainer does not read, and why.
    MODEL_ONLY = {
        # The job shape the planner and perf model price; the trainer
        # takes its batch shape from the batch it is given.
        "global_batch_size", "seq_len",
        # Interleaved 1F1B is a schedule and bubble model only.
        "virtual_pipeline_size",
        # One-valued shims the frozen wall-clock harness spells.
        "execution", "backend",
    }

    def test_every_field_read_or_model_only(self):
        import dataclasses
        import pathlib
        import re

        import repro.core.trainer as trainer_module

        source = pathlib.Path(trainer_module.__file__).read_text()
        fields = [f.name for config in (ParallelConfig, TrainConfig)
                  for f in dataclasses.fields(config)]
        assert self.MODEL_ONLY <= set(fields)
        for name in fields:
            read = re.search(rf"\.{name}\b", source) is not None
            assert read != (name in self.MODEL_ONLY), (
                f"{name}: read by the trainer={read}, "
                f"listed model-only={name in self.MODEL_ONLY}")
