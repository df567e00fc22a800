"""Tests for the operator-graph decomposition of an MoE layer (Fig. 20)."""

import pytest

from repro.core.analysis import (
    ep_ffn_comm_volume,
    sp_attention_comm_volume,
    tp_attention_comm_volume,
    tp_ffn_comm_volume,
)
from repro.core.config import MODEL_ZOO, ParallelConfig
from repro.core.operators import (
    Op,
    OpGraph,
    build_backward_graph,
    build_forward_graph,
)
from repro.core.remat import default_remat_plan

MODEL = MODEL_ZOO["mixtral-8x7b"]
STRATEGIES = [
    ParallelConfig.megascale(8),
    ParallelConfig.megatron(8),
    ParallelConfig(8, "sp", "tp"),
    ParallelConfig(8, "tp", "ep"),
    ParallelConfig.megascale(8, ep_dispatch="a2a"),
    ParallelConfig.megascale(8, ep_dispatch="ag_rs"),
]


def gemm_flops(graph):
    return sum(op.flops for op in graph.ops if op.kind == "gemm")


class TestOpValidation:
    def test_comm_needs_pattern(self):
        with pytest.raises(ValueError, match="pattern"):
            Op("x", "comm", comm_bytes=1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown op kind"):
            Op("x", "magic")

    def test_graph_rejects_duplicates(self):
        a = Op("a", "memory", mem_bytes=1)
        with pytest.raises(ValueError, match="duplicate"):
            OpGraph([a, a])

    def test_graph_rejects_unknown_dep(self):
        with pytest.raises(ValueError, match="unknown op"):
            OpGraph([Op("a", "memory", deps=("ghost",))])

    def test_graph_rejects_forward_reference(self):
        a = Op("a", "memory", deps=("b",))
        b = Op("b", "memory")
        with pytest.raises(ValueError, match="before its dependency"):
            OpGraph([a, b])

    def test_graph_rejects_cycle(self):
        a = Op("a", "memory", deps=("b",))
        b = Op("b", "memory", deps=("a",))
        with pytest.raises(ValueError,
                           match="dependency cycle involving ops"):
            OpGraph([a, b])


class TestForwardGraphs:
    @pytest.mark.parametrize("parallel", STRATEGIES,
                             ids=lambda p: f"{p.strategy_name}-"
                             f"{p.ep_dispatch}")
    def test_builds_and_validates(self, parallel):
        graph = build_forward_graph(MODEL, parallel, micro_batch=1)
        assert len(graph) > 10
        assert graph.comm_ops() and any(op.kind != "comm" for op in graph.ops)

    def test_sp_has_two_a2a(self):
        graph = build_forward_graph(MODEL, ParallelConfig.megascale(8), 1)
        a2a = [op for op in graph.comm_ops()
               if op.comm_pattern == "a2a" and "attn" in op.name
               or op.name == "qkv_a2a"]
        assert "qkv_a2a" in graph and "attn_a2a" in graph

    def test_tp_has_ag_rs(self):
        graph = build_forward_graph(MODEL, ParallelConfig.megatron(8), 1)
        assert "attn_ag" in graph and "attn_rs" in graph
        assert "ffn_ag" in graph and "ffn_rs" in graph

    def test_sp_comm_bytes_match_eq2_half(self):
        """Graph attention comm bytes = measured per-pass volume =
        Eq. 2 / 2 (Eq. 2 counts both directions)."""
        b, n = 2, 8
        pc = ParallelConfig.megascale(n)
        graph = build_forward_graph(MODEL, pc, b, elem_bytes=2.0)
        attn_comm = sum(op.comm_bytes for op in graph.comm_ops()
                        if op.name in ("qkv_a2a", "attn_a2a"))
        expected = sp_attention_comm_volume(
            b, MODEL.seq_len, MODEL.hidden_size, n, MODEL.gqa_ratio
        ) / 2.0 * 2.0  # half of Eq. 2, 2 bytes per element
        assert attn_comm == pytest.approx(expected)

    def test_tp_comm_bytes_match_eq1(self):
        b, n = 2, 8
        graph = build_forward_graph(MODEL, ParallelConfig.megatron(n), b,
                                    elem_bytes=2.0)
        attn_comm = sum(op.comm_bytes for op in graph.comm_ops()
                        if op.name in ("attn_ag", "attn_rs"))
        expected = tp_attention_comm_volume(
            b, MODEL.seq_len, MODEL.hidden_size, n) * 2.0
        assert attn_comm == pytest.approx(expected)

    def test_ep_a2a_bytes_match_eq3(self):
        b, n = 1, 8
        pc = ParallelConfig.megascale(n, ep_dispatch="a2a")
        graph = build_forward_graph(MODEL, pc, b, elem_bytes=2.0)
        ffn_comm = sum(op.comm_bytes for op in graph.comm_ops()
                       if "a2a" in op.name and "ffn" not in op.name
                       and op.name in ("dispatch_a2a", "combine_a2a"))
        expected = ep_ffn_comm_volume(
            b, MODEL.seq_len, MODEL.hidden_size, n, MODEL.top_k) * 2.0
        assert ffn_comm == pytest.approx(expected)

    def test_ep_agrs_bytes_match_eq4(self):
        b, n = 1, 8
        pc = ParallelConfig.megascale(n, ep_dispatch="ag_rs")
        graph = build_forward_graph(MODEL, pc, b, elem_bytes=2.0)
        ffn_comm = sum(op.comm_bytes for op in graph.comm_ops()
                       if op.name in ("ffn_ag", "ffn_rs"))
        expected = tp_ffn_comm_volume(
            b, MODEL.seq_len, MODEL.hidden_size, n) * 2.0
        assert ffn_comm == pytest.approx(expected)

    def test_flops_equal_across_ffn_strategies(self):
        """EP and TP FFN do the same arithmetic per rank — only shapes
        and communication differ (§3.2)."""
        ep = build_forward_graph(MODEL,
                                 ParallelConfig.megascale(8), 1)
        tp = build_forward_graph(MODEL, ParallelConfig.megatron(8), 1)
        ep_flops = sum(op.flops for op in ep if op.name.startswith("fc"))
        tp_flops = sum(op.flops for op in tp if op.name.startswith("fc"))
        assert ep_flops == pytest.approx(tp_flops)

    def test_gemm_shapes_reflect_tp_slicing(self):
        ep = build_forward_graph(MODEL, ParallelConfig.megascale(8), 1)
        tp = build_forward_graph(MODEL, ParallelConfig.megatron(8), 1)
        assert ep["fc1"].gemm_shape[2] == MODEL.ffn_hidden_size
        assert tp["fc1"].gemm_shape[2] == MODEL.ffn_hidden_size / 8

    def test_adaptive_dispatch_picks_agrs_for_large_k(self):
        model = MODEL_ZOO["deepseekmoe"]  # top-6 on 8 ranks
        graph = build_forward_graph(model, ParallelConfig.megascale(8), 1)
        assert "ffn_ag" in graph and "ffn_rs" in graph

    def test_fuse_groups_present_for_megascale(self):
        graph = build_forward_graph(MODEL, ParallelConfig.megascale(
            8, ep_dispatch="ag_rs"), 1)
        groups = {op.fuse_group for op in graph if op.fuse_group}
        assert "a2a+attn" in groups or "gemm+a2a" in groups
        assert "ag+scatter+ggemm" in groups
        assert "ggemm+gather+rs" in groups


class TestBackwardGraphs:
    @pytest.mark.parametrize("parallel", STRATEGIES,
                             ids=lambda p: f"{p.strategy_name}-"
                             f"{p.ep_dispatch}")
    def test_builds_with_and_without_remat(self, parallel):
        for remat in (True, False):
            graph = build_backward_graph(
                build_forward_graph(MODEL, parallel, 1),
                selective_remat=remat)
            assert len(graph) > 10

    def test_gemms_double_into_dgrad_wgrad(self):
        fwd = build_forward_graph(MODEL, ParallelConfig.megascale(8), 1)
        bwd = build_backward_graph(fwd, selective_remat=False)
        fwd_gemms = [op for op in fwd if op.kind == "gemm"]
        bwd_gemms = [op for op in bwd if op.kind == "gemm"]
        assert len(bwd_gemms) == 2 * len(fwd_gemms)
        assert gemm_flops(bwd) == pytest.approx(2 * gemm_flops(fwd))

    def test_comm_duals(self):
        bwd = build_backward_graph(
            build_forward_graph(MODEL, ParallelConfig.megatron(8), 1),
            selective_remat=False)
        # Forward AG becomes backward RS and vice versa.
        assert bwd["attn_ag.bwd"].comm_pattern == "rs"
        assert bwd["attn_rs.bwd"].comm_pattern == "ag"

    def test_a2a_self_dual(self):
        bwd = build_backward_graph(
            build_forward_graph(MODEL, ParallelConfig.megascale(8), 1),
            selective_remat=False)
        assert bwd["qkv_a2a.bwd"].comm_pattern == "a2a"

    def test_remat_ops_inserted(self):
        bwd = build_backward_graph(build_forward_graph(
            MODEL, ParallelConfig.megascale(8, ep_dispatch="ag_rs"), 1),
            selective_remat=True)
        names = [op.name for op in bwd]
        assert "remat.swiglu" in names
        assert "remat.ln2" in names
        assert "remat.ffn_ag" in names
        # fc2 backward depends on the recomputed fc2_in (Fig. 8b).
        assert "remat.swiglu" in bwd["fc2.dgrad"].deps

    def test_remat_recommunication_is_comm(self):
        bwd = build_backward_graph(build_forward_graph(
            MODEL, ParallelConfig.megascale(8, ep_dispatch="ag_rs"), 1),
            selective_remat=True)
        assert bwd["remat.ffn_ag"].kind == "comm"
        assert bwd["remat.ffn_ag"].phase == "remat"

    def test_no_remat_ops_when_disabled(self):
        bwd = build_backward_graph(
            build_forward_graph(MODEL, ParallelConfig.megascale(8), 1),
            selective_remat=False)
        assert not [op for op in bwd if op.phase == "remat"]

    def test_remat_adds_only_cheap_work(self):
        """Rematerialization adds memory-bound and comm ops, never new
        GEMM FLOPs (§4.1: keep what is computationally expensive)."""
        fwd = build_forward_graph(MODEL, ParallelConfig.megascale(8), 1)
        with_remat = build_backward_graph(fwd, selective_remat=True)
        without = build_backward_graph(fwd, selective_remat=False)
        assert gemm_flops(with_remat) == pytest.approx(gemm_flops(without))

    @pytest.mark.parametrize("parallel", STRATEGIES,
                             ids=lambda p: f"{p.strategy_name}-"
                             f"{p.ep_dispatch}")
    def test_every_forward_activation_consumed_or_output(self, parallel):
        """No dead ops: everything the forward graph produces is
        either consumed by a downstream op or is the layer output."""
        fwd = build_forward_graph(MODEL, parallel, 1)
        consumed = {dep for op in fwd for dep in op.deps}
        for op in fwd:
            assert op.name in consumed or op.name == "residual2", \
                f"op {op.name} is produced but never consumed"

    def test_paper_retained_set_matches_produced_activations(self):
        """The retention decision set stays in sync with the IR: every
        activation the paper's plan stores is actually produced by the
        MegaScale forward graph (or is the layer input)."""
        fwd = build_forward_graph(MODEL, ParallelConfig.megascale(
            8, ep_dispatch="a2a"), 1)
        produced = {name for op in fwd for name in op.produces}
        produced.add("hidden")  # the layer input
        assert default_remat_plan().retained <= produced
