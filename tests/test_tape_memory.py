"""The tape's memory contract (docs/INTERNALS.md §16).

Each node keeps only what its backward reads, edges point at producer
nodes (never at input Tensors), and ``backward()`` frees the graph as
it sweeps — so a second sweep through it fails loudly.
"""

import numpy as np
import pytest

from repro.comm import World
from repro.core import (
    MegaScaleTrainer,
    ModelConfig,
    ParallelConfig,
    TrainConfig,
)
from repro.model import MoETransformer
from repro.model.moe import Expert
from repro.tensor import ConsumedGraphError, Node, Tensor, graph_order, ops
from repro.tensor.checkpoint import tape_live_bytes, tape_saved_arrays

CONFIG = ModelConfig("mini", n_layers=2, hidden_size=32, n_heads=8,
                     gqa_ratio=2, ffn_hidden_size=48, n_experts=8,
                     top_k=2, vocab_size=64, seq_len=16)


def sp_ep_trainer(dispatch, precision="fp32"):
    return MegaScaleTrainer(
        MoETransformer(CONFIG, seed=0), World(4, 4),
        ParallelConfig(4, attention="sp", ffn="ep", ep_dispatch=dispatch),
        TrainConfig(global_batch_size=2, micro_batch_size=2, seq_len=16,
                    precision=precision))


def batch():
    return np.random.default_rng(0).integers(0, 64, (2, 17))


def saved_arrays(node):
    """Name -> value of every activation-like array (float, at least
    1-D) the node's backward closure captured, directly, in a list or
    tuple (``name[i]``) or as a Tensor's data."""
    fn = node.backward_fn
    found = {}
    stack = list(zip(fn.__code__.co_freevars,
                     (c.cell_contents for c in fn.__closure__ or ())))
    while stack:
        name, value = stack.pop()
        if isinstance(value, Tensor):
            value = value.data
        if isinstance(value, (list, tuple)):
            stack += [(f"{name}[{i}]", v) for i, v in enumerate(value)]
        elif (isinstance(value, np.ndarray) and value.ndim
              and value.dtype.kind == "f"):
            found[name] = value
    return found


class TestEdges:
    def test_edges_name_producers_leaves_and_constants(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        h = x * 2.0
        out = h @ Tensor(rng.standard_normal((4, 2)))
        assert out.node.edges == (h.node, None)
        assert h.node.edges[0] is x and h.node.edges[1] is None
        assert (out.node.shape, out.node.dtype) == ((3, 2), out.dtype)

    def test_order_lists_inputs_before_consumers(self, rng):
        x = Tensor(rng.standard_normal(4), requires_grad=True)
        h = x.exp()
        loss = (h * h).sum()
        order = graph_order(loss)
        assert order[0] is x and order[-1] is loss.node
        assert order.index(h.node) < order.index(loss.node)

    def test_intermediate_arrays_are_not_held(self, rng):
        """``h``'s array is only reachable through ``h``: the tape keeps
        ``h.sum()``'s node, which saves nothing."""
        import weakref
        x = Tensor(rng.standard_normal((8, 8)), requires_grad=True)
        h = x + 1.0
        ref = weakref.ref(h.data)
        loss = h.sum()
        del h
        assert ref() is None
        loss.backward()
        np.testing.assert_array_equal(x.grad, np.ones((8, 8)))


class TestConsumedGraph:
    def test_backward_frees_the_tape(self, rng):
        x = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        loss = (x.exp() * x).sum()
        assert tape_live_bytes(loss) > 0
        loss.backward()
        assert tape_live_bytes(loss) == 0.0
        assert loss.node.backward_fn is None and loss.node.edges is None

    def test_second_backward_raises_naming_the_op(self, rng):
        x = Tensor(rng.standard_normal(3), requires_grad=True)
        loss = x.tanh().sum()
        loss.backward()
        with pytest.raises(ConsumedGraphError, match="'sum'"):
            loss.backward()
        assert issubclass(ConsumedGraphError, RuntimeError)

    def test_a_shared_ancestor_is_consumed_by_the_first_root(self, rng):
        x = Tensor(rng.standard_normal(3), requires_grad=True)
        shared = x.sigmoid()
        a, b = (shared * 2.0).sum(), (shared * 3.0).sum()
        a.backward()
        grad = x.grad.copy()
        with pytest.raises(ConsumedGraphError, match="'sigmoid'"):
            b.backward()
        np.testing.assert_array_equal(x.grad, grad)  # no partial sweep

    def test_leaf_root_backward_accumulates(self, rng):
        x = Tensor(rng.standard_normal(3), requires_grad=True)
        x.backward(np.ones(3))
        x.backward(np.ones(3))
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0))


class TestSavedSets:
    def test_sdpa_saves_q_k_v_and_p(self, rng):
        q = Tensor(rng.standard_normal((1, 4, 6, 8)), requires_grad=True)
        k = Tensor(rng.standard_normal((1, 2, 6, 8)), requires_grad=True)
        v = Tensor(rng.standard_normal((1, 2, 6, 8)), requires_grad=True)
        out = ops.scaled_dot_product_attention(q, k, v)
        saved = saved_arrays(out.node)
        assert sorted(saved) == ["k_saved", "probs", "qd", "v_saved"]
        # K/V are kept with their 2 kv heads, not repeated to 4.
        assert saved["qd"] is q.data
        assert saved["k_saved"] is k.data and saved["v_saved"] is v.data
        assert saved["probs"].shape == (1, 4, 6, 6)

    def test_grouped_swiglu_saves_rows_gate_and_lin(self, rng):
        experts = [Expert(np.random.default_rng(1), 8, 12) for _ in range(2)]
        rows = Tensor(rng.standard_normal((5, 8)).astype(np.float32),
                      requires_grad=True)
        out = ops.grouped_swiglu(
            rows, [(x.fc1, x.fc3, x.fc2) for x in experts],
            [(0, 0, 2), (1, 2, 5)])
        params = {id(p.data) for x in experts for p in x.parameters()}
        saved = {name: a for name, a in saved_arrays(out.node).items()
                 if id(a) not in params}
        assert sorted(saved) == ["gate", "lin", "x"]
        assert saved["x"] is rows.data
        assert saved["gate"].shape == saved["lin"].shape == (5, 12)

    def test_rmsnorm_saves_x_and_inverse_rms(self, rng):
        x = Tensor(rng.standard_normal((3, 8)), requires_grad=True)
        w = Tensor(np.ones(8), requires_grad=True)
        out = ops.rmsnorm(x, w)
        saved = saved_arrays(out.node)
        assert sorted(saved) == ["inv_rms", "w", "x"]
        assert saved["x"] is x.data and saved["w"] is w.data
        assert saved["inv_rms"].shape == (3, 1)

    @pytest.mark.parametrize("dispatch,precision", [
        ("a2a", "fp32"), ("ag_rs", "fp32"), ("a2a", "fp8"),
        ("ag_rs", "fp8")])
    def test_no_collective_dual_saves_an_activation(self, dispatch,
                                                    precision):
        total, _, _ = sp_ep_trainer(dispatch, precision).loss(batch())
        duals = [v for v in graph_order(total)
                 if type(v) is Node and v.op_name.startswith("dist_")]
        assert {v.op_name for v in duals} >= {"dist_all_to_all"}
        for node in duals:
            assert saved_arrays(node) == {}, node.op_name


class TestForwardEndBytes:
    """What one SP+EP forward leaves on the tape, parameters excluded.

    Pinned exactly: a closure that starts saving one more array moves
    these numbers.  The collective duals hold no offset arrays (they
    compute Python-int offsets when backward runs).
    """

    @pytest.mark.parametrize("dispatch,nbytes", [
        ("a2a", 212_316.0), ("ag_rs", 222_472.0)])
    def test_pinned(self, dispatch, nbytes):
        trainer = sp_ep_trainer(dispatch)
        total, _, _ = trainer.loss(batch())
        params = [p.data for p in trainer.params]
        assert tape_live_bytes(total, exclude=params) == nbytes
        total.backward()
        assert tape_live_bytes(total, exclude=params) == 0.0


class TestSavedArrayWalk:
    @pytest.mark.parametrize("keyword_only", [False, True])
    def test_an_array_held_as_a_default_argument_is_counted(
            self, keyword_only):
        """A backward can keep an array alive through its defaults as
        well as its closure; the walker sees both."""
        x = Tensor(np.ones(4), requires_grad=True)
        held = np.zeros(16)
        if keyword_only:
            def backward(g, *, held=held):
                return (g,)
        else:
            def backward(g, held=held):
                return (g,)
        out = Tensor.from_op(x.data * 2.0, [x], backward, "probe")
        assert [id(a) for a in tape_saved_arrays(out)] == [id(held)]
        assert tape_live_bytes(out) == held.nbytes
