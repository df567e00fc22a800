"""Vectorized DAG backend: all ranks batched on a leading rank axis.

The contract under test (docs/INTERNALS.md §12): running a layer — or a
whole training step — with ``execution="vectorized"`` is *bitwise
identical* to the classic sequential rank loops, including the
CommLedger byte accounting that feeds the Eq. 1-4 auditor; the
collective permutation helpers are exact data-movement mirrors of the
simulated wire protocol; and the verify/fuzz layer treats the mode as a
first-class citizen (sampled, validated, shrunk toward sequential).
"""

import numpy as np
import pytest

from repro.comm import World
from repro.core.config import ModelConfig, ParallelConfig, TrainConfig
from repro.core.executor_bindings import LayerProgram, layer_program
from repro.core.trainer import MegaScaleTrainer
from repro.data import MarkovCorpus, batch_iterator
from repro.model import MoETransformer
from repro.model.transformer import TransformerBlock
from repro.parallel import ParallelBlockEngine, shard_sequence
from repro.runtime.vectorized import _a2a_permute
from repro.verify.cases import (
    SMOKE_EXECUTIONS,
    VerifyCase,
    elastic_matrix,
    smoke_matrix,
)
from repro.verify.fuzz import _shrink_candidates, sample_case, shrink

RANKS = 4
SEQ = 8


# ---------------------------------------------------------------------------
# _a2a_permute: the balanced all-to-all as a pure axis permutation


def _reference_a2a(data, n, split_axis, concat_axis):
    """The wire-protocol semantics, spelled out with loops: destination
    ``j`` receives every source's ``j``-th split chunk, concatenated
    along the concat axis in source-rank order."""
    outs = []
    for j in range(n):
        chunks = [np.split(data[i], n, axis=split_axis)[j]
                  for i in range(n)]
        outs.append(np.concatenate(chunks, axis=concat_axis))
    return np.stack(outs, axis=0)


class TestA2APermute:
    @pytest.mark.parametrize("split_axis,concat_axis", [
        (0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1),
    ])
    def test_matches_reference_loops(self, rng, split_axis, concat_axis):
        n = 4
        data = rng.standard_normal((n, 8, 4, 12))
        out = _a2a_permute(data, n, split_axis, concat_axis)
        np.testing.assert_array_equal(
            out, _reference_a2a(data, n, split_axis, concat_axis))

    @pytest.mark.parametrize("split_axis,concat_axis", [
        (0, 1), (1, 0), (1, 2),
    ])
    def test_swapped_axes_is_inverse(self, rng, split_axis, concat_axis):
        """a2a with swapped split/concat axes undoes a2a — the router's
        dispatch/return pair is exactly this inverse relation."""
        n = 4
        data = rng.standard_normal((n, 8, 8, 8))
        there = _a2a_permute(data, n, split_axis, concat_axis)
        back = _a2a_permute(there, n, concat_axis, split_axis)
        np.testing.assert_array_equal(back, data)

    def test_zero_copy_view(self, rng):
        """The permutation never copies the payload — that is the whole
        point of simulating the collective on a stacked axis."""
        n = 4
        data = rng.standard_normal((n, 4, 8, 4))
        out = _a2a_permute(data, n, 1, 0)
        assert out.base is not None
        assert np.shares_memory(out, data)


# ---------------------------------------------------------------------------
# Config validation: vectorized execution implies the DAG backend


class TestConfigValidation:
    def test_train_config_rejects_vectorized_engine(self):
        with pytest.raises(ValueError, match="vectorized"):
            TrainConfig(global_batch_size=2, micro_batch_size=2,
                        seq_len=SEQ, execution="vectorized",
                        backend="engine")

    def test_verify_case_rejects_vectorized_engine(self):
        # The VerifyCase default backend is "engine", so the execution
        # alone is not enough — the case must say backend="dag".
        with pytest.raises(ValueError, match="dag"):
            VerifyCase(execution="vectorized")
        with pytest.raises(ValueError, match="dag"):
            VerifyCase(execution="vectorized", backend="engine")

    def test_verify_case_id_and_twin(self):
        case = VerifyCase(execution="vectorized", backend="dag")
        assert "vec" in case.case_id.split("-")
        assert "dag" in case.case_id.split("-")
        twin = case.twin_engine()
        assert twin.execution == "sequential"
        assert twin.backend == "engine"

    def test_trainer_resolves_vectorized_to_dag(self, tiny_config):
        """With backend=None the trainer upgrades to "dag" — the mode
        only exists behind the DAG executor's op bindings."""
        model = MoETransformer(tiny_config, seed=0)
        train = TrainConfig(global_batch_size=2, micro_batch_size=2,
                            seq_len=tiny_config.seq_len,
                            execution="vectorized")
        trainer = MegaScaleTrainer(
            model, World(RANKS, RANKS),
            ParallelConfig(RANKS, attention="sp", ffn="ep"), train)
        assert trainer.execution == "vectorized"
        assert trainer.backend == "dag"
        assert trainer.executor is None

    @pytest.mark.parametrize("matrix", [smoke_matrix, elastic_matrix])
    def test_matrices_sample_vectorized_on_dag(self, matrix):
        cases = matrix()
        vec = [c for c in cases if c.execution == "vectorized"]
        assert vec, "grid must include vectorized cases"
        assert all(c.backend == "dag" for c in vec)
        assert "vectorized" in SMOKE_EXECUTIONS


# ---------------------------------------------------------------------------
# Shuffled-topo bitwise identity: results depend on the graph, not the
# schedule the vectorized walk happens to use.


def _random_topo_order(graph, rng):
    """A random valid topological order via seeded Kahn's algorithm."""
    remaining = {op.name: set(op.deps) for op in graph}
    order = []
    while remaining:
        ready = sorted(n for n, deps in remaining.items() if not deps)
        pick = str(rng.choice(ready))
        order.append(pick)
        del remaining[pick]
        for deps in remaining.values():
            deps.discard(pick)
    return order


class TestShuffledTopoVectorized:
    @pytest.mark.parametrize("attn,ffn,dispatch", [
        ("sp", "ep", "a2a"), ("tp", "ep", "a2a"),
    ])
    def test_shuffled_order_is_bitwise_identical(self, rng, tiny_config,
                                                 attn, ffn, dispatch):
        layer_input = rng.standard_normal((2, SEQ,
                                           tiny_config.hidden_size))

        def run(program, vectorized):
            block = TransformerBlock(np.random.default_rng(0),
                                     tiny_config, dtype=np.float64)
            world = World(RANKS, RANKS)
            engine = ParallelBlockEngine(world.full_group(), block,
                                         attn, ffn, ep_mode=dispatch)
            outs, aux = engine.forward(
                shard_sequence(layer_input, RANKS), SEQ,
                dag_program=program, vectorized=vectorized)
            return [o.data for o in outs], aux.item()

        parallel = ParallelConfig(RANKS, attention=attn, ffn=ffn,
                                  ep_dispatch=dispatch)
        program = layer_program(tiny_config, parallel, 2, SEQ)
        outs_ref, aux_ref = run(program, vectorized=False)

        order = _random_topo_order(program.graph,
                                   np.random.default_rng(7))
        assert order != program.order
        shuffled = LayerProgram(graph=program.graph,
                                tasks=program.tasks, order=order,
                                durations=program.durations)
        outs, aux = run(shuffled, vectorized=True)
        assert aux == aux_ref
        for a, b in zip(outs, outs_ref):
            np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# Whole-trainer identity: losses, every parameter bit, and the ledger
# (bytes *and* record counts) agree across the three execution paths
# (engine, DAG-sequential, DAG-vectorized).


def _train(execution, backend, attention="sp", ffn="ep",
           ep_dispatch="a2a", dropout=0.0, precision="bf16",
           steps=2):
    cfg = ModelConfig("vec", 2, 32, 8, 2, 48, 8, 2, vocab_size=64,
                      seq_len=16)
    model = MoETransformer(cfg, seed=0, dtype=np.float64)
    train = TrainConfig(global_batch_size=4, micro_batch_size=4,
                        seq_len=16, learning_rate=1e-2,
                        aux_loss_coeff=0.01, execution=execution,
                        backend=backend, dropout=dropout,
                        precision=precision)
    parallel = ParallelConfig(model_parallel_size=RANKS,
                              attention=attention, ffn=ffn,
                              ep_dispatch=ep_dispatch)
    world = World(RANKS, RANKS)
    trainer = MegaScaleTrainer(model, world, parallel, train)
    corpus = MarkovCorpus(vocab_size=64, seed=0)
    batches = list(batch_iterator(corpus, 4, 16, seed=1, limit=steps))
    losses = [trainer.train_step(b).loss for b in batches]
    params = {k: v.copy()
              for k, v in trainer.model.state_dict().items()}
    return losses, params, world.ledger.total_bytes(), \
        world.ledger.counts()


class TestThreeModeIdentity:
    @pytest.mark.parametrize("kwargs", [
        {},
        {"ep_dispatch": "ag_rs"},
        {"attention": "tp", "ffn": "tp"},
        {"dropout": 0.1},
    ], ids=["sp-ep-a2a", "sp-ep-ag_rs", "tp-tp", "dropout"])
    def test_ledger_and_params_identical(self, kwargs):
        runs = {
            "sequential": _train("sequential", "engine", **kwargs),
            "dag": _train("sequential", "dag", **kwargs),
            "vectorized": _train("vectorized", None, **kwargs),
        }
        base_losses, base_params, base_bytes, base_counts = \
            runs["sequential"]
        for mode in ("dag", "vectorized"):
            losses, params, led_bytes, counts = runs[mode]
            assert losses == base_losses, mode
            assert params.keys() == base_params.keys()
            for name in base_params:
                np.testing.assert_array_equal(
                    params[name], base_params[name],
                    err_msg=f"{mode}:{name}")
            # Byte-exact *and* record-exact: the vectorized collectives
            # must emit the same ledger rows the wire protocol does, or
            # the Eq. 1-4 comm auditor silently drifts.
            assert led_bytes == base_bytes, mode
            assert counts == base_counts, mode


# ---------------------------------------------------------------------------
# Fuzzer: vectorized cases are sampled valid and shrink to sequential.


class TestFuzzerVectorized:
    def test_sampler_emits_valid_vectorized_cases(self):
        rng = np.random.default_rng(0)
        cases = [sample_case(rng) for _ in range(60)]
        vec = [c for c in cases if c.execution == "vectorized"]
        assert vec, "sampler must cover the vectorized mode"
        assert all(c.backend == "dag" for c in vec)

    def test_shrink_moves_vectorized_toward_sequential(self):
        case = VerifyCase(execution="vectorized", backend="dag",
                          steps=2, layers=2)
        # An always-failing predicate: the shrinker should reach the
        # global minimum, which runs on the plainest stack there is.
        minimal = shrink(case, lambda c: True)
        assert minimal.execution == "sequential"
        assert minimal.backend == "engine"
        assert minimal.ranks == 1
        assert minimal.layers == 1
        assert minimal.steps == 1

    def test_shrink_candidates_stay_valid(self):
        case = VerifyCase(execution="vectorized", backend="dag",
                          dropout=0.1, steps=2)
        candidates = list(_shrink_candidates(case))
        assert candidates, "a non-minimal case must have neighbors"
        # Construction already validated them; check the key joint
        # constraint explicitly all the same.
        for cand in candidates:
            assert not (cand.execution == "vectorized"
                        and cand.backend != "dag")
        assert any(c.execution == "sequential" for c in candidates)
