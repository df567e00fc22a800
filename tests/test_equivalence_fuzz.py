"""Property-based fuzzing: every parallel configuration must match the
single-rank reference on randomly drawn model shapes.

This is the repository's strongest correctness property: for arbitrary
(valid) combinations of hidden size, head counts, GQA ratio, expert
count, top-k, rank count, strategy, and dispatch mode, the sharded
forward pass and all gradients coincide with the reference model.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import World
from repro.core.config import ModelConfig
from repro.model.transformer import TransformerBlock
from repro.parallel import ParallelBlockEngine, shard_sequence, \
    unshard_sequence
from repro.tensor import Tensor


def valid_configs():
    """Draw (config, n_ranks) pairs satisfying every divisibility rule."""

    @st.composite
    def config(draw):
        n = draw(st.sampled_from([2, 4]))
        gqa = draw(st.sampled_from([1, 2]))
        kv_heads = draw(st.sampled_from([1, 2])) * n
        heads = kv_heads * gqa
        head_dim = draw(st.sampled_from([2, 4]))
        hidden = heads * head_dim
        experts = draw(st.sampled_from([1, 2])) * n
        top_k = draw(st.integers(1, min(3, experts)))
        ffn = draw(st.sampled_from([1, 2, 3])) * n * 2
        seq = draw(st.sampled_from([1, 2])) * n * 2
        batch = draw(st.integers(1, 2))
        cfg = ModelConfig(
            "fuzz", n_layers=1, hidden_size=hidden, n_heads=heads,
            gqa_ratio=gqa, ffn_hidden_size=ffn, n_experts=experts,
            top_k=top_k, vocab_size=16, seq_len=seq)
        attn = draw(st.sampled_from(["sp", "tp"]))
        ffn_strategy = draw(st.sampled_from(["ep", "tp"]))
        ep_mode = draw(st.sampled_from(["a2a", "ag_rs"]))
        seed = draw(st.integers(0, 10 ** 6))
        return cfg, n, batch, attn, ffn_strategy, ep_mode, seed

    return config()


class TestParallelEquivalenceFuzz:
    @given(valid_configs())
    @settings(max_examples=30, deadline=None)
    def test_block_forward_and_gradients(self, case):
        cfg, n, batch, attn, ffn, ep_mode, seed = case
        rng = np.random.default_rng(seed)
        block = TransformerBlock(np.random.default_rng(seed + 1), cfg,
                                 dtype=np.float64)
        x = rng.standard_normal((batch, cfg.seq_len, cfg.hidden_size))

        # Reference.
        xt = Tensor(x, requires_grad=True)
        ref_hidden, ref_moe = block(xt)
        g = rng.standard_normal(ref_hidden.shape)
        scalar = (ref_hidden * Tensor(g)).sum() + ref_moe.aux_loss
        scalar.backward()
        ref_out = ref_hidden.data.copy()
        ref_dx = xt.grad.copy()
        ref_grads = {name: p.grad.copy()
                     for name, p in block.named_parameters()
                     if p.grad is not None}
        block.zero_grad()

        # Parallel.
        world = World(n, n)
        engine = ParallelBlockEngine(world.full_group(), block, attn,
                                     ffn, ep_mode)
        shards = shard_sequence(x, n, requires_grad=True)
        outs, aux = engine.forward(shards, cfg.seq_len)
        np.testing.assert_allclose(unshard_sequence(outs), ref_out,
                                   atol=1e-8)

        width = cfg.seq_len // n
        total = None
        for r, out in enumerate(outs):
            piece = (out * Tensor(
                g[:, r * width:(r + 1) * width])).sum()
            total = piece if total is None else total + piece
        total = total + aux
        total.backward()

        dx = np.concatenate([s.grad for s in shards], axis=1)
        np.testing.assert_allclose(dx, ref_dx, atol=1e-8)
        for name, expected in ref_grads.items():
            actual = dict(block.named_parameters())[name].grad
            assert actual is not None, name
            np.testing.assert_allclose(actual, expected, atol=1e-8,
                                       err_msg=f"{name} under "
                                               f"{attn}+{ffn}/{ep_mode}")
        # An expert the reference left idle has no gradient here either.
        assert {name for name, p in block.named_parameters()
                if p.grad is not None} == set(ref_grads)
        block.zero_grad()
