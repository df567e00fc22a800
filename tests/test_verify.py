"""Differential verification subsystem (repro.verify) tests.

Three layers of coverage: the case/registry plumbing, the conformance
engine on known-good plans, and — most importantly — proof that the
invariants *catch* injected bugs: a bit-flipped collective payload is
flagged and shrunk to a minimal reproducer, a mis-wired op binding
fails the golden comparison, and each invariant detects a
hand-tampered artifact of its bug class.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import executor_bindings
from repro.tensor import Tensor
from repro.verify import (
    ConformanceReport,
    VerifyCase,
    registered_invariants,
    run_case,
    run_matrix,
    shrink,
    smoke_matrix,
    tolerance_for_precision,
)
from repro.verify import invariants as inv
from repro.verify.engine import (
    _batches,
    _dp_leg_dtypes,
    _make_trainer,
    _run_golden,
    _run_parallel,
    _tape_probe,
)
from repro.verify.fuzz import (
    _shrink_candidates,
    corrupting_world_setup,
    sample_case,
)

#: A deliberately tiny config so each differential run stays cheap.
SMALL = dict(ranks=2, layers=1, hidden=16, heads=4, gqa_ratio=2,
             ffn_hidden=16, experts=2, top_k=1, vocab=32, batch=1,
             seq=4, steps=1)


def small_case(**kw):
    return VerifyCase(**{**SMALL, **kw})


class TestVerifyCase:
    def test_defaults_valid(self):
        case = VerifyCase()
        assert case.ranks == 4
        assert case.case_id.startswith("sp-ep-a2a-fp32-r4")

    @pytest.mark.parametrize("changes", [
        dict(heads=6),            # not divisible by ranks=4
        dict(experts=6),          # not divisible by ranks=4
        dict(seq=10),             # not divisible by ranks=4
        dict(hidden=36),          # not divisible by heads=8
        dict(top_k=9),            # > experts
        dict(ep_dispatch="ring"),
        dict(precision="fp4"),
        dict(tile_tokens=3),      # does not divide seq/ranks=4
        dict(gqa_ratio=3),        # does not divide heads=8
        dict(steps=0),
        dict(dtype="float16"),
    ])
    def test_validation_rejects(self, changes):
        with pytest.raises(ValueError):
            VerifyCase(**changes)

    def test_replace_revalidates(self):
        case = VerifyCase()
        with pytest.raises(ValueError):
            case.replace(ranks=3)

    def test_case_id_distinguishes_fields(self):
        ids = {
            VerifyCase().case_id,
            VerifyCase(tile_tokens=2).case_id,
            VerifyCase(precision="fp8").case_id,
            VerifyCase(ep_dispatch="ag_rs").case_id,
            VerifyCase(seed=9).case_id,
            VerifyCase(dtype="float32").case_id,
        }
        assert len(ids) == 6

    def test_smoke_matrix_covers_grid(self):
        matrix = smoke_matrix()
        assert len({c.case_id for c in matrix}) == len(matrix) == 12
        # One Megatron TP+TP leg trains the TP engines.
        tp = [c for c in matrix if (c.attention, c.ffn) != ("sp", "ep")]
        assert [(c.attention, c.ffn, c.dtype) for c in tp] == [
            ("tp", "tp", "float64")]
        matrix = [c for c in matrix if c not in tp]
        # The production layout (Fig. 4) at n=2 pp=2 dp=2, in float32
        # and with FP8 comm.
        layered = [c for c in matrix if (c.pp, c.dp) != (1, 1)]
        assert {(c.ranks, c.pp, c.dp) for c in layered} == {(2, 2, 2)}
        assert {(c.dtype, c.precision) for c in layered} == {
            ("float32", "fp32"), ("float64", "fp8")}
        matrix = [c for c in matrix if c not in layered]
        # The production default dtype has conformance legs of its own:
        # both EP dispatches and one tiled case.
        f32 = [c for c in matrix if c.dtype == "float32"]
        assert {(c.ep_dispatch, c.tile_tokens is not None)
                for c in f32} == {("a2a", False), ("ag_rs", False),
                                  ("a2a", True)}
        cases = [c for c in matrix if c.dtype == "float64"]
        assert len(cases) == 6
        assert {c.ep_dispatch for c in cases} == {"a2a", "ag_rs"}
        assert {c.precision for c in cases} == {"fp32", "fp8"}
        # One tiled (§4.2) leg per dispatch.
        tiled = [c for c in cases if c.tile_tokens is not None]
        assert {c.ep_dispatch for c in tiled} == {"a2a", "ag_rs"}
        assert len(tiled) == 2


class TestLayeredCases:
    """Cases over ``ranks · pp · dp`` ranks (the production layout)."""

    def test_case_id_suffix_only_off_one(self):
        base = VerifyCase()
        assert "pp" not in base.case_id and "dp" not in base.case_id
        case = VerifyCase(ranks=2, pp=2, dp=2, batch=4)
        assert case.case_id.endswith("-pp2-dp2")
        assert case.micro_batch == 1
        parallel = case.parallel_config()
        assert (parallel.pipeline_size, parallel.data_parallel_size,
                parallel.total_gpus) == (2, 2, 8)

    @pytest.mark.parametrize("changes", [
        dict(pp=2, dp=2),                     # batch 2 < pp·dp
        dict(pp=3, batch=3),                  # 2 layers, 3 stages
        dict(dp=0),
        dict(dp=2, resize=((1, 2, 3),), steps=2),  # batch 2, dp 3
    ])
    def test_validation(self, changes):
        with pytest.raises(ValueError):
            VerifyCase(**changes)

    def test_plan_cases_keep_pp_and_dp(self):
        """The planner's n=8 pp=20 dp=9 winner becomes an n=2 pp=2 dp=2
        case: every parallel axis it uses stays live, on 8 ranks."""
        from repro.verify import plan_conformance_cases
        (case,) = plan_conformance_cases(pp=20, dp=9)
        assert (case.ranks, case.pp, case.dp) == (2, 2, 2)
        (case,) = plan_conformance_cases(dp=9)
        assert (case.ranks, case.pp, case.dp) == (4, 1, 2)
        (case,) = plan_conformance_cases()
        assert (case.ranks, case.pp, case.dp) == (4, 1, 1)
        assert case.batch == 2

    def test_sync_split_passes_on_the_3d_leg(self):
        result = run_case(VerifyCase(ranks=2, pp=2, dp=2, batch=4,
                                     dtype="float32"))
        assert result.ok, result.failures()
        assert result.outcome("sync_split").status == "pass"
        assert run_case(small_case()).outcome("sync_split").status == \
            "skip"

    def test_sync_split_catches_a_skipped_leg(self, monkeypatch):
        """A hierarchical sync whose intra-node all-gather moves the
        data but never reaches the ledger must fail the A.1 check."""
        from repro.comm import hierarchical
        gather = hierarchical.all_gather

        def unrecorded_intra_ag(group, shards, tag="", **kw):
            ledger = group.world.ledger
            skip = tag.endswith(":intra_ag")
            ledger.enabled = not skip
            try:
                return gather(group, shards, tag=tag, **kw)
            finally:
                ledger.enabled = True

        monkeypatch.setattr(hierarchical, "all_gather",
                            unrecorded_intra_ag)
        split = run_case(VerifyCase(ranks=2, pp=2, dp=2, batch=4,
                                    dtype="float32")
                         ).outcome("sync_split")
        assert split.status == "fail"
        assert split.detail.startswith("intra-node sync moved")


class TestRegistry:
    def test_builtin_invariants_present(self):
        names = [i.name for i in registered_invariants()]
        for expected in ("finiteness", "golden_loss", "golden_grads",
                         "golden_params", "tile_bitwise",
                         "dag_schedule_conformance",
                         "token_conservation", "router_mass",
                         "comm_audit", "dtype_stable", "tape_released",
                         "sync_split"):
            assert expected in names

    def test_fp8_bands_looser_than_fp32(self):
        for kind in ("loss", "grads", "params"):
            assert (tolerance_for_precision("fp8", kind).rtol
                    > tolerance_for_precision("fp32", kind).rtol)

    def test_float32_models_get_a_rounding_floor(self):
        for kind in ("loss", "grads"):
            assert (tolerance_for_precision("fp32", kind, "float32").rtol
                    > tolerance_for_precision("fp32", kind).rtol)
        # ... which never tightens a band that is already looser.
        assert (tolerance_for_precision("fp8", "loss", "float32")
                == tolerance_for_precision("fp8", "loss"))

    def test_unknown_band_raises(self):
        with pytest.raises(KeyError):
            tolerance_for_precision("fp32", "perplexity")

    def test_register_custom_invariant(self):
        custom = inv.Invariant(
            name="always_green", description="test-only",
            applies=lambda case: True, check=lambda art: [])
        try:
            inv.register_invariant(custom)
            assert custom in registered_invariants()
            result = run_case(small_case())
            assert result.outcome("always_green").status == "pass"
        finally:
            del inv._REGISTRY["always_green"]

    def test_applies_gates_to_skip(self):
        result = run_case(small_case())  # untiled
        assert result.outcome("tile_bitwise").status == "skip"
        assert result.outcome("dag_schedule_conformance").status \
            == "pass"
        # fp8-only skip: golden params checked for uncompressed comm
        assert result.outcome("golden_params").status == "pass"
        fp8 = run_case(small_case(precision="fp8",
                                  ep_dispatch="ag_rs"))
        assert fp8.outcome("golden_params").status == "skip"


class TestConformance:
    @pytest.mark.parametrize("tile_tokens", [None, 1])
    @pytest.mark.parametrize("dispatch", ["a2a", "ag_rs"])
    def test_known_good_plans_conform(self, tile_tokens, dispatch):
        result = run_case(small_case(tile_tokens=tile_tokens,
                                     ep_dispatch=dispatch))
        assert result.ok, [f.detail for f in result.failures()]
        assert result.outcome("golden_loss").status == "pass"
        assert result.outcome("dag_schedule_conformance").status \
            == "pass"
        if tile_tokens is not None:
            assert result.outcome("tile_bitwise").status == "pass"

    def test_single_rank_case_conforms(self):
        result = run_case(small_case(ranks=1, experts=1, seq=4))
        assert result.ok, [f.detail for f in result.failures()]
        # Eq. 1-4 describe inter-rank traffic; skipped at world size 1.
        assert result.outcome("comm_audit").status == "skip"

    def test_report_render(self):
        report = run_matrix([small_case(), small_case(seed=3)])
        text = report.render()
        assert "conformance matrix" in text
        assert small_case().case_id in text
        assert "2 cases, 2 conformant, 0 failing" in text

    def test_empty_report(self):
        assert ConformanceReport(results=[]).render() == "(no cases run)"


class TestInjectedViolations:
    """Reverting a bugfix / injecting a perturbation must be *caught*."""

    def test_bitflip_breaks_tile_identity(self):
        """Call 0 is the first chunk of the tiled qkv all-to-all."""
        case = small_case(tile_tokens=1)
        clean = run_case(case)
        assert clean.ok
        hurt = run_case(case, world_setup=corrupting_world_setup(seed=0))
        assert not hurt.ok
        failing = {f.name for f in hurt.failures()}
        assert "tile_bitwise" in failing

    def test_bitflip_caught_by_golden_on_sequential(self):
        hurt = run_case(small_case(),
                        world_setup=corrupting_world_setup(seed=0))
        assert not hurt.ok
        failing = {f.name for f in hurt.failures()}
        assert failing & {"golden_loss", "golden_grads",
                          "golden_params"}

    def test_shrink_finds_minimal_reproducer(self):
        original = small_case(tile_tokens=1,
                              layers=2, steps=2, batch=2, seq=8,
                              experts=4, top_k=2)

        def fails(case):
            return not run_case(
                case, world_setup=corrupting_world_setup(seed=0)).ok

        assert fails(original)
        minimal = shrink(original, fails)
        assert fails(minimal)
        # Strictly smaller, and a local minimum: no candidate
        # reduction of the minimal case still fails.
        def size(c):
            return (c.ranks, c.layers, c.steps, c.batch, c.seq,
                    c.experts, c.top_k)


        assert size(minimal) != size(original)
        assert all(a <= b for a, b in zip(size(minimal),
                                          size(original)))
        assert all(not fails(c) for c in _shrink_candidates(minimal))

    def test_shrink_respects_eval_budget(self):
        calls = []

        def fails(case):
            calls.append(case)
            return True  # everything "fails": shrink to the floor

        shrink(small_case(tile_tokens=1, layers=2, steps=2),
               fails, max_evals=3)
        assert len(calls) <= 3


def _unit_gate_weights(router_values):
    """Both dispatch modes' router tuples end ``(..., weights, aux)``."""
    return [(*head, Tensor(np.ones_like(weights.data)), aux)
            for *head, weights, aux in router_values]


#: name -> (ops whose binding is mis-wired, anchor it reads wrongly,
#: what it is given instead).  Each is a bug only the *sequencing* of
#: ops can have — the class the deleted second spelling of the layer
#: used to be compared against.
WIRING_MUTANTS = {
    # attention reads the un-normed layer input
    "no_attn_norm": (("qkv_proj",), "ln1", lambda env: env["hidden"]),
    # the combine ignores the gate weights (A2A packs them onto the
    # dispatch wire at its scatter)
    "no_gate_weights": (("weighted_sum", "gather", "scatter"), "router",
                        lambda env: _unit_gate_weights(env["router"])),
    # the FFN residual is taken from the layer input
    "wrong_residual": (("residual2",), "residual1",
                       lambda env: env["hidden"]),
}


class TestWiringMutants:
    """The golden model must catch a mis-wired binding on its own."""

    @pytest.mark.parametrize("dispatch", ["a2a", "ag_rs"])
    @pytest.mark.parametrize("mutant", sorted(WIRING_MUTANTS))
    def test_golden_catches_miswired_binding(self, monkeypatch, mutant,
                                             dispatch):
        case = small_case(ep_dispatch=dispatch, experts=4, top_k=2)
        assert run_case(case).ok
        ops, anchor, instead = WIRING_MUTANTS[mutant]
        build = executor_bindings.build_layer_bindings
        hit = []

        def miswire(binding):
            def seq(ctx):
                env = {**ctx.env, anchor: instead(ctx.env)}
                return binding.seq(executor_bindings._SeqCtx(ctx.group,
                                                             env))
            hit.append(binding.op)
            return dataclasses.replace(binding, seq=seq)

        def mutated(engine, seq_len, tile_plan=None):
            return [miswire(b) if b.op in ops else b
                    for b in build(engine, seq_len, tile_plan)]

        monkeypatch.setattr(executor_bindings, "build_layer_bindings",
                            mutated)
        result = run_case(case)
        assert hit, "mutant touched no binding"
        failing = {f.name for f in result.failures()}
        assert failing & {"golden_loss", "golden_grads"}, failing
        # Structurally the run is still a conformant schedule: only
        # the numeric oracle can see the bug.
        assert "dag_schedule_conformance" not in failing


class TestDtypeContract:
    """One compute dtype from embedding to loss (INTERNALS §17)."""

    @pytest.mark.parametrize("kw", [
        dict(ep_dispatch="a2a"),
        dict(ep_dispatch="ag_rs"),
        dict(tile_tokens=1),
        dict(attention="tp", ffn="tp"),
    ])
    def test_float32_plans_conform(self, kw):
        result = run_case(small_case(dtype="float32", **kw))
        assert result.ok, [f.detail for f in result.failures()]
        assert result.outcome("dtype_stable").status == "pass"
        assert result.outcome("golden_grads").status == "pass"
        # Adam turns rounding-level gradient noise into +-lr steps.
        assert result.outcome("golden_params").status == "skip"

    @pytest.mark.parametrize("kw", [
        dict(),
        dict(tile_tokens=1),
    ])
    def test_float64_rope_tables_are_caught(self, monkeypatch, kw):
        """The parent commit's RoPE multiplied by float64 tables: the
        stream leaves float32 at ``rope`` and every collective after it
        moves twice the Eq. 1-4 bytes."""
        from repro.tensor import ops
        tables = ops.rope_tables
        monkeypatch.setattr(
            ops, "rope_tables",
            lambda positions, head_dim, base, dtype:
                tables(positions, head_dim, base, np.float64))
        result = run_case(small_case(dtype="float32", ranks=2,
                                     experts=4, top_k=2, seq=8, **kw))
        stable = result.outcome("dtype_stable")
        assert stable.status == "fail"
        assert stable.detail.startswith("op 'rope' is the first of")
        assert "float64" in stable.detail
        audit = result.outcome("comm_audit")
        assert audit.status == "fail" and "sp_attention" in audit.detail
        # The float64 legs cannot see it: the cast is a no-op there.
        assert run_case(small_case(**kw)).ok

    def test_float64_dp_gradients_are_caught(self, monkeypatch):
        """The parent commit's hierarchical sync handed back float64
        gradients whatever it was given; the DP leg (dp=2, BF16
        all-to-all) must see that."""
        from repro.comm import hierarchical
        sync = hierarchical._bf16_a2a_sum
        monkeypatch.setattr(
            hierarchical, "_bf16_a2a_sum",
            lambda *a, **kw: [g.astype(np.float64)
                              for g in sync(*a, **kw)])
        kw = dict(ranks=2, experts=4, top_k=2, seq=8)
        stable = run_case(small_case(dtype="float32", **kw)
                          ).outcome("dtype_stable")
        assert stable.status == "fail"
        assert "(DP leg) not float32 (first: dp.grad/" in stable.detail
        # The float64 legs cannot see it: the cast is a no-op there.
        assert run_case(small_case(**kw)).ok

    def test_flags_widened_grads_and_params(self):
        case = small_case(dtype="float32")
        art = _run_parallel(case)
        art.tape_dtypes = [("rope", "float32")]
        assert "no DP leg" in inv._check_dtype_stable(art)[0]
        art.update_dtypes.update(_dp_leg_dtypes(case))
        assert inv._check_dtype_stable(art) == []
        art.update_dtypes["opt.v/3"] = "float64"
        assert "opt.v/3 is float64" in inv._check_dtype_stable(art)[0]
        art.update_dtypes["opt.v/3"] = "float32"
        name = next(iter(art.params))
        art.params[name] = art.params[name].astype(np.float64)
        art.final_grads[name] = art.final_grads[name].astype(np.float64)
        problems = inv._check_dtype_stable(art)
        assert len(problems) == 2 and all(name in p for p in problems)
        art.tape_dtypes = []
        assert "no tape" in inv._check_dtype_stable(art)[0]


class TestTapeReleased:
    """``backward()`` frees what the tape saved (INTERNALS §16)."""

    @pytest.mark.parametrize("kw", [
        dict(ep_dispatch="a2a"),
        dict(ep_dispatch="ag_rs", dtype="float32"),
    ])
    def test_probe_watches_arrays_and_none_survive(self, kw):
        _, saved, survivors = _tape_probe(small_case(**kw))
        assert saved > 0 and survivors == []

    def test_a_tape_that_outlives_backward_is_caught(self, monkeypatch):
        """A sweep that leaves every closure reachable — the parent
        commit's tape, whose nodes held their input Tensors until the
        loss died — must fail the invariant."""
        from repro.tensor import Node, graph_order
        sweep = Tensor.backward
        kept = []

        def backward_keeping_closures(self, grad=None):
            kept.extend(v.backward_fn for v in graph_order(self)
                        if type(v) is Node)
            sweep(self, grad)

        monkeypatch.setattr(Tensor, "backward", backward_keeping_closures)
        released = run_case(small_case()).outcome("tape_released")
        assert released.status == "fail"
        assert "arrays the tape saved outlive backward()" in released.detail

    def test_flags_survivors_and_an_empty_probe(self):
        art = _run_parallel(small_case())
        art.tape_saved, art.tape_survivors = 3, []
        assert inv._check_tape_released(art) == []
        art.tape_survivors = ["sdpa (1, 2, 4, 4) float64"]
        assert "1 of 3 arrays" in inv._check_tape_released(art)[0]
        art.tape_saved, art.tape_survivors = 0, []
        assert "watched no saved arrays" in inv._check_tape_released(art)[0]


class TestInvariantChecks:
    """Each check flags a hand-tampered artifact of its bug class."""

    @pytest.fixture()
    def artifacts(self):
        art = _run_parallel(small_case())
        art.golden = _run_golden(small_case())
        return art

    def test_clean_artifacts_pass(self, artifacts):
        assert inv._check_finiteness(artifacts) == []
        assert inv._check_golden_loss(artifacts) == []
        assert inv._check_token_conservation(artifacts) == []
        assert inv._check_router_mass(artifacts) == []
        assert inv._check_comm_audit(artifacts) == []

    def test_finiteness_flags_nan_param(self, artifacts):
        name = next(iter(artifacts.params))
        artifacts.params[name].flat[0] = np.nan
        assert any(name in v for v in
                   inv._check_finiteness(artifacts))

    def test_golden_loss_flags_drift(self, artifacts):
        artifacts.losses[0] *= 1.01
        assert inv._check_golden_loss(artifacts)

    def test_token_conservation_flags_lost_rows(self, artifacts):
        tele = next(t for t in artifacts.telemetry if t is not None)
        tele["tokens_per_rank"][0] -= 1
        assert inv._check_token_conservation(artifacts)

    def test_token_conservation_flags_bad_splits(self, artifacts):
        tele = next(t for t in artifacts.telemetry if t is not None)
        assert tele["mode"] == "a2a" and tele["send_splits"]
        tele["send_splits"][0][0] += 1
        assert inv._check_token_conservation(artifacts)

    def test_router_mass_flags_overweight(self, artifacts):
        tele = next(t for t in artifacts.telemetry if t is not None)
        tele["gate_mass"][0] = tele["gate_mass"][0] + 0.5
        assert inv._check_router_mass(artifacts)

    def test_comm_audit_flags_tampered_counters(self, artifacts):
        for agg in artifacts.ledger.cumulative.values():
            agg["total_bytes"] *= 1.5
        assert inv._check_comm_audit(artifacts)


class TestFP8CommAudit:
    """The fp8 AG/RS FFN wire is priced exactly: 1-byte codes plus one
    FP32 scale per shipped token row, from the quantization shapes."""

    def audit(self):
        art = _run_parallel(small_case(ep_dispatch="ag_rs",
                                       precision="fp8"))
        return inv._check_comm_audit(art)

    def test_real_wire_passes(self):
        assert self.audit() == []

    def test_float32_codes_fail(self, monkeypatch):
        from repro.parallel import dist_ops_fp8 as fp8
        pack, unpack = fp8._pack, fp8._unpack

        def wide_pack(x, fmt, group_size=None):
            buf = pack(x, fmt, group_size)
            wide = buf[:x.size].astype(np.float32).view(np.uint8)
            return np.concatenate([wide, buf[x.size:]])

        def wide_unpack(buf, shape, fmt, group_size=None):
            k = int(np.prod(shape))
            codes = buf[:4 * k].view(np.float32).astype(np.uint8)
            return unpack(np.concatenate([codes, buf[4 * k:]]), shape,
                          fmt, group_size)

        monkeypatch.setattr(fp8, "_pack", wide_pack)
        monkeypatch.setattr(fp8, "_unpack", wide_unpack)
        assert any("ep_ffn_ag_rs" in v for v in self.audit())

    def test_dropped_scales_fail(self, monkeypatch):
        from repro.parallel import dist_ops_fp8 as fp8
        from repro.precision.formats import decode
        pack = fp8._pack
        monkeypatch.setattr(
            fp8, "_pack",
            lambda x, fmt, group_size=None: pack(x, fmt, group_size)[:x.size])
        monkeypatch.setattr(
            fp8, "_unpack",
            lambda buf, shape, fmt, group_size=None:
                decode(buf, fmt).reshape(shape))
        assert any("ep_ffn_ag_rs" in v for v in self.audit())


class TestCompressedWire:
    """The smoke legs that compress move narrow arrays: the collective
    itself sees ``uint8`` FP8 codes and ``uint16`` BF16 words."""

    @pytest.fixture()
    def wire(self, monkeypatch):
        """tag -> dtype names of every delivered forward buffer."""
        from repro.comm.group import ProcessGroup, _flatten_arrays
        seen = {}
        post = ProcessGroup.post_collective

        def observe(self, op, outputs, tag=""):
            seen.setdefault(tag, set()).update(
                a.dtype.name for a in _flatten_arrays(outputs))
            return post(self, op, outputs, tag)

        monkeypatch.setattr(ProcessGroup, "post_collective", observe)
        return seen

    @staticmethod
    def smoke(case_id_part):
        return next(c for c in smoke_matrix() if case_id_part in c.case_id)

    def test_fp8_leg_ships_uint8(self, wire):
        _run_parallel(self.smoke("ag_rs-fp8"))
        for tag in ("ep_ffn:dispatch_ag", "ep_ffn:combine_rs"):
            assert wire[tag] == {"uint8"}

    def test_3d_leg_ships_uint16_between_nodes(self, wire):
        # The smoke leg syncs uncompressed; its plan with §5's DP
        # compression runs the BF16 all-to-all on the inter-node leg.
        case = self.smoke("pp2-dp2")
        _make_trainer(case, dp_comm_compression=True).train_step(
            _batches(case)[0])
        bf16 = {tag for tag in wire if ":inter_bf16_" in tag}
        assert bf16 and all(wire[tag] == {"uint16"} for tag in bf16)

    def test_dp_dtype_leg_ships_uint16(self, wire):
        _dp_leg_dtypes(self.smoke("pp2-dp2-f32"))
        bf16 = {tag for tag in wire if ":inter_bf16_" in tag}
        assert {"dp_grad:inter_bf16_a2a", "dp_grad:inter_bf16_ag"} <= bf16
        assert all(wire[tag] == {"uint16"} for tag in bf16)


class TestFuzzer:
    def test_sampled_cases_are_valid_and_diverse(self):
        rng = np.random.default_rng(0)
        cases = [sample_case(rng) for _ in range(40)]
        # Construction already validated; check the space is covered.
        assert {c.ep_dispatch for c in cases} == {"a2a", "ag_rs"}
        assert {c.precision for c in cases} == {"fp32", "fp8"}
        assert {c.tile_tokens is None for c in cases} == {True, False}
        assert len({c.case_id for c in cases}) > 20

    def test_every_sampled_case_is_held_to_golden(self):
        """No sampled case is checked only against itself: the golden
        loss and gradient invariants apply to every one."""
        golden = [i for i in registered_invariants()
                  if i.name in ("golden_loss", "golden_grads")]
        assert len(golden) == 2
        for seed in range(50):
            case = sample_case(np.random.default_rng(seed))
            for invariant in golden:
                assert invariant.applies(case), (seed, invariant.name)

    def test_sampling_is_deterministic(self):
        a = [sample_case(np.random.default_rng(7)) for _ in range(10)]
        b = [sample_case(np.random.default_rng(7)) for _ in range(10)]
        assert a == b

    def test_shrink_candidates_are_strictly_smaller(self):
        case = VerifyCase(tile_tokens=2)
        for candidate in _shrink_candidates(case):
            assert candidate != case


class TestCli:
    def test_verify_smoke_exit_codes(self, monkeypatch, capsys):
        import repro.__main__ as cli
        import repro.verify as verify

        monkeypatch.setattr(verify, "smoke_matrix",
                            lambda seed=0: [small_case(seed=seed)])
        assert cli.main(["verify", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "conformance matrix" in out
        assert "1 cases, 1 conformant, 0 failing" in out

    def test_verify_failure_exits_nonzero(self, monkeypatch, capsys):
        import repro.__main__ as cli
        import repro.verify as verify

        bad = inv.InvariantResult("golden_loss", "fail", "synthetic")
        from repro.verify.engine import CaseResult

        monkeypatch.setattr(
            verify, "run_matrix",
            lambda cases, progress=None: ConformanceReport(
                [CaseResult(case=cases[0], outcomes=[bad])]))
        assert cli.main(["verify", "--smoke"]) == 1
        assert "FAIL" in capsys.readouterr().out
