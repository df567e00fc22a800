"""Paged KV caches for continuous-batching decode.

vLLM-style paged attention, sized for GQA: the pool stores
``n_kv_heads = n_heads / gqa_ratio`` heads per position (the fused QKV
projection is sliced by :meth:`~repro.model.layers.SelfAttention.split_qkv`,
so only the K/V slices ever land here), in fixed-size token blocks
handed out by a free-list allocator.  A request owns a block table per
its lifetime; eviction and completion return every block, and the
scheduler's shutdown path asserts ``allocated == freed`` — the leak
contract of ISSUE 9.

Keys are cached *post-RoPE* (rotation only depends on the absolute
position, which never changes once written); values are cached raw.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

__all__ = ["KVLeakError", "OutOfKVBlocks", "BlockAllocator", "KVPool",
           "PagedKVCache"]


class KVLeakError(RuntimeError):
    """Blocks (or tracer span stacks) survived scheduler shutdown."""


class OutOfKVBlocks(RuntimeError):
    """The pool cannot satisfy an allocation (caller evicts/defers)."""


class BlockAllocator:
    """LIFO free-list over a fixed block pool, with leak accounting."""

    def __init__(self, n_blocks: int):
        if n_blocks < 1:
            raise ValueError(f"n_blocks must be >= 1, got {n_blocks}")
        self.n_blocks = n_blocks
        self._free: List[int] = list(range(n_blocks - 1, -1, -1))
        self.allocated_total = 0
        self.freed_total = 0

    @property
    def free_blocks(self) -> int:
        return len(self._free)

    @property
    def in_use(self) -> int:
        return self.n_blocks - len(self._free)

    def allocate(self, n: int = 1) -> List[int]:
        """Take ``n`` blocks all-or-nothing; raises :class:`OutOfKVBlocks`."""
        if n < 0:
            raise ValueError(f"cannot allocate {n} blocks")
        if n > len(self._free):
            raise OutOfKVBlocks(
                f"need {n} KV blocks, only {len(self._free)} of "
                f"{self.n_blocks} free"
            )
        taken = [self._free.pop() for _ in range(n)]
        self.allocated_total += n
        return taken

    def free(self, blocks: List[int]) -> None:
        """Return blocks to the pool; double frees are rejected."""
        for b in blocks:
            if not 0 <= b < self.n_blocks:
                raise ValueError(f"block id {b} out of range")
            if b in self._free:
                raise ValueError(f"double free of block {b}")
            self._free.append(b)
        self.freed_total += len(blocks)

    def assert_no_leaks(self) -> None:
        """Shutdown contract: every allocated block was freed."""
        if self.in_use or self.allocated_total != self.freed_total:
            raise KVLeakError(
                f"KV block leak: {self.in_use} blocks still held "
                f"(allocated {self.allocated_total}, freed "
                f"{self.freed_total})"
            )


class KVPool:
    """Per-attention-rank backing store for every request's KV blocks.

    Layout ``[n_layers, n_blocks, block_size, n_kv_heads, head_dim]``
    for K and V separately — the GQA saving is structural: the head
    axis is ``n_kv_heads``, not ``n_heads``.
    """

    def __init__(self, n_layers: int, n_kv_heads: int, head_dim: int,
                 n_blocks: int, block_size: int, dtype=np.float64):
        self.n_layers = n_layers
        self.n_kv_heads = n_kv_heads
        self.head_dim = head_dim
        self.block_size = block_size
        self.allocator = BlockAllocator(n_blocks)
        shape = (n_layers, n_blocks, block_size, n_kv_heads, head_dim)
        self.k = np.zeros(shape, dtype=dtype)
        self.v = np.zeros(shape, dtype=dtype)


class PagedKVCache:
    """One request's view of the pool: a block table plus a length.

    ``put`` writes post-RoPE K rows and raw V rows for one layer at an
    explicit position offset (every layer of an iteration writes the
    same positions); ``advance`` commits the new tokens once per
    iteration after all layers ran.  ``gather`` materializes the
    contiguous ``[T, n_kv_heads, head_dim]`` arrays attention consumes
    — copies of identical values, so batched and sequential decode
    read bitwise-equal operands.
    """

    def __init__(self, pool: KVPool):
        self.pool = pool
        self.blocks: List[int] = []
        self.length = 0

    @property
    def capacity(self) -> int:
        return len(self.blocks) * self.pool.block_size

    def blocks_needed(self, n_new: int) -> int:
        """Blocks to allocate before appending ``n_new`` tokens."""
        total = self.length + n_new
        have = len(self.blocks)
        need = -(-total // self.pool.block_size)  # ceil div
        return max(0, need - have)

    def ensure_capacity(self, n_new: int) -> None:
        """Grow the block table to hold ``n_new`` more tokens."""
        need = self.blocks_needed(n_new)
        if need:
            self.blocks.extend(self.pool.allocator.allocate(need))

    def _slots(self, start: int, count: int) -> List[Tuple[int, int, int]]:
        """(block_id, offset_in_block, run_length) covering a span."""
        out = []
        pos = start
        remaining = count
        bs = self.pool.block_size
        while remaining > 0:
            block = self.blocks[pos // bs]
            off = pos % bs
            run = min(bs - off, remaining)
            out.append((block, off, run))
            pos += run
            remaining -= run
        return out

    def put(self, layer: int, k_rows: np.ndarray, v_rows: np.ndarray,
            start: int) -> None:
        """Write ``[s, n_kv_heads, head_dim]`` K/V rows at ``start``.

        The rows must already be in the pool's dtype: an assignment
        would cast them silently, and attention would then run on
        cached keys of another width than the queries it is given.
        """
        dtype = self.pool.k.dtype
        if k_rows.dtype != dtype or v_rows.dtype != dtype:
            raise TypeError(
                f"k_rows dtype {k_rows.dtype} / v_rows dtype "
                f"{v_rows.dtype} do not match the KV pool dtype "
                f"{dtype}; build the pool with the model's dtype"
            )
        count = k_rows.shape[0]
        if start + count > self.capacity:
            raise OutOfKVBlocks(
                f"writing positions [{start}, {start + count}) exceeds "
                f"capacity {self.capacity}; call ensure_capacity first"
            )
        row = 0
        for block, off, run in self._slots(start, count):
            self.pool.k[layer, block, off:off + run] = \
                k_rows[row:row + run]
            self.pool.v[layer, block, off:off + run] = \
                v_rows[row:row + run]
            row += run

    def advance(self, n_new: int) -> None:
        """Commit ``n_new`` tokens (once per iteration, after all layers)."""
        self.length += n_new

    def gather(self, layer: int, upto: int) -> Tuple[np.ndarray,
                                                     np.ndarray]:
        """Contiguous ``[upto, n_kv_heads, head_dim]`` K and V arrays."""
        k_parts = []
        v_parts = []
        for block, off, run in self._slots(0, upto):
            k_parts.append(self.pool.k[layer, block, off:off + run])
            v_parts.append(self.pool.v[layer, block, off:off + run])
        if not k_parts:
            empty = np.zeros((0, self.pool.n_kv_heads,
                              self.pool.head_dim), dtype=self.pool.k.dtype)
            return empty, empty.copy()
        return (np.concatenate(k_parts, axis=0),
                np.concatenate(v_parts, axis=0))

    def release(self) -> None:
        """Return every block to the allocator (eviction/completion)."""
        if self.blocks:
            self.pool.allocator.free(self.blocks)
            self.blocks = []
        self.length = 0
