"""Eager per-level marking: the oracle for the membership store a tree makes on first read.

The store of a box is one bit per odd value up to the bound while
value_bound // 16 <= max_nodes, else a set.  The root is marked first, then
each level in depth order, as the build once did after finishing each
level, and a level whose marks add fewer values than it holds repeats one.
The bitmap is a bytearray marked bit by bit here, bit j for the value
2j + 1, without `arbor._OddBitmap`; `TruncatedArborescence.members` must
hold the same bytes and count, or the same set.
"""


def reference_store(tree) -> tuple[bytearray, int] | set[int]:
    config = tree.config
    bound = config.value_bound
    if bound is not None and bound // 16 <= config.max_nodes:
        bits, count = bytearray(bound // 16 + 1), 0
        for level in tree.levels:
            for v in level:
                mask = 1 << (v // 2 % 8)
                assert not bits[v // 16] & mask, f"{v} repeats"
                bits[v // 16] |= mask
                count += 1
        return bits, count
    members: set[int] = set()
    for level in tree.levels:
        before = len(members)
        members.update(level)
        assert len(members) == before + len(level), "a level repeats a value"
    return members
