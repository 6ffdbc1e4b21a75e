"""The evaluated accelerator configurations (paper Table IV).

* :func:`conventional` — Eyeriss-like: a 32x32 grid of single-MAC PEs with a
  unified 512 B scratchpad each, a 3.1 MB unified global buffer, and DRAM.
* :func:`simba_like` — a modern multi-level design: per-lane weight
  registers under 8 vector MACs per PE, per-datatype PE buffers, a 512 KB
  global buffer that weights bypass, and DRAM.
* :func:`diannao_like` — the DianNao-style accelerator used by the paper's
  overhead study (Fig. 9): NBin/NBout/SB buffers feeding a 16x16 multiplier
  array.
* :func:`two_chiplet` — a Simba-style two-chiplet package: per-PE buffers
  inside each chiplet, a per-chiplet buffer, and a ``chip2chip`` package
  link between the chiplets and the package-level DRAM interface.

Every preset describes its levels with :class:`ComponentSpec` records and
is resolved through :func:`repro.energy.tech.resolve_architecture`, so the
same topology can be retargeted to any registered technology pack via the
``tech`` argument.  The default pack (``cmos45``) reproduces the historical
hard-coded energies bit-for-bit.
"""

from __future__ import annotations

from ..energy.tech import DEFAULT_TECH, resolve_architecture
from .spec import UNIFIED, Architecture, ComponentSpec, MemoryLevel, words


def _sram_level(
    name: str,
    capacity_words: dict[str, int],
    capacity_bytes: int,
    word_bits: int,
    fanout: int = 1,
    fanout_shape: tuple[int, int] | None = None,
    read_bandwidth: float = float("inf"),
    write_bandwidth: float = float("inf"),
) -> MemoryLevel:
    return MemoryLevel(
        name=name,
        capacity_words=capacity_words,
        fanout=fanout,
        fanout_shape=fanout_shape,
        read_bandwidth=read_bandwidth,
        write_bandwidth=write_bandwidth,
        component=ComponentSpec(
            "sram", capacity_bytes=capacity_bytes, word_bits=word_bits),
    )


def conventional(tech: str = DEFAULT_TECH) -> Architecture:
    """Eyeriss-like conventional accelerator (Table IV, right column).

    16-bit datapath, 32x32 PEs each with a unified 512 B L1, a unified
    3.1 MB L2, and off-chip DRAM.
    """
    word_bits = 16
    l1 = _sram_level(
        "L1",
        capacity_words={UNIFIED: words(0.5, word_bits)},  # 512 B -> 256 words
        capacity_bytes=512,
        word_bits=word_bits,
        fanout=1024,
        fanout_shape=(32, 32),
        read_bandwidth=64,
        write_bandwidth=64,
    )
    l2 = _sram_level(
        "L2",
        capacity_words={UNIFIED: words(3.1 * 1024, word_bits)},
        capacity_bytes=int(3.1 * 1024 * 1024),
        word_bits=word_bits,
        read_bandwidth=32,
        write_bandwidth=32,
    )
    dram = MemoryLevel(
        name="DRAM",
        capacity_words=None,
        read_bandwidth=16,
        write_bandwidth=16,
        component=ComponentSpec("dram", word_bits=word_bits),
    )
    arch = Architecture(
        "conventional",
        levels=(l1, l2, dram),
        mac_width=1,
        mac_word_bits=word_bits,
    )
    return resolve_architecture(arch, tech)


def simba_like(tech: str = DEFAULT_TECH) -> Architecture:
    """Simba-like modern accelerator (Table IV, left column).

    Two spatial levels: 8 vector-MAC lanes (each 8 wide, with a small weight
    register file) inside each of 4x4 PEs.  Per-datatype PE buffers
    (weights 32 KB @ 8 b, ifmap 8 KB @ 8 b, ofmap 3 KB @ 24 b); the 512 KB
    global buffer holds only ifmap and ofmap — weights stream from DRAM.
    """
    regs = MemoryLevel(
        name="Regs",
        capacity_words={"weight": 8},
        fanout=64,  # 8 vector MACs x 8 lanes each, modelled uniformly
        fanout_shape=(8, 8),
        read_bandwidth=64,
        write_bandwidth=8,
        component=ComponentSpec("regfile", entries=8, word_bits=8),
    )
    l1 = _sram_level(
        "PEBuf",
        capacity_words={
            "weight": words(32, 8),
            "ifmap": words(8, 8),
            "ofmap": words(3, 24),
        },
        capacity_bytes=(32 + 8 + 3) * 1024,
        word_bits=8,
        fanout=16,
        fanout_shape=(4, 4),
        read_bandwidth=64,
        write_bandwidth=8,
    )
    l2 = _sram_level(
        "GlobalBuf",
        capacity_words={
            "ifmap": words(256, 8),
            "ofmap": words(256, 24),
        },
        capacity_bytes=512 * 1024,
        word_bits=16,
        read_bandwidth=32,
        write_bandwidth=32,
    )
    dram = MemoryLevel(
        name="DRAM",
        capacity_words=None,
        read_bandwidth=16,
        write_bandwidth=16,
        component=ComponentSpec("dram", word_bits=8),
    )
    arch = Architecture(
        "simba-like",
        levels=(regs, l1, l2, dram),
        mac_width=1,
        mac_word_bits=8,
    )
    return resolve_architecture(arch, tech)


def diannao_like(tech: str = DEFAULT_TECH) -> Architecture:
    """DianNao-like accelerator for the overhead study (Fig. 9).

    A 16x16 multiplier array (the NFU) fed by three on-chip buffers: NBin
    (ifmap), NBout (ofmap) and SB (weights).  The lanes have no local
    storage; we model them as a capacity-1 pseudo-level so that spatial
    unrolling across the array is expressible.
    """
    word_bits = 16
    lanes = MemoryLevel(
        name="Lanes",
        capacity_words={UNIFIED: 4},
        fanout=256,
        fanout_shape=(16, 16),
        component=ComponentSpec(
            "fixed", read_energy=0.01, write_energy=0.01,
            word_bits=word_bits),
    )
    buffers = _sram_level(
        "Buffers",
        capacity_words={
            "ifmap": words(2, word_bits),
            "ofmap": words(2, word_bits),
            "weight": words(32, word_bits),
        },
        capacity_bytes=(2 + 2 + 32) * 1024,
        word_bits=word_bits,
        read_bandwidth=512,
        write_bandwidth=512,
    )
    dram = MemoryLevel(
        name="DRAM",
        capacity_words=None,
        read_bandwidth=16,
        write_bandwidth=16,
        component=ComponentSpec("dram", word_bits=word_bits),
    )
    arch = Architecture(
        "diannao-like",
        levels=(lanes, buffers, dram),
        mac_width=1,
        mac_word_bits=word_bits,
    )
    return resolve_architecture(arch, tech)


def tiny(l1_words: int = 8, l2_words: int = 64, pes: int = 4,
         tech: str = DEFAULT_TECH) -> Architecture:
    """A miniature two-memory architecture for tests and examples.

    All energies are hand-picked round numbers (``fixed`` components with a
    ``fixed`` link), so under the default pack they are exactly the
    historical constants; other packs scale them by ``logic_scale``.
    """
    l1 = MemoryLevel(
        name="L1",
        capacity_words={UNIFIED: l1_words},
        fanout=pes,
        fanout_shape=(pes, 1),
        network_energy=0.1,
        component=ComponentSpec("fixed", read_energy=1.0, write_energy=1.0),
        link="fixed",
    )
    l2 = MemoryLevel(
        name="L2",
        capacity_words={UNIFIED: l2_words},
        component=ComponentSpec("fixed", read_energy=10.0, write_energy=10.0),
    )
    dram = MemoryLevel(
        name="DRAM",
        capacity_words=None,
        component=ComponentSpec("fixed", read_energy=100.0,
                                write_energy=100.0),
    )
    arch = Architecture("tiny", levels=(l1, l2, dram), mac_energy=0.5)
    return resolve_architecture(arch, tech)


def two_chiplet(tech: str = DEFAULT_TECH) -> Architecture:
    """Simba-style two-chiplet package (multi-chip hierarchy demo).

    Each chiplet holds a 4x4 grid of PEs (unified 1 KB L1 each) under a
    256 KB chiplet buffer; the two chiplet buffers sit behind a
    ``chip2chip`` package link whose per-word energy and bandwidth come
    from the technology pack.  DRAM is on the package substrate.
    """
    word_bits = 16
    l1 = _sram_level(
        "L1",
        capacity_words={UNIFIED: words(1.0, word_bits)},
        capacity_bytes=1024,
        word_bits=word_bits,
        fanout=16,
        fanout_shape=(4, 4),
        read_bandwidth=64,
        write_bandwidth=64,
    )
    chipbuf = MemoryLevel(
        name="ChipBuf",
        capacity_words={UNIFIED: words(256, word_bits)},
        fanout=2,
        fanout_shape=(2, 1),
        read_bandwidth=32,
        write_bandwidth=32,
        component=ComponentSpec(
            "sram", capacity_bytes=256 * 1024, word_bits=word_bits),
        link="chip2chip",
    )
    dram = MemoryLevel(
        name="DRAM",
        capacity_words=None,
        read_bandwidth=16,
        write_bandwidth=16,
        component=ComponentSpec("dram", word_bits=word_bits),
    )
    arch = Architecture(
        "two-chiplet",
        levels=(l1, chipbuf, dram),
        mac_width=1,
        mac_word_bits=word_bits,
    )
    return resolve_architecture(arch, tech)


# The presets by name: the CLI's ``--arch`` names and a serve job's
# architecture presets.
PRESETS = {
    "conventional": conventional,
    "simba": simba_like,
    "diannao": diannao_like,
    "tiny": tiny,
    "two-chiplet": two_chiplet,
}
