"""Golden pins of the discrete-event TAPIOCA and two-phase runs.

Every value here was recorded from the engine and must match with exact
equality: the simulated elapsed time as ``float.hex()``, the elected
aggregators, the sha256 of the written file image, the sha256 of every
rank's read-back bytes, and the sha256 of the operation log: every RMA put
and get and every file operation, in the order issued, with its simulated
time.  Times and bytes alone rarely move when two events of the same
timestamp swap; the log does, so these pins guard the event ordering that
no tolerance-based DES test can see.

``python tests/test_simmpi_golden.py`` prints the table for the current
engine (run it from the repository root with ``PYTHONPATH=src``).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.config import TapiocaConfig
from repro.core.runtime import TapiocaIO
from repro.iolib.hints import MPIIOHints
from repro.iolib.twophase import TwoPhaseCollectiveIO
from repro.machine.mira import MiraMachine
from repro.machine.theta import ThetaMachine
from repro.simmpi.world import SimWorld
from repro.workloads.hacc import HACCIOWorkload
from repro.workloads.ior import IORWorkload
from reference.oplog import OperationLog, committed_des_order, des_order_digests

RANKS_PER_NODE = 2
PATH = "/out/golden.dat"
MACHINES = ("theta8", "mira16")
WORKLOADS = ("hacc-aos", "hacc-soa", "ior")
DEPTHS = (1, 2)
PLACEMENTS = ("topology-aware", "random")


def build(machine_name: str, workload_name: str):
    """The machine and declared workload of one grid cell."""
    if machine_name == "mira16":
        machine = MiraMachine(16, pset_size=8)
    else:
        machine = ThetaMachine(8)
    ranks = machine.num_nodes * RANKS_PER_NODE
    if workload_name == "ior":
        workload = IORWorkload(ranks, transfer_size=1500)
    else:
        workload = HACCIOWorkload(
            ranks, particles_per_rank=37, layout=workload_name.split("-")[1]
        )
    return machine, workload


def readback_digest(returns: list[dict[int, bytes]]) -> str:
    """sha256 over every rank's read-back segments, in rank and offset order."""
    digest = hashlib.sha256()
    for rank, segments in enumerate(returns):
        for offset in sorted(segments):
            digest.update(f"{rank}:{offset}:".encode())
            digest.update(segments[offset])
    return digest.hexdigest()


def tapioca_cell(machine_name: str, workload_name: str, depth: int, placement: str):
    """Write then read one cell; returns the pinned observables."""
    machine, workload = build(machine_name, workload_name)
    config = TapiocaConfig(
        num_aggregators=4, buffer_size=1024, pipeline_depth=depth, placement=placement
    )
    return round_trip(machine, workload, config, RANKS_PER_NODE)


def round_trip(machine, workload, config: TapiocaConfig, ranks_per_node: int):
    """Write then read ``workload`` under the log; returns the pinned observables."""
    with OperationLog() as log:
        world = SimWorld(machine, ranks_per_node=ranks_per_node)
        writer = TapiocaIO(world, workload, config, path=PATH)
        written = world.run(writer.write_program())
        world = SimWorld(machine, ranks_per_node=ranks_per_node)
        world.files = written.files
        reader = TapiocaIO(world, workload, config, path=PATH)
        read = world.run(reader.read_program())
    image = written.files.open(PATH, create=False).as_bytes()
    assert image == workload.expected_file_image()
    for rank, segments in enumerate(read.returns):
        for segment in workload.segments_for_rank(rank):
            if segment.nbytes:
                assert segments[segment.offset] == image[segment.offset : segment.end]
    return (
        written.elapsed.hex(),
        read.elapsed.hex(),
        tuple(writer.elected[p] for p in sorted(writer.elected)),
        tuple(reader.elected[p] for p in sorted(reader.elected)),
        hashlib.sha256(image).hexdigest(),
        readback_digest(read.returns),
        log.digest.hexdigest(),
    )


def perfbench_scale_cell(
    machine_name: str, workload_name: str, size: int, buffer_size: int, depth: int,
    aggregators: int,
):
    """One round trip at 16 ranks per node, the density ``des_roundtrip`` runs.

    ``machine_name`` is ``theta<nodes>`` or ``mira<nodes>`` (Psets of half
    the nodes); ``size`` is particles per rank (HACC) or the transfer size
    in bytes (IOR).
    """
    kind = machine_name.rstrip("0123456789")
    nodes = int(machine_name[len(kind):])
    if kind == "mira":
        machine = MiraMachine(nodes, pset_size=nodes // 2)
    else:
        machine = ThetaMachine(nodes)
    ranks = nodes * 16
    if workload_name == "ior":
        workload = IORWorkload(ranks, transfer_size=size)
    else:
        workload = HACCIOWorkload(
            ranks, particles_per_rank=size, layout=workload_name.split("-")[1]
        )
    config = TapiocaConfig(
        num_aggregators=aggregators, buffer_size=buffer_size, pipeline_depth=depth
    )
    return round_trip(machine, workload, config, 16)


def two_phase_cell(machine_name: str, workload_name: str):
    """The ROMIO baseline's write and read elapsed times and operation log on one cell."""
    machine, workload = build(machine_name, workload_name)
    hints = MPIIOHints(cb_nodes=4, cb_buffer_size=1024)
    with OperationLog() as log:
        world = SimWorld(machine, ranks_per_node=RANKS_PER_NODE)
        two_phase = TwoPhaseCollectiveIO(world, workload, hints, path=PATH)
        written = world.run(two_phase.write_program())
        world = SimWorld(machine, ranks_per_node=RANKS_PER_NODE)
        world.files = written.files
        two_phase = TwoPhaseCollectiveIO(world, workload, hints, path=PATH)
        read = world.run(two_phase.read_program())
    return (written.elapsed.hex(), read.elapsed.hex(), log.digest.hexdigest())


#: (machine, workload, pipeline depth, placement) -> (write elapsed, read elapsed,
#: write election, read election, file image sha256, read-back sha256,
#: operation log sha256).
TAPIOCA_PINS = {
    ('theta8', 'hacc-aos', '1', 'topology-aware'): (
        '0x1.4a8ff1703608ep-7', '0x1.472553d86de3ep-8',
        (0, 4, 8, 12), (0, 4, 8, 12),
        'f5f9027aeae0c8bac6982d42470a2d0be3a67c44c04f3bbdc573f1e5905818b0',
        '689c893a39935c63cdd63134a42e55172c33038cedadd5139570f571411acdc8',
        'd961777178254a4692a42efaf748b3b88a54bbea9a82e7c7ecf07eea7e53c2bb',
    ),
    ('theta8', 'hacc-aos', '1', 'random'): (
        '0x1.4a8ff1703608ep-7', '0x1.472553d86de3ep-8',
        (1, 6, 9, 13), (1, 6, 9, 13),
        'f5f9027aeae0c8bac6982d42470a2d0be3a67c44c04f3bbdc573f1e5905818b0',
        '689c893a39935c63cdd63134a42e55172c33038cedadd5139570f571411acdc8',
        'fbf9099337f03ef443da2b383b67829c6115ac666c4964ea40652cc175767bf8',
    ),
    ('theta8', 'hacc-aos', '2', 'topology-aware'): (
        '0x1.6ef56de703caep-8', '0x1.43c7dc8c8f9cbp-8',
        (0, 4, 8, 12), (0, 4, 8, 12),
        'f5f9027aeae0c8bac6982d42470a2d0be3a67c44c04f3bbdc573f1e5905818b0',
        '689c893a39935c63cdd63134a42e55172c33038cedadd5139570f571411acdc8',
        '863e26fe8c4d34c9e392df7f2215bb6316e5e5caa40da3a80b234df727636c19',
    ),
    ('theta8', 'hacc-aos', '2', 'random'): (
        '0x1.6ef56de703caep-8', '0x1.43c7dc8c8f9cbp-8',
        (1, 6, 9, 13), (1, 6, 9, 13),
        'f5f9027aeae0c8bac6982d42470a2d0be3a67c44c04f3bbdc573f1e5905818b0',
        '689c893a39935c63cdd63134a42e55172c33038cedadd5139570f571411acdc8',
        'c06d54cdc9d15121f5d1c651b54217682851c3659468d5258d5dc3e8d3947119',
    ),
    ('theta8', 'hacc-soa', '1', 'topology-aware'): (
        '0x1.611018c47c0c8p-7', '0x1.48ff387d3ecebp-8',
        (0, 4, 8, 12), (0, 4, 8, 12),
        '466cae9b6ce8b112cfee2cc8b6ad051ff53fb289e63efde8f4c861f8c012ca4b',
        '1336f240aa48861b4ca3ba81f4dc9ed257517d0107473329a9608707e423c54c',
        'cb9f7c5debc8fa4b234753d3aa9e631f7fd7eab2344e7682c0d09ea6462e49d0',
    ),
    ('theta8', 'hacc-soa', '1', 'random'): (
        '0x1.611018c47c0c8p-7', '0x1.48ff387d3ecebp-8',
        (1, 6, 9, 13), (1, 6, 9, 13),
        '466cae9b6ce8b112cfee2cc8b6ad051ff53fb289e63efde8f4c861f8c012ca4b',
        '1336f240aa48861b4ca3ba81f4dc9ed257517d0107473329a9608707e423c54c',
        'df87adfbbe63da1f9ae0e9998f4f95a0596e597b3c13b4608ad711fc050a1df1',
    ),
    ('theta8', 'hacc-soa', '2', 'topology-aware'): (
        '0x1.a964fe752a330p-8', '0x1.457bb154f17d8p-8',
        (0, 4, 8, 12), (0, 4, 8, 12),
        '466cae9b6ce8b112cfee2cc8b6ad051ff53fb289e63efde8f4c861f8c012ca4b',
        '1336f240aa48861b4ca3ba81f4dc9ed257517d0107473329a9608707e423c54c',
        'ff894732b2e36860c8f35a0c924753ccef924b37377a6ae4ea4fac1552ab6381',
    ),
    ('theta8', 'hacc-soa', '2', 'random'): (
        '0x1.a964fe752a330p-8', '0x1.457bb154f17d8p-8',
        (1, 6, 9, 13), (1, 6, 9, 13),
        '466cae9b6ce8b112cfee2cc8b6ad051ff53fb289e63efde8f4c861f8c012ca4b',
        '1336f240aa48861b4ca3ba81f4dc9ed257517d0107473329a9608707e423c54c',
        '324542308270f9ecfe0fdfec6653c8f09adcad00edf3a659501ad6618b369ccb',
    ),
    ('theta8', 'ior', '1', 'topology-aware'): (
        '0x1.4cc1c5f574922p-7', '0x1.479bda5b5dc94p-8',
        (2, 6, 10, 14), (2, 6, 10, 14),
        'c5a37c01e3dc8025c0eda5ee2cb2c86ea7263408a3036d00cc114ab903d24cf1',
        '2ea80003d59523d39e6ce0b0c7ddb099d35dd8dfbee1559d8fb8083a9319b95a',
        '85aa6cc787f8ec69a21531927865f55c41beee05824e43c187edc0e5eb3d45eb',
    ),
    ('theta8', 'ior', '1', 'random'): (
        '0x1.4cbee905cbcb8p-7', '0x1.4796207c0c3c1p-8',
        (1, 6, 9, 13), (1, 6, 9, 13),
        'c5a37c01e3dc8025c0eda5ee2cb2c86ea7263408a3036d00cc114ab903d24cf1',
        '2ea80003d59523d39e6ce0b0c7ddb099d35dd8dfbee1559d8fb8083a9319b95a',
        '109f015c9bfbbbdafffc7aacbebaad542f0c044a4576900f591e310111a6e1ce',
    ),
    ('theta8', 'ior', '2', 'topology-aware'): (
        '0x1.78e3a7982a8bep-8', '0x1.443ee428fc2eep-8',
        (2, 6, 10, 14), (2, 6, 10, 14),
        'c5a37c01e3dc8025c0eda5ee2cb2c86ea7263408a3036d00cc114ab903d24cf1',
        '2ea80003d59523d39e6ce0b0c7ddb099d35dd8dfbee1559d8fb8083a9319b95a',
        'e10a12ed181f64883b9ef42df06c07fe8d3dc1640a84de1fbbedbc24bd7cdc90',
    ),
    ('theta8', 'ior', '2', 'random'): (
        '0x1.78e3f0df0e662p-8', '0x1.4438f066b1721p-8',
        (1, 6, 9, 13), (1, 6, 9, 13),
        'c5a37c01e3dc8025c0eda5ee2cb2c86ea7263408a3036d00cc114ab903d24cf1',
        '2ea80003d59523d39e6ce0b0c7ddb099d35dd8dfbee1559d8fb8083a9319b95a',
        '1c4cba3af7b959e22628e23d41267a8eaa508d407c18b8be0511e60f7fb92b53',
    ),
    ('mira16', 'hacc-aos', '1', 'topology-aware'): (
        '0x1.6de5415dd2288p-6', '0x1.71bc8d802a69fp-7',
        (0, 8, 16, 24), (0, 8, 16, 24),
        '9b48143f96927800afa98749776c735a98bc7454935ba7298fb2441eef3e29ef',
        '836b9c6624059f5a1e87ef2305a213ec2ff539ceb7234f2e8aac40185525e68b',
        '3c482ebfe969a7bd3f0402085a8e750dc097189715e6ff8f14d6eb5a0e4017a5',
    ),
    ('mira16', 'hacc-aos', '1', 'random'): (
        '0x1.6de8cee4dc556p-6', '0x1.71b411fdaa3a3p-7',
        (3, 13, 19, 26), (3, 13, 19, 26),
        '9b48143f96927800afa98749776c735a98bc7454935ba7298fb2441eef3e29ef',
        '836b9c6624059f5a1e87ef2305a213ec2ff539ceb7234f2e8aac40185525e68b',
        'b44e3750f8b5ef70713e0861c3438889024b7f4a3fda50186ed3230f57fc2e23',
    ),
    ('mira16', 'hacc-aos', '2', 'topology-aware'): (
        '0x1.9063ba438389bp-7', '0x1.6b5f7151c99e2p-7',
        (0, 8, 16, 24), (0, 8, 16, 24),
        '9b48143f96927800afa98749776c735a98bc7454935ba7298fb2441eef3e29ef',
        '836b9c6624059f5a1e87ef2305a213ec2ff539ceb7234f2e8aac40185525e68b',
        '6e35dddc8e06066ef47a7b02aeb147a606e79cc67e250dcb788d06e8a5c6546f',
    ),
    ('mira16', 'hacc-aos', '2', 'random'): (
        '0x1.906bd7fbe1d88p-7', '0x1.6b570dd5f9432p-7',
        (3, 13, 19, 26), (3, 13, 19, 26),
        '9b48143f96927800afa98749776c735a98bc7454935ba7298fb2441eef3e29ef',
        '836b9c6624059f5a1e87ef2305a213ec2ff539ceb7234f2e8aac40185525e68b',
        '555238214df95039c3cfc33ed56a96834a4a425d4d05515e2693a5b5b6d83560',
    ),
    ('mira16', 'hacc-soa', '1', 'topology-aware'): (
        '0x1.6e4195a92c3eep-6', '0x1.72082e63798adp-7',
        (0, 8, 16, 24), (0, 8, 16, 24),
        'cf39480df7ef05c84d2a00a415f9ccfa9b5dd3c20b6aceeed6de531e043a3670',
        'ce764bf8848909e6288f2fc89d414c88cde0b50dabc68fa6cdef383b73f2bf52',
        'd369e8d67f1a594482a4be4106689e6f20ed7a6b456270b94a944da878928f8e',
    ),
    ('mira16', 'hacc-soa', '1', 'random'): (
        '0x1.6e35b10198c14p-6', '0x1.71f06514528fcp-7',
        (3, 13, 19, 26), (3, 13, 19, 26),
        'cf39480df7ef05c84d2a00a415f9ccfa9b5dd3c20b6aceeed6de531e043a3670',
        'ce764bf8848909e6288f2fc89d414c88cde0b50dabc68fa6cdef383b73f2bf52',
        '0cc9e475914adc6f07e27cc2485f33fe99d5159f113c1f29fd2897a123d5a572',
    ),
    ('mira16', 'hacc-soa', '2', 'topology-aware'): (
        '0x1.9114fafc5485ap-7', '0x1.6b73bae65dd16p-7',
        (0, 8, 16, 24), (0, 8, 16, 24),
        'cf39480df7ef05c84d2a00a415f9ccfa9b5dd3c20b6aceeed6de531e043a3670',
        'ce764bf8848909e6288f2fc89d414c88cde0b50dabc68fa6cdef383b73f2bf52',
        '1f89d25eb6406bbde18eb636a4b9b7db6f86f79bebf13b1f256b3bbe755f4a7a',
    ),
    ('mira16', 'hacc-soa', '2', 'random'): (
        '0x1.910355bc0acedp-7', '0x1.6b62f3eebd1b8p-7',
        (3, 13, 19, 26), (3, 13, 19, 26),
        'cf39480df7ef05c84d2a00a415f9ccfa9b5dd3c20b6aceeed6de531e043a3670',
        'ce764bf8848909e6288f2fc89d414c88cde0b50dabc68fa6cdef383b73f2bf52',
        'ab61aab2cf945b0a79cf1c7efe3b5dcba3a25c97568ed1614729914b28b18be7',
    ),
    ('mira16', 'ior', '1', 'topology-aware'): (
        '0x1.8f114fc1d2a79p-6', '0x1.93348f90cd8cfp-7',
        (0, 8, 16, 24), (0, 8, 16, 24),
        'cc84509d2cdbd91e5b2da2bcaa30a8a6b02a5c467e9848246d23c2e0521160a0',
        'bfee3fe0b1b7c3f2b387afc4194d9f7fa0a8be00810e23385f7883f83b77dd35',
        'ad7d82a2ab1dc83caa45a0e40b67311c7f4bf0e92cd8100aff91f3e5bb678d74',
    ),
    ('mira16', 'ior', '1', 'random'): (
        '0x1.8f12de9c0eb4bp-6', '0x1.9324334bc85f1p-7',
        (3, 13, 19, 26), (3, 13, 19, 26),
        'cc84509d2cdbd91e5b2da2bcaa30a8a6b02a5c467e9848246d23c2e0521160a0',
        'bfee3fe0b1b7c3f2b387afc4194d9f7fa0a8be00810e23385f7883f83b77dd35',
        'e62e04c9c1bbf83f5f30f7c69c51510e6b1163cdb8f067f8935a0c68ad9d8201',
    ),
    ('mira16', 'ior', '2', 'topology-aware'): (
        '0x1.9173548e37922p-7', '0x1.8c2e562a4e674p-7',
        (0, 8, 16, 24), (0, 8, 16, 24),
        'cc84509d2cdbd91e5b2da2bcaa30a8a6b02a5c467e9848246d23c2e0521160a0',
        'bfee3fe0b1b7c3f2b387afc4194d9f7fa0a8be00810e23385f7883f83b77dd35',
        '939d9b510c568514ee0c3c4a376662231347608a51d3a2be77f5ee6dee99b407',
    ),
    ('mira16', 'ior', '2', 'random'): (
        '0x1.917752b942199p-7', '0x1.8c25f2ae7e0c5p-7',
        (3, 13, 19, 26), (3, 13, 19, 26),
        'cc84509d2cdbd91e5b2da2bcaa30a8a6b02a5c467e9848246d23c2e0521160a0',
        'bfee3fe0b1b7c3f2b387afc4194d9f7fa0a8be00810e23385f7883f83b77dd35',
        'f4710e62cdc55a662d32be25f9b31e6662f28532de55e44070bee82ac6beda5c',
    ),
}

#: (machine, workload) -> (write elapsed, read elapsed, operation log sha256)
#: of the two-phase baseline.
TWO_PHASE_PINS = {
    ('theta8', 'hacc-aos'): (
        '0x1.4c8742750b5aap-7', '0x1.4b13f5e218879p-8',
        'd8634bc9489a6cd9a2825bc369dd027cf2e96e79e7dadc52721cd986d2f15706',
    ),
    ('theta8', 'hacc-soa'): (
        '0x1.0c89a9e7b4506p-6', '0x1.1655f214869ebp-7',
        'f53cced9e47eb20eb5ae0154e0c77170f17b55711d10fcf2accd1eb42c7546ec',
    ),
    ('theta8', 'ior'): (
        '0x1.4eb63a0aa11d6p-7', '0x1.4b84c285b6dfdp-8',
        '448c0b2c0e8bb0a5e4cd9c9db43b89bbbc62e10755532c1f3ab73110ccfb136c',
    ),
    ('mira16', 'hacc-aos'): (
        '0x1.7002488475210p-6', '0x1.75f69bcd705a8p-7',
        '840d7a27d033ce9261e468ab403d9f1085f4c2f80f4b803912daf1a88f1d7a82',
    ),
    ('mira16', 'hacc-soa'): (
        '0x1.2e8b628501f65p-5', '0x1.355fa9507d71ep-6',
        '438f54bc82fa5b12dc16724fd373e43d3e169d3203c13cfa5986d129fa871e42',
    ),
    ('mira16', 'ior'): (
        '0x1.9160abcf57c1fp-6', '0x1.97d347abd7c10p-7',
        '0d5cf96df7454b3c8d7f0e61129bfc4c1bdaf3d890856b7442f8e0622c770d8e',
    ),
}

#: (machine, workload, size, buffer size, pipeline depth, aggregators) ->
#: the TAPIOCA_PINS observables, at 16 ranks per node.  The many idle ranks
#: of each partition pass through most fences, so these cells pin the order
#: in which bundled pass-through ranks arrive and resume.
PERFBENCH_SCALE_PINS = {
    ('theta8', 'hacc-soa', 500, 32768, 2, 4): (
        '0x1.f8749eaf57e27p-4', '0x1.9cc252023c49fp-6',
        (0, 32, 64, 96), (0, 32, 64, 96),
        '153b325d6f62c74628c549a8b9fb264ed779ac3fcab3ba5b0095749ef4b3203c',
        '18998a1240ea89a6b122d938852de4d07336f70a35093c4b313c735021f232d6',
        '26dcdbd0f7f1571399d236f1ec7684da62092150baf41f20e2238e5b454ed0cb',
    ),
    ('mira16', 'ior', 65536, 32768, 1, 4): (
        '0x1.277a456efa973p-2', '0x1.236e252bc6fa6p-3',
        (0, 64, 128, 192), (0, 64, 128, 192),
        '7ad245f72fcccebaeebaaf56884b4af2cb3ecd6e209fa9514e21b62beeb08533',
        '7a31400a512cc4e71ad1b6c94c18a7f1284abee7a14aca455aca77f3a3c6ab66',
        '96658c1deefa818adca343d03f53eff7e6f9c2863f8b7300a86621566581a803',
    ),
    ('theta16', 'hacc-aos', 200, 16384, 2, 8): (
        '0x1.29e9563e056adp-3', '0x1.4656cbd0fdeb0p-6',
        (0, 32, 64, 96, 128, 160, 192, 224), (0, 32, 64, 96, 128, 160, 192, 224),
        '9ebf64da52b93c693d391f1190d00d6abd9ea7928ada8ba856842def4d345bff',
        'fbbbc024d361c5aa31a1ae5e15cadb5600066f71f8a1ee6930a305af64866ac2',
        '6cb4c5eb3cb9450e2cbb6b6da66b7a94ec51672b84553f2289e055dc69df9e1f',
    ),
}

#: How many of perfbench's seed-1 ``des_roundtrip`` cells the suite replays
#: against ``tests/reference/des_order.json`` (CI's "DES operation-order
#: gate" replays all 72 of seeds 1 and 7).
DES_ORDER_CELLS = 4


@pytest.mark.parametrize("cell", sorted(TAPIOCA_PINS), ids="/".join)
def test_tapioca_round_trip_is_pinned(cell):
    machine_name, workload_name, depth, placement = cell
    assert tapioca_cell(machine_name, workload_name, int(depth), placement) == TAPIOCA_PINS[cell]


@pytest.mark.parametrize("cell", sorted(TWO_PHASE_PINS), ids="/".join)
def test_two_phase_round_trip_is_pinned(cell):
    assert two_phase_cell(*cell) == TWO_PHASE_PINS[cell]


@pytest.mark.parametrize(
    "cell", sorted(PERFBENCH_SCALE_PINS), ids=lambda cell: "/".join(map(str, cell))
)
def test_perfbench_scale_round_trip_is_pinned(cell):
    assert perfbench_scale_cell(*cell) == PERFBENCH_SCALE_PINS[cell]


def test_the_first_des_roundtrip_cells_keep_their_operation_order():
    committed = committed_des_order()["1"]["cells"][:DES_ORDER_CELLS]
    assert des_order_digests(1, DES_ORDER_CELLS) == committed


def test_the_grid_is_complete():
    assert len(TAPIOCA_PINS) == len(MACHINES) * len(WORKLOADS) * len(DEPTHS) * len(PLACEMENTS)
    assert len(TWO_PHASE_PINS) == len(MACHINES) * len(WORKLOADS)


if __name__ == "__main__":
    print("TAPIOCA_PINS = {")
    for machine_name in MACHINES:
        for workload_name in WORKLOADS:
            for depth in DEPTHS:
                for placement in PLACEMENTS:
                    key = (machine_name, workload_name, str(depth), placement)
                    print(f"    {key!r}: {tapioca_cell(machine_name, workload_name, depth, placement)!r},")
    print("}")
    print("PERFBENCH_SCALE_PINS = {")
    for cell in PERFBENCH_SCALE_PINS:
        print(f"    {cell!r}: {perfbench_scale_cell(*cell)!r},")
    print("}")
    print("TWO_PHASE_PINS = {")
    for machine_name in MACHINES:
        for workload_name in WORKLOADS:
            print(f"    {(machine_name, workload_name)!r}: {two_phase_cell(machine_name, workload_name)!r},")
    print("}")
