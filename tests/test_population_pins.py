"""Seeded NSGA-II, NSGA-III and co-design runs pinned to literal values.

The determinism tests next to each engine compare two runs of the same code,
so a change that reorders the random stream or a selection tie-break still
passes them.  These pins hold every seeded trajectory to the values recorded
before the three engines shared one population loop: the incumbent, its
history, the evaluation and move counts, and the final front with its
mappings.  Co-design runs also pin their routing digests and gate counters.

Mappings are pinned as the tile of each core, cores in sorted order.  Floats
are compared exactly: pricing is deterministic and every front here comes
from the scalar CDCM replay or the bit-identical CWM kernels.
"""

from __future__ import annotations

import pytest

from repro.codesign import CodesignParameters, CodesignSearch, LoadAwareCwmContext
from repro.core.mapping import Mapping
from repro.eval.context import CdcmEvaluationContext
from repro.graphs.convert import cdcg_to_cwg
from repro.noc.platform import Platform
from repro.noc.topology import Mesh
from repro.search.nsga2 import NSGA2Search, Nsga2Parameters
from repro.search.nsga3 import NSGA3Search, Nsga3Parameters
from repro.workloads.embedded import image_encoder
from repro.workloads.tgff import TgffLikeGenerator, TgffSpec

SEED = 20050307

NSGA2_PARAMS = Nsga2Parameters(population_size=12, generations=6)
NSGA3_PARAMS = Nsga3Parameters(population_size=12, generations=6)
CODESIGN_PARAMS = CodesignParameters(population_size=8, generations=4)


@pytest.fixture(scope="module")
def encoder():
    """The image-encoder CDCG on a 3x3 mesh and a fixed initial mapping."""
    cdcg = image_encoder()
    platform = Platform(mesh=Mesh(3, 3))
    initial = Mapping.random(cdcg.cores(), platform.num_tiles, rng=7)
    return cdcg, platform, initial


@pytest.fixture(scope="module")
def tgff():
    """A 12-core TGFF-like application on a 4x3 mesh and an initial mapping.

    Its dynamic energy and maximum link load conflict, so the load-aware
    NSGA-II front has several points; on the image encoder it has one.
    """
    spec = TgffSpec(name="pin-12", num_cores=12, num_packets=36, total_bits=72_000)
    cdcg = TgffLikeGenerator(SEED).generate(spec)
    platform = Platform(mesh=Mesh(4, 3))
    initial = Mapping.random(cdcg.cores(), platform.num_tiles, rng=7)
    return cdcg, platform, initial


def _nsga2_cdcm(cdcg, platform, initial):
    engine = NSGA2Search(NSGA2_PARAMS, keys=("energy", "max_link_utilisation"))
    return engine.search(CdcmEvaluationContext(cdcg, platform), initial, rng=SEED)


def _nsga2_load_cwm(cdcg, platform, initial):
    context = LoadAwareCwmContext(cdcg_to_cwg(cdcg), platform)
    engine = NSGA2Search(NSGA2_PARAMS, keys=("dynamic_energy", "max_link_load"))
    return engine.search(context, initial, rng=SEED)


def _nsga3_two_keys(cdcg, platform, initial):
    engine = NSGA3Search(NSGA3_PARAMS, keys=("time", "max_link_utilisation"))
    return engine.search(CdcmEvaluationContext(cdcg, platform), initial, rng=SEED)


def _nsga3_three_keys(cdcg, platform, initial):
    engine = NSGA3Search(
        NSGA3_PARAMS, keys=("energy", "time", "max_link_utilisation")
    )
    return engine.search(CdcmEvaluationContext(cdcg, platform), initial, rng=SEED)


def _codesign(policy):
    def run(cdcg, platform, initial):
        engine = CodesignSearch(
            cdcg, platform, CODESIGN_PARAMS, certification_policy=policy
        )
        return engine.search(initial=initial, rng=SEED)

    return run


def _codesign_load_cwm(cdcg, platform, initial):
    cwg = cdcg_to_cwg(cdcg)
    engine = CodesignSearch(
        None,
        platform,
        CODESIGN_PARAMS,
        context_factory=lambda routed: LoadAwareCwmContext(cwg, routed),
    )
    return engine.search(initial=initial, rng=SEED)


#: Run name -> (workload fixture, search).
RUNS = {
    "nsga2-cdcm": ("encoder", _nsga2_cdcm),
    "nsga2-load-cwm": ("tgff", _nsga2_load_cwm),
    "nsga3-2-keys": ("encoder", _nsga3_two_keys),
    "nsga3-3-keys": ("encoder", _nsga3_three_keys),
    "codesign-repair": ("encoder", _codesign("repair")),
    "codesign-reject": ("encoder", _codesign("reject")),
    "codesign-load-cwm": ("encoder", _codesign_load_cwm),
}


def _summary(result, cores):
    """The pinned view of one search result."""
    summary = {
        "best_cost": result.best_cost,
        "history": tuple(result.history),
        "evaluations": result.evaluations,
        "accepted_moves": result.accepted_moves,
        "front": tuple(
            (
                tuple(point.metrics.values),
                tuple(point.mapping.tile_of(core) for core in cores),
            )
            for point in result.front
        ),
    }
    if hasattr(result, "front_routings"):
        summary["front_digests"] = tuple(r.digest for r in result.front_routings)
        summary["best_digest"] = result.best_routing.digest
        summary["tables"] = (
            result.tables_certified,
            result.tables_rejected,
            result.tables_repaired,
        )
        summary["last_witness"] = tuple(result.last_witness)
    return summary


#: Recorded from the engines before they shared one population loop.
PINS = {
    "codesign-load-cwm": {
        "best_cost": 114196.47999999998,
        "history": (
            (8, 117637.12),
            (16, 115343.35999999999),
            (32, 114196.47999999998),
        ),
        "evaluations": 40,
        "accepted_moves": 25,
        "front": (
            (
                (173834.24000000002, 65536.0, 44714.66666666667),
                (7, 3, 6, 2, 4, 0, 8, 1),
            ),
            (
                (153190.40000000002, 65536.0, 47786.66666666667),
                (7, 1, 6, 0, 4, 3, 8, 5),
            ),
            (
                (130252.79999999999, 65536.0, 51200.0),
                (7, 6, 1, 2, 3, 4, 8, 5),
            ),
            (
                (114196.47999999998, 65536.0, 53589.333333333336),
                (7, 3, 2, 0, 6, 4, 1, 5),
            ),
            (
                (155484.16000000003, 65536.0, 47445.33333333333),
                (7, 3, 6, 2, 4, 1, 8, 5),
            ),
            (
                (129105.92, 65536.0, 51370.666666666664),
                (7, 8, 6, 2, 4, 0, 1, 5),
            ),
            (
                (115343.35999999999, 65536.0, 53418.666666666664),
                (7, 8, 2, 0, 6, 4, 1, 5),
            ),
        ),
        "front_digests": (
            "fc26c60bc74ba229",
            "9c6f7342dbea9c12",
            "461e0de2c5c9764a",
            "461e0de2c5c9764a",
            "46288017cda807ec",
            "715985677ae85272",
            "461e0de2c5c9764a",
        ),
        "best_digest": "461e0de2c5c9764a",
        "tables": (23, 0, 7),
        "last_witness": ((5, 8), (8, 7), (7, 6), (6, 3), (3, 4), (4, 5)),
    },
    "codesign-reject": {
        "best_cost": 157096.16,
        "history": (
            (8, 159389.92),
            (16, 157096.16),
        ),
        "evaluations": 40,
        "accepted_moves": 23,
        "front": (
            (
                (224769.12, 4610.0, 174981.12, 49787.99999999999, 0.4442516268980477),
                (7, 3, 5, 2, 4, 0, 8, 1),
            ),
            (
                (
                    227764.47999999998, 4144.0, 183009.27999999997, 44755.2,
                    0.4942084942084942,
                ),
                (7, 6, 5, 2, 4, 0, 8, 1),
            ),
            (
                (
                    225004.63999999998, 4738.0, 173834.24, 51170.399999999994,
                    0.4322498944702406,
                ),
                (7, 6, 1, 2, 4, 0, 8, 5),
            ),
            (
                (
                    185541.75999999998, 4376.0, 138280.96, 47260.799999999996,
                    0.4680073126142596,
                ),
                (7, 3, 5, 0, 4, 2, 8, 1),
            ),
            (
                (164727.2, 4254.0, 118784.00000000001, 45943.2, 0.48142924306535023),
                (2, 3, 6, 7, 4, 0, 1, 5),
            ),
            (
                (
                    157096.16, 3866.0, 115343.36000000002, 41752.799999999996,
                    0.5297465080186239,
                ),
                (7, 8, 2, 0, 6, 4, 1, 5),
            ),
        ),
        "front_digests": (
            "8bfc625aebea3190",
            "637105c74cb1717d",
            "fc26c60bc74ba229",
            "fc26c60bc74ba229",
            "8bfc625aebea3190",
            "fc26c60bc74ba229",
        ),
        "best_digest": "fc26c60bc74ba229",
        "tables": (17, 6, 0),
        "last_witness": ((4, 1), (1, 0), (0, 3), (3, 4)),
    },
    "codesign-repair": {
        "best_cost": 154867.2,
        "history": (
            (8, 159389.92),
            (24, 154867.2),
        ),
        "evaluations": 40,
        "accepted_moves": 26,
        "front": (
            (
                (218459.84, 4132.0, 173834.24, 44625.6, 0.49564375605033884),
                (7, 3, 6, 2, 4, 0, 8, 1),
            ),
            (
                (185606.56, 4382.0, 138280.96, 47325.6, 0.4673664993153811),
                (7, 8, 2, 0, 4, 3, 1, 5),
            ),
            (
                (200044.96, 4126.0, 155484.16, 44560.799999999996, 0.4963645176926806),
                (7, 3, 6, 2, 4, 0, 5, 1),
            ),
            (
                (
                    179016.48, 3878.0, 137134.08000000002, 41882.399999999994,
                    0.5281072717895823,
                ),
                (7, 6, 1, 0, 3, 4, 8, 5),
            ),
            (
                (
                    168273.76, 4370.0, 121077.76000000002, 47195.99999999999,
                    0.46864988558352405,
                ),
                (0, 3, 2, 7, 4, 8, 5, 1),
            ),
            (
                (
                    158517.6, 4210.0, 113049.60000000002, 45467.99999999999,
                    0.4864608076009501,
                ),
                (7, 8, 2, 0, 3, 4, 1, 5),
            ),
            (
                (154867.2, 3872.0, 113049.60000000002, 41817.6, 0.5289256198347108),
                (7, 8, 2, 0, 3, 4, 5, 1),
            ),
        ),
        "front_digests": (
            "fc26c60bc74ba229",
            "461e0de2c5c9764a",
            "fc26c60bc74ba229",
            "d707fb519406c626",
            "d65068ef784981f5",
            "461e0de2c5c9764a",
            "d9985605f4bd0989",
        ),
        "best_digest": "d9985605f4bd0989",
        "tables": (23, 0, 7),
        "last_witness": ((4, 7), (7, 8), (8, 5), (5, 4)),
    },
    "nsga2-cdcm": {
        "best_cost": 155949.28,
        "history": (
            (12, 170858.72),
            (24, 160310.40000000002),
            (48, 155949.28),
        ),
        "evaluations": 84,
        "accepted_moves": 21,
        "front": (
            (
                (
                    155949.28, 3866.0, 114196.48000000001, 41752.799999999996,
                    0.5297465080186239,
                ),
                (5, 0, 7, 6, 1, 3, 4, 8),
            ),
            (
                (
                    156869.76, 4376.0, 109608.96000000002, 47260.799999999996,
                    0.4680073126142596,
                ),
                (4, 7, 2, 1, 0, 5, 8, 3),
            ),
            (
                (160375.2, 4382.0, 113049.60000000002, 47325.6, 0.4673664993153811),
                (4, 1, 6, 2, 7, 5, 8, 3),
            ),
            (
                (168241.76, 4898.0, 115343.36, 52898.399999999994, 0.4181298489179257),
                (4, 0, 6, 1, 7, 5, 8, 3),
            ),
            (
                (168306.56, 4904.0, 115343.36, 52963.2, 0.4176182707993475),
                (5, 1, 7, 8, 0, 3, 6, 4),
            ),
            (
                (
                    177691.36, 5242.0, 121077.76000000001, 56613.59999999999,
                    0.3906905761159863,
                ),
                (7, 1, 4, 8, 0, 3, 6, 2),
            ),
        ),
    },
    "nsga2-load-cwm": {
        "best_cost": 45835.36,
        "history": (
            (12, 54616.720000000016),
            (24, 53984.759999999995),
            (36, 52946.520000000004),
            (48, 51163.479999999996),
            (48, 50849.88),
            (48, 50515.84),
            (60, 48276.12000000001),
            (72, 45835.36),
        ),
        "evaluations": 84,
        "accepted_moves": 17,
        "front": (
            (
                (45835.36, 13416.0, 9962.70588235294),
                (4, 6, 8, 11, 10, 0, 1, 3, 7, 9, 2, 5),
            ),
            (
                (47695.4, 11474.0, 7825.323529411765),
                (0, 6, 8, 2, 5, 4, 7, 10, 3, 9, 11, 1),
            ),
            (
                (54616.720000000016, 11184.0, 6808.294117647059),
                (4, 6, 9, 11, 10, 0, 1, 3, 8, 7, 2, 5),
            ),
            (
                (56743.32000000002, 11119.0, 6519.911764705882),
                (4, 6, 9, 11, 1, 0, 7, 3, 8, 10, 2, 5),
            ),
        ),
    },
    "nsga3-2-keys": {
        "best_cost": 154867.2,
        "history": (
            (12, 170858.72),
            (24, 169679.84),
            (24, 160310.40000000002),
            (60, 154867.2),
        ),
        "evaluations": 84,
        "accepted_moves": 26,
        "front": (
            (
                (
                    170858.72, 3866.0, 129105.92000000001, 41752.799999999996,
                    0.5297465080186239,
                ),
                (4, 0, 7, 6, 2, 3, 5, 8),
            ),
            (
                (
                    182776.96000000002, 4120.0, 138280.96000000002, 44495.99999999999,
                    0.4970873786407767,
                ),
                (4, 5, 0, 6, 2, 3, 8, 1),
            ),
            (
                (
                    192988.80000000002, 4216.0, 147456.00000000003, 45532.799999999996,
                    0.4857685009487666,
                ),
                (3, 8, 0, 4, 2, 6, 5, 1),
            ),
            (
                (196969.44, 4266.0, 150896.64, 46072.799999999996, 0.48007501172058137),
                (3, 8, 0, 1, 2, 6, 5, 4),
            ),
            (
                (181213.44, 4400.0, 133693.44, 47519.99999999999, 0.46545454545454545),
                (7, 1, 3, 8, 2, 0, 6, 4),
            ),
            (
                (
                    194995.52000000002, 4508.0, 146309.12000000002, 48686.399999999994,
                    0.45430346051464066,
                ),
                (4, 5, 7, 6, 2, 3, 8, 1),
            ),
            (
                (207736.64, 4732.0, 156631.04, 51105.6, 0.4327979712595097),
                (3, 8, 2, 4, 0, 6, 5, 1),
            ),
            (
                (
                    173911.36000000002, 4892.0, 121077.76000000002, 52833.59999999999,
                    0.4186426819296811,
                ),
                (3, 0, 7, 6, 1, 8, 5, 4),
            ),
            (
                (
                    179775.36000000002, 4904.0, 126812.16000000002, 52963.2,
                    0.4176182707993475,
                ),
                (5, 8, 7, 1, 6, 3, 4, 2),
            ),
            (
                (
                    198294.07999999996, 5132.0, 142868.47999999998, 55425.59999999999,
                    0.3990646921278254,
                ),
                (4, 0, 7, 8, 6, 3, 5, 2),
            ),
        ),
    },
    "nsga3-3-keys": {
        "best_cost": 147856.32,
        "history": (
            (12, 170858.72),
            (24, 160310.40000000002),
            (36, 159163.52000000002),
            (60, 157160.96000000002),
            (60, 151296.96000000002),
            (84, 147856.32),
        ),
        "evaluations": 84,
        "accepted_moves": 26,
        "front": (
            (
                (
                    147856.32, 3860.0, 106168.32000000002, 41687.99999999999,
                    0.5305699481865285,
                ),
                (3, 1, 5, 6, 0, 7, 8, 4),
            ),
            (
                (
                    159163.52000000002, 4376.0, 111902.72000000002, 47260.799999999996,
                    0.4680073126142596,
                ),
                (4, 1, 7, 6, 2, 3, 0, 8),
            ),
            (
                (163880.64, 4388.0, 116490.24, 47390.399999999994, 0.4667274384685506),
                (8, 1, 5, 6, 2, 3, 0, 7),
            ),
            (
                (167133.92, 5114.0, 111902.72000000002, 55231.2, 0.40046929996089164),
                (4, 1, 5, 6, 2, 3, 0, 8),
            ),
            (
                (
                    182457.12000000002, 3878.0, 140574.72000000003, 41882.399999999994,
                    0.5281072717895823,
                ),
                (8, 4, 5, 6, 1, 7, 0, 3),
            ),
            (
                (
                    187222.39999999997, 4744.0, 135987.19999999998, 51235.2,
                    0.4317032040472175,
                ),
                (4, 7, 2, 6, 0, 3, 5, 8),
            ),
            (
                (189054.24, 5126.0, 133693.44, 55360.799999999996, 0.3995317986734296),
                (4, 5, 2, 6, 1, 3, 7, 8),
            ),
            (
                (
                    202290.08000000002, 5502.0, 142868.48, 59421.59999999999,
                    0.37222828062522717,
                ),
                (4, 7, 8, 6, 1, 3, 5, 2),
            ),
            (
                (
                    210111.83999999997, 3890.0, 168099.83999999997, 42011.99999999999,
                    0.526478149100257,
                ),
                (3, 4, 6, 2, 1, 0, 8, 5),
            ),
            (
                (210256.80000000002, 4222.0, 164659.2, 45597.6, 0.48507816200852677),
                (3, 1, 6, 2, 4, 0, 8, 5),
            ),
            (
                (
                    216976.47999999998, 4738.0, 165806.08, 51170.399999999994,
                    0.4322498944702406,
                ),
                (3, 1, 7, 2, 4, 0, 8, 5),
            ),
        ),
    },
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_seeded_run_matches_pin(request, name):
    workload, search = RUNS[name]
    cdcg, platform, initial = request.getfixturevalue(workload)
    result = search(cdcg, platform, initial)
    assert _summary(result, sorted(cdcg.cores())) == PINS[name]
