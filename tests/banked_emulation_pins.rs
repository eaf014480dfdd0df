//! Integration: the banked dataflow emulation of the `accel-model`
//! workload's real traffic is pinned cycle for cycle. The TGV edge-16
//! mesh (4,096 elements) is partitioned into 8 and 32 shards (one batch
//! each); every plan runs on the U280 HBM2 and U200 DDR4 systems under
//! round-robin and optimized bank assignments. The makespans and the
//! full per-bank counters were recorded from the exhaustive-scan DES
//! engine, so any change in the engine's semantics on contended,
//! multi-bank traffic fails here.

use fem_cfd_accel::accel::optimizer::optimize_bank_assignment;
use fem_cfd_accel::mesh::{PartitionStrategy, ShardPlan};
use fem_cfd_accel::platform::{BankAssignment, MemorySystem};
use fem_cfd_accel::solver::engine::{emulate_plan_banked, shard_compute_floors, shard_streams};
use fem_cfd_accel::solver::Scenario;

/// One pinned emulation: (shards, system, policy, makespan, per-bank
/// `[reserved_cycles, stall_cycles, tokens]` in bank order).
type Pin = (usize, &'static str, &'static str, u64, &'static [[u64; 3]]);

const PINS: &[Pin] = &[
    (
        8,
        "u280-hbm2",
        "round-robin",
        20129,
        &[
            [2560, 582, 2560],
            [2560, 582, 2560],
            [7168, 10872, 2560],
            [2560, 549, 2560],
            [2560, 587, 2560],
            [2560, 587, 2560],
            [7168, 5832, 2560],
            [2560, 557, 2560],
            [2560, 588, 2560],
            [2560, 588, 2560],
            [7168, 858, 2560],
            [2560, 564, 2560],
            [7168, 15921, 2560],
            [2560, 560, 2560],
            [2560, 560, 2560],
            [2560, 560, 2560],
            [6656, 10279, 2048],
            [2048, 33, 2048],
            [2048, 49, 2048],
            [2048, 49, 2048],
            [6656, 5230, 2048],
            [2048, 29, 2048],
            [2048, 48, 2048],
            [2048, 48, 2048],
            [6656, 216, 2048],
            [2048, 39, 2048],
            [2048, 50, 2048],
            [2048, 50, 2048],
            [2048, 50, 2048],
            [2048, 50, 2048],
            [6656, 15417, 2048],
            [2048, 56, 2048],
        ],
    ),
    (
        8,
        "u280-hbm2",
        "optimized",
        5188,
        &[
            [5120, 0, 512],
            [5120, 0, 512],
            [5120, 0, 512],
            [5120, 0, 512],
            [5120, 0, 512],
            [5120, 0, 512],
            [5120, 0, 512],
            [5120, 0, 512],
            [3072, 7502, 3072],
            [3072, 7512, 3072],
            [3072, 7512, 3072],
            [3072, 7485, 3072],
            [3072, 7496, 3072],
            [3072, 7544, 3072],
            [3072, 7502, 3072],
            [3072, 7502, 3072],
            [3072, 7559, 3072],
            [3072, 7559, 3072],
            [3072, 7502, 3072],
            [3072, 7544, 3072],
            [3072, 7544, 3072],
            [3072, 7506, 3072],
            [3072, 7506, 3072],
            [3072, 7560, 3072],
            [2560, 5017, 2560],
            [2560, 5007, 2560],
            [2560, 5029, 2560],
            [2560, 5029, 2560],
            [2560, 5006, 2560],
            [2560, 5006, 2560],
            [2560, 5043, 2560],
            [2560, 5021, 2560],
        ],
    ),
    (
        8,
        "u200-ddr4",
        "round-robin",
        54579,
        &[
            [36864, 497535, 18432],
            [18432, 18640, 18432],
            [36864, 425898, 18432],
            [18432, 18701, 18432],
        ],
    ),
    (
        8,
        "u200-ddr4",
        "optimized",
        58427,
        &[
            [27648, 173957, 18432],
            [27648, 233545, 18432],
            [27648, 295506, 18432],
            [27648, 300380, 18432],
        ],
    ),
    (
        32,
        "u280-hbm2",
        "round-robin",
        11030,
        &[
            [4608, 17620, 2304],
            [2304, 1407, 2304],
            [4608, 26180, 2304],
            [2304, 1404, 2304],
            [4608, 14958, 2304],
            [2304, 1405, 2304],
            [4608, 23227, 2304],
            [2304, 1349, 2304],
            [4608, 11833, 2304],
            [2304, 1349, 2304],
            [4608, 20854, 2304],
            [2304, 1355, 2304],
            [4608, 26563, 2304],
            [2304, 1289, 2304],
            [4608, 19010, 2304],
            [2304, 1323, 2304],
            [4608, 28446, 2304],
            [2304, 1332, 2304],
            [4608, 17333, 2304],
            [2304, 1396, 2304],
            [4608, 26067, 2304],
            [2304, 1388, 2304],
            [4608, 15176, 2304],
            [2304, 1318, 2304],
            [4608, 23483, 2304],
            [2304, 1305, 2304],
            [4608, 12751, 2304],
            [2304, 1275, 2304],
            [4608, 20691, 2304],
            [2304, 1289, 2304],
            [4608, 32029, 2304],
            [2304, 1222, 2304],
        ],
    ),
    (
        32,
        "u280-hbm2",
        "optimized",
        11705,
        &[
            [3456, 3003, 2304],
            [3456, 3139, 2304],
            [3456, 3388, 2304],
            [3456, 4319, 2304],
            [3456, 4011, 2304],
            [3456, 5287, 2304],
            [3456, 4492, 2304],
            [3456, 6984, 2304],
            [3456, 5508, 2304],
            [3456, 9542, 2304],
            [3456, 6995, 2304],
            [3456, 10900, 2304],
            [3456, 8045, 2304],
            [3456, 12042, 2304],
            [3456, 8648, 2304],
            [3456, 12604, 2304],
            [3456, 9636, 2304],
            [3456, 21721, 2304],
            [3456, 11393, 2304],
            [3456, 20187, 2304],
            [3456, 12711, 2304],
            [3456, 18520, 2304],
            [3456, 14229, 2304],
            [3456, 18597, 2304],
            [3456, 15934, 2304],
            [3456, 18724, 2304],
            [3456, 17782, 2304],
            [3456, 20317, 2304],
            [3456, 19877, 2304],
            [3456, 22775, 2304],
            [3456, 19224, 2304],
            [3456, 24196, 2304],
        ],
    ),
    (
        32,
        "u200-ddr4",
        "round-robin",
        38692,
        &[
            [36864, 1990250, 18432],
            [18432, 76819, 18432],
            [36864, 1084674, 18432],
            [18432, 73663, 18432],
        ],
    ),
    (
        32,
        "u200-ddr4",
        "optimized",
        30578,
        &[
            [27648, 776870, 18432],
            [27648, 879801, 18432],
            [27648, 674345, 18432],
            [27648, 1074531, 18432],
        ],
    ),
];

#[test]
fn banked_emulation_of_the_accel_model_traffic_is_pinned() {
    let mesh = Scenario::taylor_green().mesh(16).unwrap();
    assert_eq!(mesh.num_elements(), 4096);
    let npe = mesh.nodes_per_element() as u64;
    let mut pins = PINS.iter();
    for shards in [8usize, 32] {
        let plan =
            ShardPlan::with_strategy(&mesh, shards, 4096, PartitionStrategy::Partitioned).unwrap();
        let streams = shard_streams(&plan, npe);
        let floors = shard_compute_floors(&plan, npe);
        for system in [MemorySystem::u280_hbm2(), MemorySystem::u200_ddr()] {
            let round_robin = BankAssignment::round_robin(&streams, &system);
            let optimized = optimize_bank_assignment(&streams, &system, &floors);
            for (policy, assignment) in [("round-robin", &round_robin), ("optimized", &optimized)] {
                let (p_shards, p_system, p_policy, makespan, banks) = *pins.next().unwrap();
                assert_eq!(
                    (p_shards, p_system, p_policy),
                    (shards, system.name(), policy)
                );
                let e = emulate_plan_banked(&plan, npe, &system, assignment).unwrap();
                let case = format!("x{shards} {} {policy}", system.name());
                assert_eq!(e.makespan_cycles, makespan, "{case}: makespan");
                let got: Vec<[u64; 3]> = e
                    .bank_stats
                    .iter()
                    .enumerate()
                    .map(|(i, b)| {
                        assert_eq!(b.bank, i, "{case}: bank order");
                        [b.reserved_cycles, b.stall_cycles, b.tokens]
                    })
                    .collect();
                assert_eq!(got, banks, "{case}: bank stats");
            }
        }
    }
    assert!(pins.next().is_none());
}
