//! Seeded inputs. Everything a run evaluates — evaluators and their
//! measurement seeds, designs, scenarios, traffic and resilience draws —
//! is a pure function of the workload, the seed and the work size, and
//! is generated during set-up.

use std::collections::BTreeSet;

use wcs_core::{ChaosPlan, DesignPoint, Evaluator, ResilienceSpec};
use wcs_memshare::provisioning::Provisioning;
use wcs_memshare::slowdown::BASELINE_2GIB_PAGES;
use wcs_platforms::storage::FlashModel;
use wcs_platforms::PlatformId;
use wcs_simcore::SimRng;
use wcs_workloads::diurnal::DiurnalCurve;
use wcs_workloads::{ScenarioSpec, TrafficPack, WorkloadId};

use crate::Workload;

/// One evaluation: indices into the plan's evaluators and designs, and
/// the scenario to run.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Index into [`Plan::evaluators`].
    pub evaluator: usize,
    /// Index into [`Plan::designs`].
    pub design: usize,
    /// The scenario.
    pub spec: ScenarioSpec,
}

/// A run's inputs.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Evaluators; clones share their memo.
    pub evaluators: Vec<Evaluator>,
    /// Design points.
    pub designs: Vec<DesignPoint>,
    /// Evaluations run during set-up: one-time fills and warm-up.
    pub fill: Vec<Cell>,
    /// The timed evaluations, in order: consecutive rounds of
    /// `round_len` evals with the same work mix.
    pub timed: Vec<Cell>,
    /// Evals per round.
    pub round_len: usize,
}

/// The paper accuracy profile on one thread, memo on, obs off.
fn evaluator(seed: u64) -> Evaluator {
    Evaluator::builder()
        .threads(1)
        .expect("one thread is a valid pool")
        .seed(seed)
        .build()
        .expect("the paper profile is valid")
}

/// Builds the plan of `workload` for `seed` with `size` rounds.
pub fn plan(workload: Workload, seed: u64, size: usize) -> Plan {
    match workload {
        Workload::PlatformGrid => platform_grid(seed, size),
        Workload::DesignSweep => design_sweep(seed, size),
        Workload::TrafficWhatIf => traffic_what_if(seed, size),
    }
}

/// One draw per stratum of `[0, 1)`, in seeded order: every run covers
/// the whole range evenly, so the work mix hardly moves with the seed.
fn stratified(rng: &mut SimRng, n: usize) -> Vec<f64> {
    let mut strata: Vec<usize> = (0..n).collect();
    shuffle(rng, &mut strata);
    strata
        .into_iter()
        .map(|s| (s as f64 + rng.uniform()) / n as f64)
        .collect()
}

fn shuffle<T>(rng: &mut SimRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.index(i + 1));
    }
}

/// Figure 2(c): the six catalog baselines × the five paper workloads,
/// one fresh evaluator per round. N1 is left out: its demand equals
/// mobl's, so its evaluations would be memo hits.
fn platform_grid(seed: u64, rounds: usize) -> Plan {
    let mut rng = SimRng::stream(seed, 0x6121D);
    let designs: Vec<DesignPoint> = PlatformId::ALL.map(DesignPoint::baseline).to_vec();
    // Evaluator 0 runs the warm-up round on a seed no timed round uses.
    let mut seeds = BTreeSet::new();
    let mut evaluators = Vec::with_capacity(rounds + 1);
    while evaluators.len() <= rounds {
        let s = rng.next_u64();
        if seeds.insert(s) {
            evaluators.push(evaluator(s));
        }
    }
    let round = |e: usize| {
        (0..designs.len()).flat_map(move |design| {
            WorkloadId::ALL.map(|id| Cell {
                evaluator: e,
                design,
                spec: ScenarioSpec::from_id(id),
            })
        })
    };
    Plan {
        fill: round(0).collect(),
        timed: (1..=rounds).flat_map(round).collect(),
        round_len: designs.len() * WorkloadId::ALL.len(),
        designs,
        evaluators,
    }
}

/// Local-memory pages the memory blade leaves a design, as the replay
/// layer computes them.
fn local_pages(fraction: f64) -> usize {
    (BASELINE_2GIB_PAGES as f64 * fraction) as usize
}

/// Designs drawn per sweep: one local-memory fraction from each
/// quarter of the range.
const SWEEP_DESIGNS: usize = 4;

/// A cold sweep around N2: the seed draws four designs — a local-memory
/// fraction, a flash capacity and a servers-per-blade count each — and
/// every round evaluates all four, moved by one more page of local
/// memory and one more MiB of flash per round. Rounds so carry the same
/// work while every replay and measurement stays cold. Set-up evaluates
/// srvr1 and stock N2, building the shared memory and disk traces.
fn design_sweep(seed: u64, rounds: usize) -> Plan {
    let mut rng = SimRng::stream(seed, 0x5EE9);
    let ev = evaluator(rng.next_u64());
    let local = stratified(&mut rng, SWEEP_DESIGNS);
    let flash = stratified(&mut rng, SWEEP_DESIGNS);
    let blade: Vec<u32> = (0..SWEEP_DESIGNS)
        .map(|_| 2 + rng.index(7) as u32)
        .collect();
    let mut designs = vec![DesignPoint::baseline_srvr1(), DesignPoint::n2()];
    let mut evaluators = vec![ev];
    // Distinct local-memory sizes keep every replay cold: the replay
    // memo keys on the page count, and stock N2 already used its own.
    let stock = DesignPoint::n2();
    let stock_local = stock.memshare.as_ref().expect("N2 shares memory");
    let mut used = BTreeSet::from([local_pages(stock_local.provisioning.local_fraction)]);
    let page = 1.0 / BASELINE_2GIB_PAGES as f64;
    for r in 0..rounds {
        for k in 0..SWEEP_DESIGNS {
            let mut fraction = 1.0 / 16.0 + local[k] * (0.5 - 1.0 / 16.0) + r as f64 * page;
            while !used.insert(local_pages(fraction)) {
                fraction += page;
            }
            let mut design = DesignPoint::n2();
            let ms = design.memshare.as_mut().expect("N2 shares memory");
            ms.provisioning = Provisioning {
                name: "swept",
                local_fraction: fraction,
                remote_fraction: (1.0 - fraction) * 0.85,
                assumed_slowdown: 0.02,
            };
            ms.servers_per_blade = blade[k];
            // 0.25-2 GB stays below every workload's touched disk data,
            // and 1 MiB is at least one request, so every size moves the
            // storage replay's result.
            let flash_gb = 0.25 * 8f64.powf(flash[k]) + r as f64 / 1024.0;
            let storage = design.storage.as_mut().expect("N2 has a storage scenario");
            storage.flash = Some(FlashModel::scaled(flash_gb));
            design.name = format!("N2-sweep{k}.{r}");
            designs.push(design);
            // Each swept design measures under its own client cap. The
            // search probes only powers of two up to the cap, so every
            // cap in 4096..8192 gives the paper profile's result bit for
            // bit, while the perf memo, which keys on the cap, cannot
            // hand one design another's measurement when two designs
            // happen to share a demand (no page faults, equal disk time).
            let mut own = evaluators[0].clone();
            own.measure.max_clients = 4096 + evaluators.len() as u32;
            evaluators.push(own);
        }
    }
    let cells = |evaluator: usize, design: usize| {
        WorkloadId::ALL.map(|id| Cell {
            evaluator,
            design,
            spec: ScenarioSpec::from_id(id),
        })
    };
    Plan {
        fill: (0..2).flat_map(|d| cells(0, d)).collect(),
        timed: (2..designs.len()).flat_map(|d| cells(d - 1, d)).collect(),
        round_len: SWEEP_DESIGNS * WorkloadId::ALL.len(),
        designs,
        evaluators,
    }
}

/// The traffic what-if workloads: four paper workloads and the two
/// registry families.
const TRAFFIC_WORKLOADS: [&str; 6] = [
    "websearch",
    "webmail",
    "ytube",
    "mapred-wc",
    "faas",
    "dag-analytics",
];

/// Seed-drawn traffic queries against steady capacities filled in
/// set-up. Each round runs every (design, workload, pack, resilient?)
/// combination once, in seeded order; the loads and resilience knobs
/// are drawn per query.
fn traffic_what_if(seed: u64, rounds: usize) -> Plan {
    let mut rng = SimRng::stream(seed, 0x7AFF1C);
    let base = evaluator(rng.next_u64());
    let designs = vec![
        DesignPoint::baseline_srvr1(),
        DesignPoint::baseline(PlatformId::Emb1),
        DesignPoint::n2(),
    ];
    let fill = (0..designs.len())
        .flat_map(|design| {
            TRAFFIC_WORKLOADS.map(|w| Cell {
                evaluator: 0,
                design,
                spec: ScenarioSpec::steady(w),
            })
        })
        .collect();
    let combos = designs.len() * TRAFFIC_WORKLOADS.len() * 3 * 2;
    let mut order: Vec<usize> = Vec::with_capacity(rounds * combos);
    for _ in 0..rounds {
        let mut round: Vec<usize> = (0..combos).collect();
        shuffle(&mut rng, &mut round);
        order.extend(round);
    }

    let mut evaluators = vec![base.clone()];
    let mut timed = Vec::with_capacity(order.len());
    for combo in order {
        let resilient = combo % 2 == 1;
        let pack = match (combo / 2) % 3 {
            0 => TrafficPack::Diurnal {
                curve: DiurnalCurve::typical(),
                peak_load: rng.uniform_range(0.5, 2.0),
            },
            1 => TrafficPack::FlashCrowd {
                base_load: rng.uniform_range(0.4, 0.8),
                spike_load: rng.uniform_range(1.0, 2.0),
                spike_fraction: rng.uniform_range(0.0625, 0.25),
            },
            _ => {
                let base_load = rng.uniform_range(0.4, 0.8);
                TrafficPack::FailoverSurge {
                    base_load,
                    surge_factor: rng.uniform_range(1.25, 2.0 / base_load),
                }
            }
        };
        let workload = TRAFFIC_WORKLOADS[(combo / 6) % TRAFFIC_WORKLOADS.len()];
        let design = combo / 36;
        let evaluator = if resilient {
            evaluators.push(Evaluator {
                resilience: Some(resilience(&mut rng)),
                ..base.clone()
            });
            evaluators.len() - 1
        } else {
            0
        };
        timed.push(Cell {
            evaluator,
            design,
            spec: ScenarioSpec::steady(workload).with_traffic(pack),
        });
    }
    Plan {
        evaluators,
        designs,
        fill,
        timed,
        round_len: combos,
    }
}

fn resilience(rng: &mut SimRng) -> ResilienceSpec {
    ResilienceSpec {
        admission_x: rng.chance(0.75).then(|| rng.uniform_range(1.0, 1.5)),
        low_fraction: rng.uniform_range(0.1, 0.3),
        retry_ratio: Some(rng.uniform_range(0.05, 0.2)),
        breaker: rng.chance(0.5),
        max_retries: 1 + rng.index(4) as u32,
        chaos: rng.chance(0.75).then(|| ChaosPlan {
            mttf_span: rng.uniform_range(0.3, 0.8),
            mttr_span: rng.uniform_range(0.04, 0.12),
            co_vary: rng.chance(0.5),
        }),
    }
}
