//! The QoS throughput search against the search it replaced.
//!
//! `reference` is the earlier search, kept as the oracle: it doubles the
//! client count until QoS fails, then bisects. The current search also
//! ends the ramp at the first probe that does not raise throughput, so
//! its probes must be a prefix of the reference's and its answer the best
//! of that prefix: equal to the reference's, or lower by the luck the
//! reference's extra plateau probes had.

use wcs_platforms::{catalog, PlatformId};
use wcs_simcore::{SimDuration, SimRng};
use wcs_simserver::driver::{search_clients, QosInfeasible, SearchConfig};
use wcs_simserver::{
    find_max_throughput, QosSpec, RequestSource, Resource, RunStats, ServerSim, ServerSpec, Stage,
};
use wcs_workloads::perf::{measure_perf, MeasureConfig};
use wcs_workloads::service::PlatformDemand;
use wcs_workloads::{suite, Metric, WorkloadId};

type Search =
    fn(QosSpec, u32, &mut dyn FnMut(u32) -> RunStats) -> Result<(u32, RunStats), QosInfeasible>;

/// The search before the plateau stop: ramp until QoS fails, then bisect.
fn reference(
    qos: QosSpec,
    max_clients: u32,
    probe: &mut dyn FnMut(u32) -> RunStats,
) -> Result<(u32, RunStats), QosInfeasible> {
    let first = probe(1);
    if !qos.met_by(&first) {
        return Err(QosInfeasible {
            single_client_latency: first.latency.percentile(qos.percentile).unwrap_or(f64::NAN),
            bound: qos.bound.as_secs_f64(),
        });
    }
    let mut best = (1u32, first);
    let mut lo = 1u32;
    let mut hi = None;
    let mut n = 2u32;
    while n <= max_clients {
        let stats = probe(n);
        if qos.met_by(&stats) {
            if stats.throughput_rps() > best.1.throughput_rps() {
                best = (n, stats);
            }
            lo = n;
            n = n.saturating_mul(2);
        } else {
            hi = Some(n);
            break;
        }
    }
    if let Some(mut hi) = hi {
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            let stats = probe(mid);
            if qos.met_by(&stats) {
                if stats.throughput_rps() > best.1.throughput_rps() {
                    best = (mid, stats);
                }
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }
    Ok(best)
}

/// Runs `search` and returns the client count of every probe it made,
/// with the chosen client count and its throughput.
fn traced(
    search: Search,
    qos: QosSpec,
    max_clients: u32,
    probe: &mut dyn FnMut(u32) -> RunStats,
) -> (Vec<u32>, u32, f64) {
    let mut probes = Vec::new();
    let (clients, stats) = search(qos, max_clients, &mut |n| {
        probes.push(n);
        probe(n)
    })
    .expect("QoS is feasible with one client");
    (probes, clients, stats.throughput_rps())
}

/// The probe `find_max_throughput` runs for `measure_perf`: source stream
/// `k` on the `k`-th probe, seed mixed with the client count.
fn demand_probe<'a>(
    sim: &'a ServerSim,
    demand: &'a PlatformDemand,
    cfg: &'a MeasureConfig,
) -> impl FnMut(u32) -> RunStats + 'a {
    let mut stream = 0u64;
    move |n| {
        stream += 1;
        sim.run_closed_loop(
            &mut demand.source(stream),
            n,
            cfg.warmup,
            cfg.measured,
            cfg.seed ^ u64::from(n).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )
    }
}

/// The largest shortfall against the reference allowed on the grid
/// below. Measured: 9.1% at srvr1/ytube seed 2, under 7% in the other 71
/// cells, and none in 48 of them.
const DELTA: f64 = 0.10;

#[test]
fn search_is_a_prefix_of_the_reference_on_the_platform_grid() {
    let mut probes = (0usize, 0usize);
    for seed in [0x5EED, 1, 2, 3] {
        let cfg = MeasureConfig {
            seed,
            ..MeasureConfig::quick()
        };
        for wl in [
            WorkloadId::Websearch,
            WorkloadId::Webmail,
            WorkloadId::Ytube,
        ] {
            let workload = suite::workload(wl);
            let Metric::ThroughputQos(qos) = workload.metric else {
                panic!("{wl} is a throughput workload");
            };
            for id in PlatformId::ALL {
                let platform = catalog::platform(id);
                let demand = PlatformDemand::new(&workload, &platform);
                let sim = ServerSim::new(demand.server_spec());
                let (new, clients, rps) = traced(
                    search_clients,
                    qos,
                    cfg.max_clients,
                    &mut demand_probe(&sim, &demand, &cfg),
                );
                let (old, _, old_rps) = traced(
                    reference,
                    qos,
                    cfg.max_clients,
                    &mut demand_probe(&sim, &demand, &cfg),
                );
                let cell = format!("{id}/{wl} seed {seed}");
                assert!(old.starts_with(&new), "{cell}: {new:?} vs {old:?}");
                assert!(new.contains(&clients), "{cell}");
                assert!(rps <= old_rps, "{cell}: {rps} > {old_rps}");
                assert!(
                    rps >= (1.0 - DELTA) * old_rps,
                    "{cell}: {rps} is more than {DELTA} below {old_rps}"
                );
                let measured = measure_perf(&workload, &platform, &cfg).expect("feasible");
                assert_eq!(measured.value.to_bits(), rps.to_bits(), "{cell}");
                probes.0 += new.len();
                probes.1 += old.len();
            }
        }
    }
    // The plateau stop is the point: it must save probes overall.
    assert!(2 * probes.0 < probes.1, "{probes:?}");
}

/// Every request needs exactly 1 ms of CPU.
struct OneMs;

impl RequestSource for OneMs {
    fn next_request(&mut self, _rng: &mut SimRng, stages: &mut Vec<Stage>) {
        stages.push(Stage::new(Resource::Cpu, SimDuration::from_millis(1)));
    }
}

#[test]
fn a_flat_plateau_ends_the_ramp_after_three_probes() {
    // On 2 cores one client completes exactly 1000 requests/s, and two
    // saturate the cores at 2000/s; four queue for the same 2000/s, well
    // inside the 100 ms bound.
    let sim = ServerSim::new(ServerSpec::new(2));
    let qos = QosSpec::new(95.0, SimDuration::from_millis(100));
    let config = SearchConfig::default();
    let mut probe = |n| sim.run_closed_loop(&mut OneMs, n, 500, 4000, 7);
    let (new, clients, rps) = traced(search_clients, qos, config.max_clients, &mut probe);
    assert_eq!(new, [1, 2, 4]);
    assert_eq!((clients, rps), (2, 2000.0));
    // The reference ramps to 256 clients (128 ms, failing) and bisects
    // to 200 (exactly 100 ms) for the same answer.
    let (old, old_clients, old_rps) = traced(reference, qos, config.max_clients, &mut probe);
    assert_eq!(old.len(), 16, "{old:?}");
    assert_eq!((old_clients, old_rps), (2, 2000.0));

    let mut sources = 0;
    let result = find_max_throughput(
        &sim,
        &mut || {
            sources += 1;
            Box::new(OneMs)
        },
        qos,
        config,
    )
    .expect("feasible");
    assert_eq!((sources, result.clients, result.rps), (3, 2, 2000.0));
}
