//! Requests, stages, and request sources.

use std::fmt;

use wcs_simcore::{SimDuration, SimRng};

/// The service stations of the simulated server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Resource {
    /// Multi-core processor (an `m`-server station).
    Cpu,
    /// Memory-capacity admission work (buffer-cache churn).
    Memory,
    /// Disk subsystem.
    Disk,
    /// Network interface.
    Net,
}

impl Resource {
    /// All stations, in a fixed order for indexing.
    pub const ALL: [Resource; 4] = [
        Resource::Cpu,
        Resource::Memory,
        Resource::Disk,
        Resource::Net,
    ];

    /// Index of this resource into per-resource arrays.
    pub fn index(self) -> usize {
        match self {
            Resource::Cpu => 0,
            Resource::Memory => 1,
            Resource::Disk => 2,
            Resource::Net => 3,
        }
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Resource::Cpu => "cpu",
            Resource::Memory => "memory",
            Resource::Disk => "disk",
            Resource::Net => "net",
        };
        f.write_str(s)
    }
}

/// One step of a request's lifecycle: a resource and the service time the
/// request needs on it.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Stage {
    /// The station this stage runs on.
    pub resource: Resource,
    /// Service time required (queueing delay not included).
    pub service: SimDuration,
}

impl Stage {
    /// Creates a stage.
    pub fn new(resource: Resource, service: SimDuration) -> Self {
        Stage { resource, service }
    }
}

/// A source of requests: each call appends the next request's stages
/// to a stage list.
///
/// The list arrives empty, and the simulator recycles it from a finished
/// request, so a source that only pushes allocates nothing once the run
/// is warm. Workload models implement this; stage service times should
/// already be scaled to the platform under test. Appending no stage is
/// allowed and models a request served entirely from in-core caches with
/// negligible demand (completes instantly).
///
/// A closure returning its request's stages is a source too.
pub trait RequestSource {
    /// Appends the next request's stages to `stages`, which is empty.
    fn next_request(&mut self, rng: &mut SimRng, stages: &mut Vec<Stage>);
}

impl<F> RequestSource for F
where
    F: FnMut(&mut SimRng) -> Vec<Stage>,
{
    fn next_request(&mut self, rng: &mut SimRng, stages: &mut Vec<Stage>) {
        stages.extend(self(rng));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_indices_are_dense_and_unique() {
        let mut seen = [false; 4];
        for r in Resource::ALL {
            assert!(!seen[r.index()]);
            seen[r.index()] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn closures_are_sources() {
        let mut src =
            |_rng: &mut SimRng| vec![Stage::new(Resource::Cpu, SimDuration::from_micros(1))];
        let mut rng = SimRng::seed_from(0);
        let mut req = Vec::new();
        src.next_request(&mut rng, &mut req);
        assert_eq!(req.len(), 1);
        assert_eq!(req[0].resource, Resource::Cpu);
    }

    #[test]
    fn display_names() {
        assert_eq!(Resource::Cpu.to_string(), "cpu");
        assert_eq!(Resource::Net.to_string(), "net");
    }
}
