//! Canonical result digest: every numeric field of a [`ScenarioEval`]
//! hashed field by field from its bit pattern (FNV-1a over 64-bit
//! words), so two runs agree on the digest exactly when every simulated
//! statistic is bit-identical. Formatting never enters the hash.

use wcs_core::{FamilyEval, ResilienceEval, ScenarioEval, TrafficEval};

/// Running FNV-1a hash over 64-bit words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// Folds an `f64` in by its bits.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.word(v.to_bits())
    }

    /// Folds a string in, length first so concatenations cannot alias.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
        self
    }

    /// The hash so far.
    pub fn value(&self) -> u64 {
        self.0
    }

    /// Folds one evaluation in, every field in declaration order.
    pub fn eval(&mut self, e: &ScenarioEval) -> &mut Self {
        self.str(&e.design)
            .str(&e.scenario)
            .f64(e.value)
            .str(e.unit);
        match &e.family {
            FamilyEval::Paper { workload } => {
                self.word(0).str(workload.label());
            }
            FamilyEval::Faas {
                pool_gib,
                resident_functions,
                warm_fraction,
                cold_fraction,
                cpu_inflation,
            } => {
                self.word(1)
                    .f64(*pool_gib)
                    .word(u64::from(*resident_functions))
                    .f64(*warm_fraction)
                    .f64(*cold_fraction)
                    .f64(*cpu_inflation);
            }
            FamilyEval::Dag {
                tasks,
                stragglers,
                critical_path_secs,
                makespan_secs,
            } => {
                self.word(2)
                    .word(u64::from(*tasks))
                    .word(u64::from(*stragglers))
                    .f64(*critical_path_secs)
                    .f64(*makespan_secs);
            }
        }
        match &e.traffic {
            None => self.word(0),
            Some(t) => self.word(1).traffic(t),
        };
        match &e.resilience {
            None => self.word(0),
            Some(r) => self.word(1).resilience(r),
        };
        self.str(&e.report.name);
        for line in e.report.lines() {
            self.word(line.component as u64)
                .f64(line.hw_usd)
                .f64(line.power_w)
                .f64(line.pc_usd);
        }
        // The benchmark's evaluators carry no fault burden; a burdened
        // evaluation would need its model's fields folded in here.
        assert!(
            e.availability.is_none(),
            "digest covers fail-free evaluations"
        );
        self.word(0)
    }

    fn traffic(&mut self, t: &TrafficEval) -> &mut Self {
        self.str(t.pack)
            .f64(t.offered_peak_rps)
            .f64(t.offered_mean_rps)
            .word(t.completed)
            .f64(t.throughput_rps)
            .f64(t.mean_latency_secs)
            .f64(t.p50_latency_secs)
            .f64(t.p95_latency_secs)
            .f64(t.p99_latency_secs);
        match t.qos_attainment {
            None => self.word(0),
            Some(a) => self.word(1).f64(a),
        };
        self.f64(t.peak_utilization)
    }

    fn resilience(&mut self, r: &ResilienceEval) -> &mut Self {
        self.word(r.offered)
            .word(r.admitted)
            .word(r.shed)
            .f64(r.shed_fraction)
            .f64(r.goodput_rps)
            .word(r.dropped)
            .f64(r.availability)
            .word(r.retries_spent)
            .word(r.retries_denied)
            .f64(r.retry_amplification)
            .word(r.breaker_trips)
            .word(r.breaker_fast_fails)
            .f64(r.breaker_open_fraction)
            .f64(r.slo_secs)
            .f64(r.p99_over_slo)
            .f64(r.slo_attainment)
            .word(u64::from(r.chaos_outages))
            .f64(r.chaos_down_fraction)
    }
}

/// The digest of one evaluation on its own.
pub(crate) fn of_eval(e: &ScenarioEval) -> u64 {
    Digest::default().eval(e).value()
}
