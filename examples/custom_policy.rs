//! Extending the library: plug a custom replacement policy into the
//! cache and benchmark it against the built-ins.
//!
//! Implements CLOCK (second-chance) — a policy the paper doesn't study —
//! against the public [`ReplacementPolicy`] trait, then runs it through
//! the same simulator as LRU and PA-LRU.
//!
//! ```text
//! cargo run --release --example custom_policy
//! ```

use pc_cache::policy::{PaLru, PaLruConfig};
use pc_cache::{BlockCache, ReplacementPolicy, Slot, WritePolicy};
use pc_diskmodel::ServiceRequest;
use pc_disksim::{DiskArray, DpmPolicy};
use pc_sim::SimConfig;
use pc_trace::OltpConfig;
use pc_units::{BlockId, SimTime};

/// CLOCK / second-chance replacement: a referenced bit per resident
/// block; the hand sweeps, clearing bits, and evicts the first
/// unreferenced block it finds.
///
/// The cache hands every resident block a dense [`Slot`], so the policy
/// needs no hash map of its own: the ring stores slots and the
/// referenced bits live in a flat slot-indexed vector.
#[derive(Debug, Default)]
struct Clock {
    ring: Vec<Slot>,
    referenced: Vec<bool>,
    hand: usize,
}

impl ReplacementPolicy for Clock {
    fn name(&self) -> String {
        "clock".to_owned()
    }

    fn on_access(&mut self, slot: Option<Slot>, _block: BlockId, _time: SimTime) {
        if let Some(slot) = slot {
            self.referenced[slot.index()] = true;
        }
    }

    fn on_insert(&mut self, slot: Slot, _block: BlockId, _time: SimTime) {
        self.ring.push(slot);
        if slot.index() >= self.referenced.len() {
            self.referenced.resize(slot.index() + 1, false);
        }
        self.referenced[slot.index()] = false;
    }

    fn evict(&mut self) -> Slot {
        loop {
            if self.ring.is_empty() {
                panic!("no block to evict");
            }
            self.hand %= self.ring.len();
            let candidate = self.ring[self.hand];
            if self.referenced[candidate.index()] {
                self.referenced[candidate.index()] = false;
                self.hand += 1;
            } else {
                self.ring.swap_remove(self.hand);
                return candidate;
            }
        }
    }
}

fn main() {
    let trace = OltpConfig::default().with_requests(30_000).generate(3);
    let sim = SimConfig::default();
    let power = sim.power_model();

    println!(
        "{:8} {:>12} {:>10} {:>10}",
        "policy", "energy", "hit-ratio", "spin-ups"
    );
    let builders: Vec<Box<dyn Fn() -> Box<dyn ReplacementPolicy>>> = vec![
        Box::new(|| Box::new(pc_cache::policy::Lru::new())),
        Box::new(|| Box::new(Clock::default())),
        Box::new({
            let power = power.clone();
            move || Box::new(PaLru::new(PaLruConfig::for_power_model(&power)))
        }),
    ];
    for build in builders {
        // Drive the cache + disk array directly (the same loop pc-sim
        // runs), showing the public API a downstream system would use.
        let mut cache = BlockCache::new(4_096, build(), WritePolicy::WriteBack);
        let mut disks = DiskArray::new(
            trace.disk_count(),
            power.clone(),
            sim.service,
            DpmPolicy::Practical,
        );
        let mut effects = Vec::new();
        for r in &trace {
            cache.access(r, |d| disks.disk(d).is_sleeping(r.time), &mut effects);
            for effect in &effects {
                let b = effect.block();
                disks.service(b.disk(), r.time, ServiceRequest::single(b.block()));
            }
        }
        let last = trace.records().last().expect("non-empty trace").time;
        disks.finish(last.max(disks.latest_completion()));
        let total = disks.total_report();
        println!(
            "{:8} {:>12} {:>9.1}% {:>10}",
            cache.policy_name(),
            disks.total_energy().to_string(),
            cache.stats().hit_ratio() * 100.0,
            total.spin_ups,
        );
    }
}
