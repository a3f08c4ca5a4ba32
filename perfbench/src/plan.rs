//! The `serve` load plan: for every closed-loop client, the exact
//! sequence of job submissions and the trace-store tier each one must
//! hit. Planned up front from the benchmark seed so the engine's
//! counters can be checked against the plan exactly.
//!
//! The mix follows the one usage the repository documents, the
//! `redsim-serve` recipe in EXPERIMENTS.md: every key is submitted under
//! `sie`, `die` and `die-irb` (one trace load, two in-memory hits) and
//! the `die-irb` spec is replayed (answered from the journal). Half of
//! a client's keys load from disk, standing for the traces persisted
//! before the recipe's mid-sweep restart; half are built. So every list
//! is 1/8 cold, 1/8 disk, 1/2 mem and 1/4 dedup.
//!
//! Trace keys (workload × input seed) and job specs are partitioned by
//! client — every input seed a client uses is `≡ client (mod clients)`
//! — so no two engine workers ever race on one key, and a request's
//! tier depends only on its own client's earlier requests.

use redsim_core::ExecMode;
use redsim_serve::spec::JobSpec;
use redsim_util::rng::Rng;
use redsim_workloads::Workload;

/// Where a request's trace comes from (or why no trace is needed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// A fresh key: the store assembles, emulates and persists it.
    Cold,
    /// A key persisted during set-up: read back from `<state>/traces`.
    Disk,
    /// A key an earlier request loaded, under another mode: the
    /// store's in-memory map answers.
    Mem,
    /// An exact repeat of an earlier spec: answered from the journal.
    Dedup,
}

impl Tier {
    /// Metric-name spelling.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Cold => "cold",
            Tier::Disk => "disk",
            Tier::Mem => "mem",
            Tier::Dedup => "dedup",
        }
    }

    /// Position in [`Tier::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One planned submission.
#[derive(Debug, Clone)]
pub struct Request {
    /// The tier the request must hit.
    pub tier: Tier,
    /// The spec to submit.
    pub spec: JobSpec,
}

/// The whole load: one request list per client, plus the specs whose
/// traces set-up must persist so their first request is a disk hit.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Request sequence per client.
    pub clients: Vec<Vec<Request>>,
    /// Disk-tier keys to persist before the load starts.
    pub persist: Vec<JobSpec>,
}

/// Kernels a key can name: the integer kernels, whose quick traces stay
/// under ~140k instructions, so the simulated work per request is small
/// next to the protocol and store costs the workload measures.
const WORKLOADS: [Workload; 7] = [
    Workload::Gzip,
    Workload::Vpr,
    Workload::Gcc,
    Workload::Mcf,
    Workload::Parser,
    Workload::Vortex,
    Workload::Twolf,
];

/// The modes every key is requested under, in order: the three
/// submissions of the `redsim-serve` recipe in EXPERIMENTS.md, one
/// trace load followed by two in-memory hits.
const RECIPE_MODES: [ExecMode; 3] = [ExecMode::Sie, ExecMode::Die, ExecMode::DieIrb];

/// Requests per key: the recipe's three modes, then its replay of the
/// last one after a restart, which the journal answers.
const REQUESTS_PER_KEY: usize = RECIPE_MODES.len() + 1;

/// Keys per client: every kernel once as a cold key and once as a disk
/// key. The recipe's restart lands mid-sweep, so half of a client's
/// keys were loaded before it (their traces are on disk) and half after.
const KEYS_PER_CLIENT: usize = 2 * WORKLOADS.len();

/// Requests in every client's list.
const PER_CLIENT: usize = KEYS_PER_CLIENT * REQUESTS_PER_KEY;

fn shuffle<T>(rng: &mut Rng, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.index(i + 1));
    }
}

/// One key's requests, in the recipe's order: the first mode loads the
/// trace from `first`, the other two hit memory, and the replay of the
/// last spec is a dedup.
fn session(spec: &JobSpec, first: Tier) -> Vec<Request> {
    let mut reqs: Vec<Request> = RECIPE_MODES
        .iter()
        .enumerate()
        .map(|(i, &mode)| Request {
            tier: if i == 0 { first } else { Tier::Mem },
            spec: JobSpec {
                mode,
                ..spec.clone()
            },
        })
        .collect();
    let replay = reqs[RECIPE_MODES.len() - 1].spec.clone();
    reqs.push(Request {
        tier: Tier::Dedup,
        spec: replay,
    });
    reqs
}

/// Plans [`PER_CLIENT`] requests for each of `clients` clients.
///
/// # Panics
///
/// Panics if `clients` is zero.
pub fn plan(seed: u64, clients: usize) -> Plan {
    assert!(clients > 0, "at least one client");
    let mut persist = Vec::new();
    let mut lists = Vec::with_capacity(clients);
    // Input seeds start at a seed-dependent base and step by `clients`,
    // so client `c` owns exactly the seeds congruent to `c`.
    let base = Rng::new(seed).next_u64() >> 16;
    for c in 0..clients {
        let mut rng = Rng::new(seed ^ (0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(c as u64 + 1)));
        let mut sessions = Vec::with_capacity(KEYS_PER_CLIENT);
        for first in [Tier::Cold, Tier::Disk] {
            let mut kernels = WORKLOADS;
            shuffle(&mut rng, &mut kernels);
            for workload in kernels {
                let mut spec = JobSpec::new(workload, RECIPE_MODES[0]);
                spec.input_seed = Some(base + (sessions.len() * clients + c) as u64);
                if first == Tier::Disk {
                    persist.push(spec.clone());
                }
                sessions.push(session(&spec, first).into_iter());
            }
        }
        // Interleave the keys' sessions in seeded order, each session
        // keeping its own order.
        let mut list = Vec::with_capacity(PER_CLIENT);
        while !sessions.is_empty() {
            let i = rng.index(sessions.len());
            list.extend(sessions[i].next());
            if sessions[i].len() == 0 {
                sessions.swap_remove(i);
            }
        }
        lists.push(list);
    }
    Plan {
        clients: lists,
        persist,
    }
}

/// Planned request count per tier over the first `done[c]` requests
/// of each client.
pub fn tier_counts(plan: &Plan, done: &[usize]) -> [u64; 4] {
    let mut counts = [0u64; 4];
    for (list, &n) in plan.clients.iter().zip(done) {
        for r in &list[..n] {
            counts[r.tier.index()] += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsim_core::ExecMode::{Die, DieIrb, Sie};
    use redsim_serve::spec::DEFAULT_TRACE_BUDGET;
    use redsim_serve::store::TraceStore;
    use std::collections::{HashMap, HashSet};

    fn fingerprints(p: &Plan) -> Vec<(u64, u64, Tier, usize)> {
        p.clients
            .iter()
            .enumerate()
            .flat_map(|(c, list)| {
                list.iter().map(move |r| {
                    (
                        r.spec.fingerprint(),
                        TraceStore::trace_key(&r.spec, DEFAULT_TRACE_BUDGET),
                        r.tier,
                        c,
                    )
                })
            })
            .collect()
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        assert_eq!(fingerprints(&plan(7, 2)), fingerprints(&plan(7, 2)));
        assert_ne!(fingerprints(&plan(7, 2)), fingerprints(&plan(8, 2)));
    }

    #[test]
    fn no_key_or_spec_is_shared_between_clients() {
        for seed in 0..20 {
            let p = plan(seed, 2);
            let mut key_owner: HashMap<u64, usize> = HashMap::new();
            let mut spec_owner: HashMap<u64, usize> = HashMap::new();
            for (fp, key, _, c) in fingerprints(&p) {
                assert_eq!(*key_owner.entry(key).or_insert(c), c, "seed {seed}");
                assert_eq!(*spec_owner.entry(fp).or_insert(c), c, "seed {seed}");
            }
        }
    }

    #[test]
    fn every_tier_follows_from_the_clients_own_history() {
        for seed in 0..20 {
            let p = plan(seed, 2);
            let persisted: HashSet<u64> = p
                .persist
                .iter()
                .map(|s| TraceStore::trace_key(s, DEFAULT_TRACE_BUDGET))
                .collect();
            for list in &p.clients {
                let mut loaded = HashSet::new();
                let mut specs = HashSet::new();
                for r in list {
                    let key = TraceStore::trace_key(&r.spec, DEFAULT_TRACE_BUDGET);
                    let fp = r.spec.fingerprint();
                    let expect = if specs.contains(&fp) {
                        Tier::Dedup
                    } else if loaded.contains(&key) {
                        Tier::Mem
                    } else if persisted.contains(&key) {
                        Tier::Disk
                    } else {
                        Tier::Cold
                    };
                    assert_eq!(r.tier, expect, "seed {seed}");
                    loaded.insert(key);
                    specs.insert(fp);
                }
            }
        }
    }

    #[test]
    fn every_key_follows_the_recipe() {
        for seed in 0..20 {
            for list in &plan(seed, 2).clients {
                let mut sessions: HashMap<u64, Vec<(ExecMode, Tier)>> = HashMap::new();
                for r in list {
                    let key = TraceStore::trace_key(&r.spec, DEFAULT_TRACE_BUDGET);
                    sessions.entry(key).or_default().push((r.spec.mode, r.tier));
                }
                assert_eq!(sessions.len(), KEYS_PER_CLIENT, "seed {seed}");
                for s in sessions.values() {
                    let modes: Vec<ExecMode> = s.iter().map(|&(m, _)| m).collect();
                    let tiers: Vec<Tier> = s.iter().skip(1).map(|&(_, t)| t).collect();
                    assert_eq!(modes, [Sie, Die, DieIrb, DieIrb], "seed {seed}");
                    assert_eq!(tiers, [Tier::Mem, Tier::Mem, Tier::Dedup], "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn every_seed_gets_the_same_mix_and_the_same_kernels() {
        for seed in 0..20 {
            let p = plan(seed, 2);
            let all = [PER_CLIENT, PER_CLIENT];
            assert_eq!(tier_counts(&p, &all), [14, 14, 56, 28], "seed {seed}");
            for w in WORKLOADS {
                let persisted = p.persist.iter().filter(|s| s.workload == w).count();
                assert_eq!(persisted, 2, "seed {seed}: {w}");
                let built = p
                    .clients
                    .iter()
                    .flatten()
                    .filter(|r| r.tier == Tier::Cold && r.spec.workload == w)
                    .count();
                assert_eq!(built, 2, "seed {seed}: {w}");
            }
            let first = tier_counts(&p, &[1, 1]);
            assert_eq!(first[Tier::Cold.index()] + first[Tier::Disk.index()], 2);
        }
        assert_eq!(tier_counts(&plan(3, 2), &[0, 0]), [0; 4]);
    }
}
