//! Disk queue scheduling (the DiskSim feature layer): FCFS, SSTF and
//! C-SCAN service disciplines over one disk's request stream.
//!
//! [`DiskSim`] itself services strictly in arrival order. This module
//! adds the classic reordering disciplines on top: requests that arrive
//! while the disk is busy pool in a queue, and the discipline picks which
//! pending request the head serves next. Reordering reduces seek time
//! (energy and latency) under queueing pressure — and starves nothing
//! under C-SCAN's one-directional sweep.
//!
//! Power management is untouched: the scheduler hands requests to the
//! underlying [`DiskSim`] in service order, so idle-period accounting,
//! spin transitions and mode residency work exactly as in the FCFS case.

use pc_diskmodel::{PowerModel, ServiceModel, ServiceRequest};
use pc_units::{DiskId, SimDuration, SimTime};

use crate::{DiskReport, DiskSim, DpmPolicy};

/// A disk queue service discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueDiscipline {
    /// First-come-first-served (what [`DiskSim`] does natively).
    Fcfs,
    /// Shortest-seek-time-first: serve the pending request closest to the
    /// head. Minimizes seeks, can starve edge cylinders.
    Sstf,
    /// Circular SCAN: sweep toward higher cylinders, wrap around.
    /// Starvation-free with near-SSTF seek costs.
    Cscan,
}

impl QueueDiscipline {
    /// Short lowercase name for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            QueueDiscipline::Fcfs => "fcfs",
            QueueDiscipline::Sstf => "sstf",
            QueueDiscipline::Cscan => "cscan",
        }
    }
}

/// The outcome of one scheduled request, tagged with its submission
/// index so callers can re-associate reordered completions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledOutcome {
    /// Index of the request in the submitted slice.
    pub index: usize,
    /// Total response time (arrival → completion), including queueing,
    /// spin-ups and service.
    pub response: SimDuration,
    /// Completion instant.
    pub completion: SimTime,
}

/// Replays one disk's arrival-ordered request list under a queue
/// discipline, returning the per-request outcomes (in completion order)
/// and the disk's full power/energy report.
///
/// `requests` must be sorted by arrival time.
///
/// # Panics
///
/// Panics if the arrivals are out of order.
///
/// # Examples
///
/// ```
/// use pc_diskmodel::{DiskPowerSpec, PowerModel, ServiceModel, ServiceRequest};
/// use pc_disksim::{schedule_disk, DpmPolicy, QueueDiscipline};
/// use pc_units::{BlockNo, DiskId, SimTime};
///
/// let power = PowerModel::multi_speed(&DiskPowerSpec::ultrastar_36z15());
/// let burst: Vec<(SimTime, ServiceRequest)> = (0..8)
///     .map(|i| (SimTime::from_millis(1), ServiceRequest::single(BlockNo::new(i * 500_000))))
///     .collect();
/// let (outcomes, report) = schedule_disk(
///     DiskId::new(0),
///     &burst,
///     power,
///     ServiceModel::default(),
///     DpmPolicy::Practical,
///     QueueDiscipline::Sstf,
///     SimTime::from_secs(60),
/// );
/// assert_eq!(outcomes.len(), 8);
/// assert!(report.total_energy().as_joules() > 0.0);
/// ```
#[allow(clippy::too_many_arguments)]
#[must_use]
pub fn schedule_disk(
    disk: DiskId,
    requests: &[(SimTime, ServiceRequest)],
    power: PowerModel,
    service: ServiceModel,
    dpm: DpmPolicy,
    discipline: QueueDiscipline,
    horizon: SimTime,
) -> (Vec<ScheduledOutcome>, DiskReport) {
    assert!(
        requests.windows(2).all(|w| w[0].0 <= w[1].0),
        "requests must be sorted by arrival"
    );
    let mut inner = DiskSim::new(disk, power, service, dpm);
    let mut outcomes = Vec::with_capacity(requests.len());
    let mut pending: Vec<usize> = Vec::new();
    let mut next = 0usize;
    let mut head_cylinder = 0u64;

    while next < requests.len() || !pending.is_empty() {
        // Admit everything that has arrived by the time the disk frees up
        // (or, if it is idle with nothing pending, by the next arrival).
        let now = if pending.is_empty() {
            let arrival = requests[next].0;
            arrival.max(inner.ready_at())
        } else {
            inner.ready_at()
        };
        while next < requests.len() && requests[next].0 <= now {
            pending.push(next);
            next += 1;
        }
        if pending.is_empty() {
            continue; // the next arrival defines the new `now`
        }

        let pick = choose(&pending, requests, &service, head_cylinder, discipline);
        let index = pending.swap_remove(pick);
        let (arrival, request) = requests[index];
        // Queued requests start when the disk frees; the underlying
        // DiskSim then accounts spin state and service. Passing the
        // effective arrival keeps its idle accounting exact: a non-empty
        // queue means zero idle.
        let effective = arrival.max(inner.ready_at());
        let served = inner.service(effective, request);
        head_cylinder = service.cylinder_of(request.block);
        outcomes.push(ScheduledOutcome {
            index,
            response: served.completion - arrival,
            completion: served.completion,
        });
    }

    inner.finish(horizon.max(inner.ready_at()));
    (outcomes, inner.report().clone())
}

/// Picks the position (within `pending`) of the request to serve next.
fn choose(
    pending: &[usize],
    requests: &[(SimTime, ServiceRequest)],
    geometry: &ServiceModel,
    head: u64,
    discipline: QueueDiscipline,
) -> usize {
    match discipline {
        QueueDiscipline::Fcfs => {
            // Earliest arrival; submission order breaks ties.
            let mut best = 0;
            for (i, &idx) in pending.iter().enumerate() {
                if requests[idx].0 < requests[pending[best]].0
                    || (requests[idx].0 == requests[pending[best]].0 && idx < pending[best])
                {
                    best = i;
                }
            }
            best
        }
        QueueDiscipline::Sstf => {
            let mut best = 0;
            let mut best_dist = u64::MAX;
            for (i, &idx) in pending.iter().enumerate() {
                let cyl = geometry.cylinder_of(requests[idx].1.block);
                let dist = cyl.abs_diff(head);
                if dist < best_dist {
                    best = i;
                    best_dist = dist;
                }
            }
            best
        }
        QueueDiscipline::Cscan => {
            // Smallest cylinder at or ahead of the head; if none, wrap to
            // the smallest cylinder overall.
            let mut ahead: Option<(usize, u64)> = None;
            let mut wrap: Option<(usize, u64)> = None;
            for (i, &idx) in pending.iter().enumerate() {
                let cyl = geometry.cylinder_of(requests[idx].1.block);
                if cyl >= head {
                    if ahead.is_none_or(|(_, c)| cyl < c) {
                        ahead = Some((i, cyl));
                    }
                } else if wrap.is_none_or(|(_, c)| cyl < c) {
                    wrap = Some((i, cyl));
                }
            }
            ahead.or(wrap).expect("pending is non-empty").0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_diskmodel::DiskPowerSpec;
    use pc_units::BlockNo;

    fn power() -> PowerModel {
        PowerModel::multi_speed(&DiskPowerSpec::ultrastar_36z15())
    }

    /// A simultaneous burst spread across the platter: the classic
    /// scheduler discriminator.
    fn burst(n: u64) -> Vec<(SimTime, ServiceRequest)> {
        let service = ServiceModel::ultrastar_36z15();
        let spread = service.blocks_per_cylinder * service.cylinders / n;
        (0..n)
            .map(|i| {
                // Zig-zag across cylinders so FCFS seeks maximally.
                let pos = if i % 2 == 0 { i / 2 } else { n - 1 - i / 2 };
                (
                    SimTime::from_millis(1),
                    ServiceRequest::single(BlockNo::new(pos * spread)),
                )
            })
            .collect()
    }

    fn run(discipline: QueueDiscipline) -> (Vec<ScheduledOutcome>, DiskReport) {
        schedule_disk(
            DiskId::new(0),
            &burst(64),
            power(),
            ServiceModel::ultrastar_36z15(),
            DpmPolicy::Practical,
            discipline,
            SimTime::from_secs(30),
        )
    }

    fn mean_response(outcomes: &[ScheduledOutcome]) -> f64 {
        outcomes
            .iter()
            .map(|o| o.response.as_secs_f64())
            .sum::<f64>()
            / outcomes.len() as f64
    }

    #[test]
    fn all_requests_complete_exactly_once() {
        for d in [
            QueueDiscipline::Fcfs,
            QueueDiscipline::Sstf,
            QueueDiscipline::Cscan,
        ] {
            let (outcomes, _) = run(d);
            let mut seen: Vec<usize> = outcomes.iter().map(|o| o.index).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..64).collect::<Vec<_>>(), "{d:?}");
            // Completions are monotone (one head, one request at a time).
            for w in outcomes.windows(2) {
                assert!(w[0].completion <= w[1].completion);
            }
        }
    }

    #[test]
    fn sstf_and_cscan_cut_seek_time_under_load() {
        let (_, fcfs) = run(QueueDiscipline::Fcfs);
        let (_, sstf) = run(QueueDiscipline::Sstf);
        let (_, cscan) = run(QueueDiscipline::Cscan);
        assert!(
            sstf.service_time < fcfs.service_time,
            "sstf {} vs fcfs {}",
            sstf.service_time,
            fcfs.service_time
        );
        assert!(cscan.service_time < fcfs.service_time);
        // Less head movement = less service energy too.
        assert!(sstf.service_energy < fcfs.service_energy);
    }

    #[test]
    fn reordering_improves_mean_response_in_bursts() {
        let (fcfs, _) = run(QueueDiscipline::Fcfs);
        let (sstf, _) = run(QueueDiscipline::Sstf);
        assert!(
            mean_response(&sstf) < mean_response(&fcfs),
            "sstf {} vs fcfs {}",
            mean_response(&sstf),
            mean_response(&fcfs)
        );
    }

    #[test]
    fn fcfs_discipline_matches_plain_disksim() {
        let reqs = burst(16);
        let (outcomes, report) = schedule_disk(
            DiskId::new(0),
            &reqs,
            power(),
            ServiceModel::ultrastar_36z15(),
            DpmPolicy::Practical,
            QueueDiscipline::Fcfs,
            SimTime::from_secs(30),
        );
        let mut plain = DiskSim::new(
            DiskId::new(0),
            power(),
            ServiceModel::ultrastar_36z15(),
            DpmPolicy::Practical,
        );
        let mut responses = Vec::new();
        for &(t, r) in &reqs {
            responses.push(plain.service(t, r).response);
        }
        plain.finish(SimTime::from_secs(30));
        for (o, r) in outcomes.iter().zip(responses) {
            assert_eq!(o.response, r, "request {}", o.index);
        }
        assert_eq!(report.total_energy(), plain.report().total_energy());
    }

    #[test]
    fn spaced_requests_are_unaffected_by_discipline() {
        // With no queueing there is nothing to reorder: all disciplines
        // agree exactly.
        let service = ServiceModel::ultrastar_36z15();
        let reqs: Vec<(SimTime, ServiceRequest)> = (0..10u64)
            .map(|i| {
                (
                    SimTime::from_secs(1 + i * 3),
                    ServiceRequest::single(BlockNo::new(i * 7 * service.blocks_per_cylinder)),
                )
            })
            .collect();
        let mut energies = Vec::new();
        for d in [
            QueueDiscipline::Fcfs,
            QueueDiscipline::Sstf,
            QueueDiscipline::Cscan,
        ] {
            let (outcomes, report) = schedule_disk(
                DiskId::new(0),
                &reqs,
                power(),
                service,
                DpmPolicy::Practical,
                d,
                SimTime::from_secs(60),
            );
            let order: Vec<usize> = outcomes.iter().map(|o| o.index).collect();
            assert_eq!(order, (0..10).collect::<Vec<_>>(), "{d:?}");
            energies.push(report.total_energy().as_joules());
        }
        assert!((energies[0] - energies[1]).abs() < 1e-9);
        assert!((energies[0] - energies[2]).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "sorted by arrival")]
    fn rejects_unsorted_arrivals() {
        let reqs = vec![
            (
                SimTime::from_secs(2),
                ServiceRequest::single(BlockNo::new(1)),
            ),
            (
                SimTime::from_secs(1),
                ServiceRequest::single(BlockNo::new(2)),
            ),
        ];
        let _ = schedule_disk(
            DiskId::new(0),
            &reqs,
            power(),
            ServiceModel::ultrastar_36z15(),
            DpmPolicy::Practical,
            QueueDiscipline::Fcfs,
            SimTime::from_secs(10),
        );
    }
}
