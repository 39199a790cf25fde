//! One disk's power/service state machine.

use pc_diskmodel::{LadderStep, ModeId, PowerModel, ServiceModel, ServiceRequest, Transition};
use pc_units::{BlockNo, DiskId, SimDuration, SimTime};

use crate::{DiskReport, PowerEvent, Timeline};

/// A disk power-management scheme (paper §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DpmPolicy {
    /// Never leave full-speed idle.
    AlwaysOn,
    /// Threshold ladder with the 2-competitive thresholds of Irani et al.
    /// (the paper's "Practical DPM").
    Practical,
    /// Clairvoyant per-gap optimum: spin down immediately to the best mode
    /// for the gap and spin up just in time (the paper's "Oracle DPM").
    /// Requests never wait for spin-ups.
    Oracle,
    /// Spin straight down to standby after a fixed idle threshold
    /// (classic single-threshold DPM; used for ablations).
    FixedThreshold(SimDuration),
}

/// The outcome of servicing one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Served {
    /// Time the request waited before service began (queueing plus any
    /// spin-down completion and spin-up).
    pub wait: SimDuration,
    /// Mechanical service time (seek + rotation + transfer).
    pub service: SimDuration,
    /// Total response time (`wait + service`).
    pub response: SimDuration,
    /// Absolute completion time.
    pub completion: SimTime,
}

/// One simulated disk: FCFS service, power-mode state machine, and full
/// time/energy accounting.
///
/// The state machine is *lazily advanced*: idle periods are accounted when
/// the request ending them arrives (or at [`DiskSim::finish`]). This is
/// what lets the Oracle policy make its clairvoyant per-gap decision
/// without an explicit look-ahead interface.
///
/// Once built, servicing requests and finishing perform no heap
/// allocation (timeline recording aside).
///
/// # Examples
///
/// ```
/// use pc_diskmodel::{DiskPowerSpec, PowerModel, ServiceModel, ServiceRequest};
/// use pc_disksim::{DiskSim, DpmPolicy};
/// use pc_units::{BlockNo, DiskId, SimTime};
///
/// let power = PowerModel::multi_speed(&DiskPowerSpec::ultrastar_36z15());
/// let mut disk = DiskSim::new(DiskId::new(0), power, ServiceModel::default(), DpmPolicy::Oracle);
/// let a = disk.service(SimTime::from_secs(10), ServiceRequest::single(BlockNo::new(1)));
/// let b = disk.service(SimTime::from_secs(500), ServiceRequest::single(BlockNo::new(2)));
/// assert!(b.completion > a.completion);
/// disk.finish(SimTime::from_secs(600));
/// ```
#[derive(Debug, Clone)]
pub struct DiskSim {
    id: DiskId,
    power: PowerModel,
    service_model: ServiceModel,
    policy: DpmPolicy,
    /// The demotion ladder, resolved once from the policy: full speed
    /// alone for `AlwaysOn`, full speed then standby at the threshold for
    /// `FixedThreshold`, the model's 2-competitive ladder otherwise. Every
    /// causal policy walks it; `Oracle` reads it only for the
    /// [`peek_mode`](Self::peek_mode) estimate.
    ladder: Vec<LadderStep>,
    busy_until: SimTime,
    idle_since: Option<SimTime>,
    head: Option<BlockNo>,
    last_arrival: Option<SimTime>,
    books: Books,
    finished: bool,
    /// Carrera-style option 1: requests are serviced at the current
    /// rotational speed (slower, but no spin-up wait).
    serve_at_speed: bool,
    /// The mode the disk rests in when its current/next idle period
    /// starts (always full speed unless `serve_at_speed` is on).
    resting_mode: ModeId,
}

/// Everything the state machine writes: the accounting and the optional
/// timeline. Kept apart from the power model and the ladder, which it
/// only reads, so a ladder walk borrows those while it writes these.
#[derive(Debug, Clone)]
struct Books {
    report: DiskReport,
    timeline: Option<Timeline>,
}

impl DiskSim {
    /// Creates a disk in full-speed idle at time zero.
    #[must_use]
    pub fn new(
        id: DiskId,
        power: PowerModel,
        service_model: ServiceModel,
        policy: DpmPolicy,
    ) -> Self {
        let ladder = match policy {
            DpmPolicy::AlwaysOn => vec![LadderStep {
                at_idle: SimDuration::ZERO,
                mode: ModeId::FULL_SPEED,
            }],
            DpmPolicy::FixedThreshold(threshold) => vec![
                LadderStep {
                    at_idle: SimDuration::ZERO,
                    mode: ModeId::FULL_SPEED,
                },
                LadderStep {
                    at_idle: threshold,
                    mode: power.standby(),
                },
            ],
            _ => Vec::from(power.ladder()),
        };
        let books = Books {
            report: DiskReport::new(power.mode_count()),
            timeline: None,
        };
        DiskSim {
            id,
            power,
            service_model,
            policy,
            ladder,
            busy_until: SimTime::ZERO,
            idle_since: Some(SimTime::ZERO),
            head: None,
            last_arrival: None,
            books,
            finished: false,
            serve_at_speed: false,
            resting_mode: ModeId::FULL_SPEED,
        }
    }

    /// Switches the disk to Carrera & Bianchini's multi-speed option:
    /// requests are serviced at the *current* rotational speed —
    /// rotation-bound time stretches by `full_rpm / current_rpm` and no
    /// spin-up is paid — and each serviced request promotes the disk one
    /// rung back toward full speed (a simple load-follows-speed
    /// controller; the one-rung acceleration itself is folded into the
    /// stretched service and not charged separately). Arrivals at standby
    /// still pay a partial spin-up to the slowest spinning mode. The paper chooses the
    /// serve-at-full-speed-only option (the default); this flag exists
    /// for the §2.1 design-alternative ablation.
    ///
    /// # Panics
    ///
    /// Panics when combined with [`DpmPolicy::Oracle`] (clairvoyant mode
    /// choice and speed-dependent service are not causally composable).
    #[must_use]
    pub fn with_serve_at_speed(mut self) -> Self {
        assert!(
            self.policy != DpmPolicy::Oracle,
            "serve-at-speed requires a causal DPM"
        );
        self.serve_at_speed = true;
        self
    }

    /// Enables power-timeline recording (see [`Timeline`]); the disk
    /// starts with a full-speed rest event at time zero.
    #[must_use]
    pub fn with_timeline(mut self) -> Self {
        let mut timeline = Timeline::default();
        timeline.push(
            SimTime::ZERO,
            PowerEvent::Rest {
                mode: ModeId::FULL_SPEED,
            },
        );
        self.books.timeline = Some(timeline);
        self
    }

    /// The recorded power timeline, if recording was enabled.
    #[must_use]
    pub fn timeline(&self) -> Option<&Timeline> {
        self.books.timeline.as_ref()
    }

    /// The disk's identifier.
    #[must_use]
    pub fn id(&self) -> DiskId {
        self.id
    }

    /// The power model in effect.
    #[must_use]
    pub fn power_model(&self) -> &PowerModel {
        &self.power
    }

    /// The power-management policy in effect.
    #[must_use]
    pub fn policy(&self) -> DpmPolicy {
        self.policy
    }

    /// The accounting collected so far.
    #[must_use]
    pub fn report(&self) -> &DiskReport {
        &self.books.report
    }

    /// When the disk completes its last accepted request (the earliest
    /// valid [`DiskSim::finish`] horizon).
    #[must_use]
    pub fn ready_at(&self) -> SimTime {
        self.busy_until
    }

    /// The power mode the disk rests in at `now`, assuming no request
    /// arrives before then. Used by power-aware write policies (WBEU,
    /// WTDU) to decide whether a write would wake a sleeping disk.
    ///
    /// For [`DpmPolicy::Oracle`] the mode depends on the (unknown) next
    /// arrival; this returns the Practical-ladder estimate, which is why
    /// the integrated write-policy simulator runs Practical DPM only (see
    /// DESIGN.md §2).
    #[must_use]
    pub fn peek_mode(&self, now: SimTime) -> ModeId {
        if now < self.busy_until {
            return ModeId::FULL_SPEED;
        }
        let Some(idle_since) = self.idle_since else {
            return ModeId::FULL_SPEED;
        };
        let elapsed = now.saturating_since(idle_since);
        self.ladder
            .iter()
            .rev()
            .find(|s| s.at_idle <= elapsed)
            .map_or(ModeId::FULL_SPEED, |s| s.mode)
    }

    /// Returns `true` if a request arriving at `now` would find the disk
    /// below full speed.
    #[must_use]
    pub fn is_sleeping(&self, now: SimTime) -> bool {
        !self.peek_mode(now).is_full_speed()
    }

    /// Services one request arriving at `arrival`.
    ///
    /// Requests must be offered in non-decreasing arrival order; a request
    /// arriving while the previous one is in service queues FCFS.
    ///
    /// # Panics
    ///
    /// Panics if called after [`DiskSim::finish`] or with an arrival
    /// earlier than the previous one.
    pub fn service(&mut self, arrival: SimTime, request: ServiceRequest) -> Served {
        assert!(!self.finished, "disk already finished");
        if let Some(last) = self.last_arrival {
            assert!(arrival >= last, "arrivals must be in order");
            self.books.report.interarrival_total += arrival - last;
            self.books.report.interarrival_count += 1;
        }
        self.last_arrival = Some(arrival);

        let mut service_mode = ModeId::FULL_SPEED;
        let (start, wait) = if arrival >= self.busy_until {
            // The disk has been idle since the previous completion; close
            // the idle period (paying a spin-up, or — under
            // serve-at-speed — continuing at the reached speed).
            let spin_wait = match self.idle_since.take() {
                Some(idle_start) if arrival > idle_start => {
                    if self.serve_at_speed {
                        let (wait, mode) = self.close_idle_at_speed(idle_start, arrival);
                        service_mode = mode;
                        wait
                    } else {
                        self.account_idle(idle_start, arrival, true).0
                    }
                }
                _ => {
                    service_mode = self.resting_mode;
                    SimDuration::ZERO
                }
            };
            (arrival + spin_wait, spin_wait)
        } else {
            // Queued behind the in-flight request; the disk stays active,
            // so the pending idle marker (set at the previous completion,
            // which is still in the future) is discarded.
            self.idle_since = None;
            service_mode = self.resting_mode;
            (self.busy_until, self.busy_until - arrival)
        };

        self.books.record(start, PowerEvent::ServiceStart);
        let full = self.service_model.service_time(self.head, request);
        let seek = full.seek;
        let (service, active_power) = if service_mode.is_full_speed() {
            (full.total, self.power.active_power())
        } else {
            // Rotation-bound time stretches inversely with the speed;
            // active power scales with the mode's spindle power share.
            let spec = self.power.mode(service_mode);
            let full_speed = self.power.mode(ModeId::FULL_SPEED);
            let ratio = f64::from(full_speed.rpm.max(1)) / f64::from(spec.rpm.max(1));
            let scaled = seek + (full.total - seek).mul_f64(ratio);
            let power_scale = spec.power.as_watts() / full_speed.power.as_watts();
            (
                scaled,
                pc_units::Watts::new(self.power.active_power().as_watts() * power_scale),
            )
        };
        let report = &mut self.books.report;
        report.service_time += service;
        report.service_energy += self.power.seek_power() * seek + active_power * (service - seek);
        report.requests += 1;

        let completion = start + service;
        self.books.record(completion, PowerEvent::ServiceEnd);
        self.busy_until = completion;
        self.idle_since = Some(completion);
        self.resting_mode = if self.serve_at_speed {
            // Load promotes the disk one rung back toward full speed.
            ModeId::new(service_mode.index().saturating_sub(1))
        } else {
            ModeId::FULL_SPEED
        };
        self.head = Some(BlockNo::new(
            request
                .block
                .number()
                .wrapping_add(request.blocks.saturating_sub(1)),
        ));

        let response = wait + service;
        let report = &mut self.books.report;
        report.response_total += response;
        report.response_max = report.response_max.max(response);
        Served {
            wait,
            service,
            response,
            completion,
        }
    }

    /// Closes the simulation at `end`, accounting any trailing idle time
    /// (without a final spin-up). Must be called exactly once, with `end`
    /// at or after the last completion.
    ///
    /// # Panics
    ///
    /// Panics if called twice or with `end` before the last completion.
    pub fn finish(&mut self, end: SimTime) {
        assert!(!self.finished, "finish called twice");
        assert!(
            end >= self.busy_until,
            "simulation end precedes the last completion"
        );
        if let Some(idle_start) = self.idle_since.take() {
            if end > idle_start {
                let _ = self.account_idle(idle_start, end, false);
            }
        }
        self.finished = true;
    }

    /// Accounts an idle period `[start, end)` that begins in the resting
    /// mode (full speed unless serving at speed). Returns the wait a
    /// request arriving at `end` suffers (leftover spin-down, plus the
    /// spin-up if `spin_up`) and the mode the ladder walk reached (full
    /// speed for `Oracle`, which walks no ladder).
    fn account_idle(
        &mut self,
        start: SimTime,
        end: SimTime,
        spin_up: bool,
    ) -> (SimDuration, ModeId) {
        let gap = end - start;
        if self.policy == DpmPolicy::Oracle {
            self.account_oracle(start, gap, spin_up);
            return (SimDuration::ZERO, ModeId::FULL_SPEED);
        }
        // How deep into the ladder the resting mode sits (zero at full speed).
        let offset = self
            .ladder
            .iter()
            .find(|s| s.mode == self.resting_mode)
            .map_or(SimDuration::ZERO, |s| s.at_idle);
        self.books
            .walk_ladder(&self.power, &self.ladder, start, offset, gap, spin_up)
    }

    /// Oracle: one clairvoyant decision for the whole gap. The spin-up is
    /// timed to complete exactly at the gap's end, so the request waits
    /// nothing.
    fn account_oracle(&mut self, start: SimTime, gap: SimDuration, spin_up: bool) {
        let mode = self.power.oracle_mode_for_gap(gap);
        let books = &mut self.books;
        if mode.is_full_speed() {
            books.record(start, PowerEvent::Rest { mode });
            books.rest(&self.power, mode, gap);
            return;
        }
        let spec = self.power.mode(mode);
        let (down, up) = (spec.spin_down, spec.spin_up);
        let up_time = if spin_up { up.time } else { SimDuration::ZERO };
        let residency = gap - down.time - up_time;
        books.record(start, PowerEvent::SpinDown { to: mode });
        books.report.spin_down_time += down.time;
        books.report.spin_down_energy += down.energy;
        books.report.spin_downs += 1;
        books.record(start + down.time, PowerEvent::Rest { mode });
        books.rest(&self.power, mode, residency);
        if spin_up {
            books.record(start + down.time + residency, PowerEvent::SpinUp);
            books.report.spin_up_time += up.time;
            books.report.spin_up_energy += up.energy;
            books.report.spin_ups += 1;
        }
    }

    /// Serve-at-speed idle closing: walk the ladder from the resting
    /// mode; no full spin-up is paid. Returns the wait (leftover
    /// spin-down, plus a partial spin-up when the disk reached standby —
    /// a stopped spindle cannot transfer) and the speed the request is
    /// serviced at.
    fn close_idle_at_speed(&mut self, start: SimTime, end: SimTime) -> (SimDuration, ModeId) {
        let (mut wait, mode) = self.account_idle(start, end, false);
        if mode == self.power.standby() {
            // Spin up just far enough to transfer: to the slowest
            // spinning mode on multi-speed disks, to full speed on
            // 2-mode disks.
            let target = if self.power.mode_count() > 2 {
                ModeId::new(self.power.mode_count() - 2)
            } else {
                ModeId::FULL_SPEED
            };
            let from = self.power.mode(mode).spin_up;
            let to = self.power.mode(target).spin_up;
            let dt = from.time.saturating_sub(to.time);
            let de = from.energy - to.energy;
            self.books.record(end + wait, PowerEvent::SpinUp);
            let report = &mut self.books.report;
            report.spin_up_time += dt;
            report.spin_up_energy += de;
            report.spin_ups += 1;
            wait += dt;
            return (wait, target);
        }
        (wait, mode)
    }
}

impl Books {
    fn record(&mut self, at: SimTime, event: PowerEvent) {
        if let Some(t) = self.timeline.as_mut() {
            t.push(at, event);
        }
    }

    /// Accounts residency in a mode.
    fn rest(&mut self, power: &PowerModel, mode: ModeId, span: SimDuration) {
        self.report.mode_time[mode.index()] += span;
        self.report.mode_energy[mode.index()] += power.mode(mode).power * span;
    }

    /// Walks the demotion `ladder` over an idle period that begins with
    /// the disk already `offset` deep into it (0 = full speed, the
    /// serve-at-full-speed case). Accounts residencies and the demotion
    /// transitions falling inside the period, optionally a final spin-up.
    /// Spin-downs consume real time inside the period; if it ends
    /// mid-transition the transition completes past its end and the
    /// remainder is added to the returned wait, together with any final
    /// spin-up. Returns (extra wait past the period's end, the mode
    /// reached).
    fn walk_ladder(
        &mut self,
        power: &PowerModel,
        ladder: &[LadderStep],
        start: SimTime,
        offset: SimDuration,
        gap: SimDuration,
        spin_up: bool,
    ) -> (SimDuration, ModeId) {
        let mut wait = SimDuration::ZERO;
        let mut end_mode = ModeId::FULL_SPEED;
        let mut prev_down = Transition::default();
        let ladder_end = offset + gap;
        for (k, step) in ladder.iter().enumerate() {
            let seg_end = ladder
                .get(k + 1)
                .map_or(ladder_end, |n| n.at_idle.min(ladder_end));
            if seg_end <= offset {
                // Entirely before this idle period: the disk already sat
                // in (or below) this rung when the period began.
                end_mode = step.mode;
                prev_down = power.mode(step.mode).spin_down;
                continue;
            }
            if step.at_idle >= ladder_end {
                break;
            }
            let down = power.mode(step.mode).spin_down;
            let mut rest_from = step.at_idle.max(offset);
            // A rung whose threshold coincides with the offset is the one
            // the disk already rests in: no transition to charge.
            if k > 0 && step.at_idle > offset {
                // Demotion into this mode: the incremental transition
                // relative to the previous rung (the linear model makes
                // chained demotions cost exactly the full-depth total).
                let dt = down.time.saturating_sub(prev_down.time);
                let de = down.energy - prev_down.energy;
                self.record(
                    start + (step.at_idle - offset),
                    PowerEvent::SpinDown { to: step.mode },
                );
                self.report.spin_down_time += dt;
                self.report.spin_down_energy += de;
                self.report.spin_downs += 1;
                rest_from = step.at_idle + dt;
                if rest_from > ladder_end {
                    // The request arrived mid-spin-down: finish the
                    // transition past the gap, then spin up.
                    wait += rest_from - ladder_end;
                }
            }
            if seg_end > rest_from {
                self.record(
                    start + (rest_from - offset),
                    PowerEvent::Rest { mode: step.mode },
                );
                self.rest(power, step.mode, seg_end - rest_from);
            }
            end_mode = step.mode;
            prev_down = down;
        }
        if spin_up && !end_mode.is_full_speed() {
            // The spin-up begins at the gap's end, after any leftover
            // spin-down completes.
            self.record(start + gap + wait, PowerEvent::SpinUp);
            let up = power.mode(end_mode).spin_up;
            self.report.spin_up_time += up.time;
            self.report.spin_up_energy += up.energy;
            self.report.spin_ups += 1;
            wait += up.time;
        }
        (wait, end_mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_diskmodel::DiskPowerSpec;
    use pc_units::Joules;

    fn disk(policy: DpmPolicy) -> DiskSim {
        DiskSim::new(
            DiskId::new(0),
            PowerModel::multi_speed(&DiskPowerSpec::ultrastar_36z15()),
            ServiceModel::ultrastar_36z15(),
            policy,
        )
    }

    fn req(block: u64) -> ServiceRequest {
        ServiceRequest::single(BlockNo::new(block))
    }

    #[test]
    fn always_on_accounts_pure_idle_energy() {
        let mut d = disk(DpmPolicy::AlwaysOn);
        d.finish(SimTime::from_secs(100));
        let r = d.report();
        assert!((r.total_energy().as_joules() - 10.2 * 100.0).abs() < 1e-6);
        assert_eq!(r.total_time(), SimDuration::from_secs(100));
        assert_eq!(r.spin_ups, 0);
    }

    #[test]
    fn practical_short_gap_stays_at_full_speed() {
        let mut d = disk(DpmPolicy::Practical);
        let a = d.service(SimTime::from_secs(1), req(1));
        assert_eq!(a.wait, SimDuration::ZERO);
        let b = d.service(a.completion + SimDuration::from_secs(5), req(2));
        // 5 s < 10.68 s first threshold: no spin activity, no wait.
        assert_eq!(b.wait, SimDuration::ZERO);
        assert_eq!(d.report().spin_downs, 0);
    }

    #[test]
    fn practical_long_gap_descends_and_pays_spin_up() {
        let mut d = disk(DpmPolicy::Practical);
        let a = d.service(SimTime::from_secs(1), req(1));
        // 15 s gap: past the 10.68 s threshold, disk sits in NAP1 (and the
        // 13.73 s NAP2 threshold), request pays a spin-up from NAP2.
        let b = d.service(a.completion + SimDuration::from_secs(15), req(2));
        assert!(b.wait > SimDuration::ZERO);
        d.finish(b.completion);
        let r = d.report();
        assert!(r.spin_downs >= 1);
        assert_eq!(r.spin_ups, 1);
        assert!(r.mode_time[1] > SimDuration::ZERO, "rested in NAP1");
        assert_eq!(r.requests, 2);
    }

    #[test]
    fn practical_time_accounting_balances() {
        let mut d = disk(DpmPolicy::Practical);
        let mut t = SimTime::from_secs(1);
        let mut last = None;
        for (i, gap) in [5u64, 20, 40, 120, 3, 11].into_iter().enumerate() {
            let s = d.service(t, req(i as u64));
            last = Some(s);
            t = s.completion + SimDuration::from_secs(gap);
        }
        let end = last.unwrap().completion + SimDuration::from_secs(7);
        d.finish(end);
        let accounted = d.report().total_time();
        // Accounted time = wall clock + waits (transitions extend past
        // arrival instants but are all real elapsed time on the disk).
        let expected = end - SimTime::ZERO;
        let diff = accounted.as_secs_f64() - expected.as_secs_f64();
        assert!(
            diff.abs() < 1e-6,
            "accounted {accounted} expected {expected}"
        );
    }

    #[test]
    fn oracle_never_delays_requests() {
        let mut d = disk(DpmPolicy::Oracle);
        let mut t = SimTime::from_secs(1);
        for (i, gap) in [5u64, 20, 40, 200, 1000].into_iter().enumerate() {
            let s = d.service(t, req(i as u64));
            assert_eq!(s.wait, SimDuration::ZERO);
            t = s.completion + SimDuration::from_secs(gap);
        }
    }

    #[test]
    fn oracle_beats_practical_on_energy() {
        let gaps = [5u64, 20, 40, 200, 13, 75, 8, 500];
        let mut energies = Vec::new();
        for policy in [DpmPolicy::Oracle, DpmPolicy::Practical, DpmPolicy::AlwaysOn] {
            let mut d = disk(policy);
            let mut t = SimTime::from_secs(1);
            let mut last = t;
            for (i, gap) in gaps.into_iter().enumerate() {
                let s = d.service(t, req(i as u64 * 1000));
                last = s.completion + s.wait;
                t = s.completion + SimDuration::from_secs(gap);
            }
            d.finish(t.max(last) + SimDuration::from_secs(20));
            energies.push(d.report().total_energy().as_joules());
        }
        let (oracle, practical, always_on) = (energies[0], energies[1], energies[2]);
        assert!(oracle < practical, "oracle {oracle} practical {practical}");
        assert!(practical < always_on, "practical should beat always-on");
        assert!(
            practical < 2.0 * oracle + 1e-9,
            "practical must stay 2-competitive"
        );
    }

    #[test]
    fn queued_requests_wait_for_the_head_of_line() {
        let mut d = disk(DpmPolicy::Practical);
        let a = d.service(SimTime::from_secs(1), req(1));
        // Arrive immediately after, while the first is still in service.
        let b = d.service(SimTime::from_secs(1) + SimDuration::from_micros(1), req(2));
        assert!(b.wait > SimDuration::ZERO);
        assert_eq!(
            b.wait,
            a.completion - (SimTime::from_secs(1) + SimDuration::from_micros(1))
        );
        assert_eq!(d.report().spin_downs, 0, "no idle period in between");
    }

    #[test]
    fn fixed_threshold_goes_straight_to_standby() {
        let mut d = disk(DpmPolicy::FixedThreshold(SimDuration::from_secs(10)));
        let a = d.service(SimTime::from_secs(1), req(1));
        let b = d.service(a.completion + SimDuration::from_secs(30), req(2));
        let r = d.report();
        assert_eq!(r.spin_downs, 1);
        assert_eq!(r.spin_ups, 1);
        // Waited the full standby spin-up.
        assert!(b.wait >= SimDuration::from_millis(10_900));
        // Standby residency, no NAP residency.
        assert!(r.mode_time[5] > SimDuration::ZERO);
        assert_eq!(r.mode_time[1], SimDuration::ZERO);
    }

    #[test]
    fn arrival_mid_spin_down_waits_for_completion_then_spin_up() {
        // First threshold at ~10.678 s, NAP1 spin-down takes 0.3 s. Arrive
        // 10.8 s into the gap: mid-transition.
        let mut d = disk(DpmPolicy::Practical);
        let a = d.service(SimTime::from_secs(1), req(1));
        let arrival = a.completion + SimDuration::from_millis(10_800);
        let b = d.service(arrival, req(2));
        // Wait = remaining spin-down (~0.178 s) + NAP1 spin-up (2.18 s).
        let w = b.wait.as_secs_f64();
        assert!((w - (0.178 + 2.18)).abs() < 0.01, "wait {w}");
    }

    #[test]
    fn peek_mode_tracks_the_ladder() {
        let mut d = disk(DpmPolicy::Practical);
        let a = d.service(SimTime::from_secs(1), req(1));
        let idle0 = a.completion;
        assert!(d
            .peek_mode(idle0 + SimDuration::from_secs(5))
            .is_full_speed());
        assert_eq!(d.peek_mode(idle0 + SimDuration::from_secs(12)).index(), 1);
        assert_eq!(d.peek_mode(idle0 + SimDuration::from_secs(100)).index(), 5);
        assert!(d.is_sleeping(idle0 + SimDuration::from_secs(100)));
        // During service the disk reads as full speed.
        let mut d2 = disk(DpmPolicy::Practical);
        d2.service(SimTime::from_secs(1), req(1));
        assert!(d2
            .peek_mode(SimTime::from_secs(1) + SimDuration::from_micros(10))
            .is_full_speed());
    }

    #[test]
    fn service_energy_accrues_at_active_power() {
        let mut d = disk(DpmPolicy::AlwaysOn);
        let s = d.service(SimTime::from_secs(1), req(1));
        d.finish(s.completion);
        let r = d.report();
        let expected = 13.5 * s.service.as_secs_f64();
        assert!((r.service_energy.as_joules() - expected).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "in order")]
    fn rejects_out_of_order_arrivals() {
        let mut d = disk(DpmPolicy::Practical);
        d.service(SimTime::from_secs(2), req(1));
        d.service(SimTime::from_secs(1), req(2));
    }

    #[test]
    #[should_panic(expected = "finish called twice")]
    fn rejects_double_finish() {
        let mut d = disk(DpmPolicy::Practical);
        d.finish(SimTime::from_secs(1));
        d.finish(SimTime::from_secs(2));
    }

    #[test]
    fn interarrival_stats_track_arrivals() {
        let mut d = disk(DpmPolicy::AlwaysOn);
        d.service(SimTime::from_secs(1), req(1));
        let s = d.service(SimTime::from_secs(4), req(2));
        d.service(SimTime::from_secs(9).max(s.completion), req(3));
        let r = d.report();
        assert_eq!(r.interarrival_count, 2);
        assert!(r.mean_interarrival() >= SimDuration::from_secs(3));
    }

    #[test]
    fn timeline_pins_down_the_practical_state_sequence() {
        use crate::PowerEvent;
        let mut d = disk(DpmPolicy::Practical).with_timeline();
        let a = d.service(SimTime::from_secs(1), req(1));
        // A 15 s gap: idle → NAP1 (10.678 s) → NAP2 (13.729 s) → spin-up
        // on the next arrival.
        let b = d.service(a.completion + SimDuration::from_secs(15), req(2));
        d.finish(b.completion);
        let events: Vec<PowerEvent> = d
            .timeline()
            .expect("recording on")
            .iter()
            .map(|e| e.event)
            .collect();
        use PowerEvent::{Rest, ServiceEnd, ServiceStart, SpinDown, SpinUp};
        assert_eq!(
            events,
            vec![
                Rest {
                    mode: ModeId::new(0)
                }, // initial
                Rest {
                    mode: ModeId::new(0)
                }, // the 1 s pre-arrival idle
                ServiceStart,
                ServiceEnd,
                Rest {
                    mode: ModeId::new(0)
                }, // idle after service
                SpinDown { to: ModeId::new(1) },
                Rest {
                    mode: ModeId::new(1)
                },
                SpinDown { to: ModeId::new(2) },
                Rest {
                    mode: ModeId::new(2)
                },
                SpinUp,
                ServiceStart,
                ServiceEnd,
            ]
        );
        // Timestamp spot-checks: the first demotion fires 10.678 s into
        // the idle period.
        let entries = d.timeline().unwrap().entries();
        let idle_start = entries[3].at;
        let first_down = entries[5].at;
        assert!(
            ((first_down - idle_start).as_secs_f64() - 10.678).abs() < 0.01,
            "threshold timing"
        );
    }

    #[test]
    fn timeline_oracle_spins_up_just_in_time() {
        use crate::PowerEvent;
        let mut d = disk(DpmPolicy::Oracle).with_timeline();
        let a = d.service(SimTime::from_secs(1), req(1));
        let arrival = a.completion + SimDuration::from_secs(500);
        d.service(arrival, req(2));
        let up = d
            .timeline()
            .unwrap()
            .iter()
            .find(|e| e.event == PowerEvent::SpinUp)
            .expect("oracle spun down for a 500 s gap");
        // Standby spin-up takes 10.9 s and completes exactly at arrival.
        assert_eq!(up.at + SimDuration::from_millis(10_900), arrival);
    }

    #[test]
    fn timeline_is_off_by_default() {
        let mut d = disk(DpmPolicy::Practical);
        d.service(SimTime::from_secs(1), req(1));
        assert!(d.timeline().is_none());
    }

    /// Replays the same arrival/block schedule under option 1
    /// (serve-at-speed) and option 2 (full-speed-only), returning both
    /// outcome lists for like-for-like comparison.
    fn replay_both_options(gaps: &[u64]) -> (Vec<Served>, Vec<Served>) {
        let run = |serve_at_speed: bool| {
            let mut d = disk(DpmPolicy::Practical);
            if serve_at_speed {
                d = d.with_serve_at_speed();
            }
            let mut t = SimTime::from_secs(1);
            let mut served = Vec::new();
            for (i, &g) in gaps.iter().enumerate() {
                let s = d.service(t, req(i as u64));
                t = s.completion + SimDuration::from_secs(g);
                served.push(s);
            }
            served
        };
        (run(true), run(false))
    }

    #[test]
    fn serve_at_speed_skips_the_spin_up_wait_but_stretches_service() {
        // 20 s gaps: the disk reaches NAP3 (6 000 RPM) before each
        // arrival. Option 1 serves right there (no multi-second spin-up,
        // 2.5× rotation-bound service); option 2 waits for the spin-up.
        let (option1, option2) = replay_both_options(&[20, 20, 20]);
        for (o1, o2) in option1.iter().zip(&option2).skip(1) {
            assert!(
                o1.wait < SimDuration::from_millis(400),
                "no spin-up wait, got {}",
                o1.wait
            );
            assert!(o2.wait > SimDuration::from_secs(5), "option 2 waits");
            // Same block, same head position: the stretch is exactly the
            // speed ratio on the rotation-bound portion.
            assert!(
                o1.service > o2.service * 2,
                "service must stretch: {} vs {}",
                o1.service,
                o2.service
            );
        }
    }

    #[test]
    fn serve_at_speed_load_promotes_the_spindle() {
        let mut d = disk(DpmPolicy::Practical).with_serve_at_speed();
        let a = d.service(SimTime::from_secs(1), req(1));
        // Reach NAP3 with a 20 s gap, then re-serve the *same* block
        // back-to-back: each service promotes one rung, so the identical
        // mechanical work shrinks toward full speed.
        let b = d.service(a.completion + SimDuration::from_secs(20), req(42));
        let c = d.service(b.completion + SimDuration::from_millis(1), req(42));
        let e = d.service(c.completion + SimDuration::from_millis(1), req(42));
        assert!(c.service < b.service, "{} then {}", b.service, c.service);
        assert!(e.service < c.service);
    }

    #[test]
    fn serve_at_speed_standby_pays_only_a_partial_spin_up() {
        let mut d = disk(DpmPolicy::Practical).with_serve_at_speed();
        let a = d.service(SimTime::from_secs(1), req(1));
        // 200 s: deep in standby. A stopped spindle cannot transfer, so
        // the disk spins up to the slowest spinning mode (3 000 RPM):
        // 10.9 s − 8.72 s = 2.18 s of wait, not the full 10.9 s.
        let b = d.service(a.completion + SimDuration::from_secs(200), req(2));
        let w = b.wait.as_secs_f64();
        assert!((w - 2.18).abs() < 0.01, "partial spin-up wait, got {w}");
        let r = d.report();
        assert_eq!(r.spin_ups, 1);
        assert!((r.spin_up_energy.as_joules() - 27.0).abs() < 1e-6);
    }

    #[test]
    fn serve_at_speed_beats_option2_on_response_for_sparse_traffic() {
        let gaps = [20u64, 25, 40, 18, 33];
        let run = |serve_at_speed: bool| {
            let mut d = disk(DpmPolicy::Practical);
            if serve_at_speed {
                d = d.with_serve_at_speed();
            }
            let mut t = SimTime::from_secs(1);
            let mut total_wait = SimDuration::ZERO;
            for (i, g) in gaps.into_iter().enumerate() {
                let s = d.service(t, req(i as u64));
                total_wait += s.wait;
                t = s.completion + SimDuration::from_secs(g);
            }
            total_wait
        };
        let option1 = run(true);
        let option2 = run(false);
        assert!(
            option1 < option2 / 4,
            "option1 waits {option1} vs option2 {option2}"
        );
    }

    #[test]
    #[should_panic(expected = "causal DPM")]
    fn serve_at_speed_rejects_oracle() {
        let _ = disk(DpmPolicy::Oracle).with_serve_at_speed();
    }

    #[test]
    fn two_mode_power_model_works_end_to_end() {
        let mut d = DiskSim::new(
            DiskId::new(1),
            PowerModel::two_mode(&DiskPowerSpec::ultrastar_36z15()),
            ServiceModel::ultrastar_36z15(),
            DpmPolicy::Practical,
        );
        let a = d.service(SimTime::from_secs(1), req(1));
        let b = d.service(a.completion + SimDuration::from_secs(60), req(2));
        assert!(b.wait >= SimDuration::from_millis(10_900));
        d.finish(b.completion);
        assert!(d.report().total_energy() > Joules::ZERO);
    }
}
