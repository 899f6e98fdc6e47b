//! Coupling clocks and alarms.
//!
//! "The coupler manages the main clock in the system and maintains a clock
//! that is associated with each component. GRIST and LICOM implement the
//! clock, which is consistent with the coupling clock, and make sure the
//! coupling period is consistent with their internal timestep" (§5.1.1).
//! The coupling frequencies are 180 / 36 / 180 couplings per day for the
//! atmosphere, ocean, and sea ice (§6.1).

/// Seconds in a day.
pub const DAY: i64 = 86_400;

/// A periodic alarm on the coupling clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Alarm {
    /// Period in seconds.
    pub period: i64,
}

impl Alarm {
    /// Alarm firing `per_day` times per day (must divide the day evenly, as
    /// CPL7 requires).
    pub fn per_day(per_day: i64) -> Self {
        assert!(per_day > 0 && DAY % per_day == 0, "period must divide a day");
        Alarm {
            period: DAY / per_day,
        }
    }

    /// Does the alarm ring at `time` (seconds since start)?
    pub fn ringing(&self, time: i64) -> bool {
        time % self.period == 0
    }
}

/// The coupler's main clock plus the three component alarms.
#[derive(Debug, Clone)]
pub struct CouplingClock {
    /// Seconds since simulation start.
    pub time: i64,
    /// Base coupling step (the greatest common divisor of the alarms).
    pub dt: i64,
    pub atm_alarm: Alarm,
    pub ocn_alarm: Alarm,
    pub ice_alarm: Alarm,
}

impl CouplingClock {
    /// The paper's configuration: atm 180, ocn 36, ice 180 couplings/day.
    pub fn paper_default() -> Self {
        Self::new(180, 36, 180)
    }

    pub fn new(atm_per_day: i64, ocn_per_day: i64, ice_per_day: i64) -> Self {
        let atm_alarm = Alarm::per_day(atm_per_day);
        let ocn_alarm = Alarm::per_day(ocn_per_day);
        let ice_alarm = Alarm::per_day(ice_per_day);
        let dt = gcd(gcd(atm_alarm.period, ocn_alarm.period), ice_alarm.period);
        CouplingClock {
            time: 0,
            dt,
            atm_alarm,
            ocn_alarm,
            ice_alarm,
        }
    }

    /// Advance one base step; returns which components couple at the *new*
    /// interval start (i.e. which alarms ring at the pre-advance time).
    pub fn advance(&mut self) -> CouplingEvent {
        let event = CouplingEvent {
            time: self.time,
            atm: self.atm_alarm.ringing(self.time),
            ocn: self.ocn_alarm.ringing(self.time),
            ice: self.ice_alarm.ringing(self.time),
        };
        self.time += self.dt;
        event
    }

    /// Ocean couplings begun so far (their alarm rang at a time before
    /// `self.time`).
    pub fn ocn_couplings(&self) -> u64 {
        let period = self.ocn_alarm.period;
        ((self.time + period - 1) / period) as u64
    }

    /// Simulated days elapsed.
    pub fn days(&self) -> f64 {
        self.time as f64 / DAY as f64
    }

    /// Check a component's internal timestep divides its coupling period —
    /// the consistency requirement of §5.1.1.
    pub fn consistent_with(&self, component_dt: f64, alarm: Alarm) -> bool {
        let steps = alarm.period as f64 / component_dt;
        (steps - steps.round()).abs() < 1e-9 && steps >= 1.0
    }
}

fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CouplingEvent {
    pub time: i64,
    pub atm: bool,
    pub ocn: bool,
    pub ice: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_frequencies() {
        let clock = CouplingClock::paper_default();
        assert_eq!(clock.atm_alarm.period, 480); // 86400/180
        assert_eq!(clock.ocn_alarm.period, 2400); // 86400/36
        assert_eq!(clock.ice_alarm.period, 480);
        assert_eq!(clock.dt, 480);
    }

    #[test]
    fn one_day_fires_the_right_counts() {
        let mut clock = CouplingClock::paper_default();
        let mut atm = 0;
        let mut ocn = 0;
        let mut ice = 0;
        while clock.time < DAY {
            let e = clock.advance();
            atm += e.atm as usize;
            ocn += e.ocn as usize;
            ice += e.ice as usize;
        }
        assert_eq!(atm, 180);
        assert_eq!(ocn, 36);
        assert_eq!(ice, 180);
        assert!((clock.days() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ocn_couples_every_fifth_atm_interval() {
        let mut clock = CouplingClock::paper_default();
        let mut pattern = Vec::new();
        for _ in 0..10 {
            let e = clock.advance();
            pattern.push(e.ocn);
        }
        assert_eq!(
            pattern,
            vec![true, false, false, false, false, true, false, false, false, false]
        );
    }

    #[test]
    fn timestep_consistency_check() {
        let clock = CouplingClock::paper_default();
        // A 120 s atmosphere model step divides the 480 s coupling period.
        assert!(clock.consistent_with(120.0, clock.atm_alarm));
        // A 100 s step does not.
        assert!(!clock.consistent_with(100.0, clock.atm_alarm));
        // An ocean step of 2400 s divides its period exactly once.
        assert!(clock.consistent_with(2400.0, clock.ocn_alarm));
        // Steps longer than the coupling period are inconsistent.
        assert!(!clock.consistent_with(4800.0, clock.ocn_alarm));
    }

    #[test]
    #[should_panic(expected = "period must divide a day")]
    fn non_divisor_frequency_rejected() {
        let _ = Alarm::per_day(7);
    }
}
