//! Power budget and battery-life model (Table I of the paper).
//!
//! The paper's Table I lists the average current of every board component;
//! Section V then combines them with measured duty cycles — 40–50 % CPU,
//! 0.1–1 % radio — to obtain 106 hours from the 710 mAh battery. This
//! module reproduces that computation exactly and exposes the duty-cycle
//! knobs so the trade-off space (the PMU's job in Fig 4) can be explored.
//!
//! The IMU (gyroscope + accelerometer, 3.8 mA) is listed in Table I but is
//! *excluded* from the paper's battery computation — it is only powered
//! during position registration, not continuous monitoring. The model
//! makes that explicit via [`DutyCycle::imu`].

/// Identity of a board component in the Table I inventory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Component {
    /// ADS1291 ECG analog front-end.
    EcgChip,
    /// Proprietary ICG front-end.
    IcgChip,
    /// STM32L151 microcontroller.
    Mcu,
    /// nRF8001 Bluetooth Low Energy radio.
    Radio,
    /// Gyroscope + accelerometer pair.
    Imu,
}

impl Component {
    /// All components in Table I order.
    pub const ALL: [Component; 5] = [
        Component::EcgChip,
        Component::IcgChip,
        Component::Mcu,
        Component::Radio,
        Component::Imu,
    ];

    /// Table I row label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Component::EcgChip => "ECG chip",
            Component::IcgChip => "ICG chip",
            Component::Mcu => "STM32L151",
            Component::Radio => "Radio",
            Component::Imu => "Gyroscope + Accelerometer",
        }
    }
}

/// Active/standby current pair for one component, milliamps.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CurrentDraw {
    /// Current while active, milliamps.
    pub active_ma: f64,
    /// Current while in standby, milliamps.
    pub standby_ma: f64,
}

/// The full component current inventory.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PowerBudget {
    ecg: CurrentDraw,
    icg: CurrentDraw,
    mcu: CurrentDraw,
    radio: CurrentDraw,
    imu: CurrentDraw,
}

impl PowerBudget {
    /// Table I of the paper, verbatim. The ECG and ICG chips have no
    /// listed standby figure because they stay on during monitoring; their
    /// standby is modelled equal to active.
    #[must_use]
    pub fn paper_table_i() -> Self {
        Self {
            ecg: CurrentDraw {
                active_ma: 0.400,
                standby_ma: 0.400,
            },
            icg: CurrentDraw {
                active_ma: 0.900,
                standby_ma: 0.900,
            },
            mcu: CurrentDraw {
                active_ma: 10.500,
                standby_ma: 0.020,
            },
            radio: CurrentDraw {
                active_ma: 11.000,
                standby_ma: 0.002,
            },
            imu: CurrentDraw {
                active_ma: 3.800,
                standby_ma: 0.0,
            },
        }
    }

    /// The current pair of one component.
    #[must_use]
    pub fn draw(&self, c: Component) -> CurrentDraw {
        match c {
            Component::EcgChip => self.ecg,
            Component::IcgChip => self.icg,
            Component::Mcu => self.mcu,
            Component::Radio => self.radio,
            Component::Imu => self.imu,
        }
    }

    /// Average system current for the given duty cycles, milliamps:
    /// each component contributes `duty·active + (1−duty)·standby`.
    #[must_use]
    pub fn average_current_ma(&self, duty: &DutyCycle) -> f64 {
        let avg = |d: CurrentDraw, frac: f64| frac * d.active_ma + (1.0 - frac) * d.standby_ma;
        let sensors = if duty.sensors_on {
            self.ecg.active_ma + self.icg.active_ma
        } else {
            0.0
        };
        sensors
            + avg(self.mcu, duty.mcu)
            + avg(self.radio, duty.radio)
            + if duty.imu { self.imu.active_ma } else { 0.0 }
    }

    /// Battery life in hours for a battery of `battery_mah` under the
    /// given duty cycles. Returns infinity for a zero average current.
    #[must_use]
    pub fn battery_life_hours(&self, battery_mah: f64, duty: &DutyCycle) -> f64 {
        let i = self.average_current_ma(duty);
        if i <= 0.0 {
            f64::INFINITY
        } else {
            battery_mah / i
        }
    }
}

impl Default for PowerBudget {
    fn default() -> Self {
        Self::paper_table_i()
    }
}

/// Fraction of time each duty-cycled component is active.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DutyCycle {
    /// MCU active fraction (paper: 0.40–0.50 for the full pipeline).
    pub mcu: f64,
    /// Radio TX fraction (paper: 0.001–0.01, parameters-only uplink).
    pub radio: f64,
    /// Whether the ECG/ICG front-ends are powered.
    pub sensors_on: bool,
    /// Whether the IMU is powered (position registration only).
    pub imu: bool,
}

impl DutyCycle {
    /// The paper's worst-case continuous monitoring: MCU 50 %, radio 1 %,
    /// sensors on, IMU off. This is the configuration behind the 106 h
    /// headline.
    #[must_use]
    pub fn paper_worst_case() -> Self {
        Self {
            mcu: 0.50,
            radio: 0.01,
            sensors_on: true,
            imu: false,
        }
    }

    /// The paper's best-case processing load: MCU 40 %, radio 0.1 %.
    #[must_use]
    pub fn paper_best_case() -> Self {
        Self {
            mcu: 0.40,
            radio: 0.001,
            sensors_on: true,
            imu: false,
        }
    }

    /// A raw-streaming alternative (no on-board signal processing,
    /// everything sent over the air) used by the ablation benchmarks:
    /// the MCU still runs ~30 % servicing the sensor DMA and the BLE
    /// stack's per-packet work, and the radio stays on ~35 % to sustain
    /// the raw two-channel sample stream on an nRF8001-class link.
    #[must_use]
    pub fn raw_streaming() -> Self {
        Self {
            mcu: 0.30,
            radio: 0.35,
            sensors_on: true,
            imu: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_values_match_paper() {
        let b = PowerBudget::paper_table_i();
        assert_eq!(b.draw(Component::EcgChip).active_ma, 0.400);
        assert_eq!(b.draw(Component::IcgChip).active_ma, 0.900);
        assert_eq!(b.draw(Component::Mcu).active_ma, 10.500);
        assert_eq!(b.draw(Component::Mcu).standby_ma, 0.020);
        assert_eq!(b.draw(Component::Radio).active_ma, 11.000);
        assert_eq!(b.draw(Component::Radio).standby_ma, 0.002);
        assert_eq!(b.draw(Component::Imu).active_ma, 3.800);
    }

    #[test]
    fn paper_worst_case_average_current() {
        let b = PowerBudget::paper_table_i();
        let i = b.average_current_ma(&DutyCycle::paper_worst_case());
        // 0.4 + 0.9 + (0.5·10.5 + 0.5·0.02) + (0.01·11 + 0.99·0.002)
        let expect = 0.4 + 0.9 + 5.26 + 0.11198;
        assert!((i - expect).abs() < 1e-9, "{i} vs {expect}");
    }

    #[test]
    fn reproduces_106_hours() {
        let b = PowerBudget::paper_table_i();
        let h = b.battery_life_hours(710.0, &DutyCycle::paper_worst_case());
        assert!((h - 106.0).abs() < 1.0, "battery life {h} h");
        // "over four days" claim
        assert!(h > 4.0 * 24.0);
    }

    #[test]
    fn best_case_beats_worst_case() {
        let b = PowerBudget::paper_table_i();
        let worst = b.battery_life_hours(710.0, &DutyCycle::paper_worst_case());
        let best = b.battery_life_hours(710.0, &DutyCycle::paper_best_case());
        assert!(best > worst);
    }

    #[test]
    fn on_board_processing_beats_raw_streaming() {
        // the design argument of the paper: processing on the MCU and
        // sending only parameters outlives streaming raw samples
        let b = PowerBudget::paper_table_i();
        let processed = b.battery_life_hours(710.0, &DutyCycle::paper_worst_case());
        let streamed = b.battery_life_hours(710.0, &DutyCycle::raw_streaming());
        // the 85 h raw-streaming figure EXPERIMENTS.md cites against 106 h
        assert!((streamed - 85.4).abs() < 1.0, "streamed {streamed} h");
        assert!(
            processed > 1.2 * streamed,
            "processed {processed} h vs streamed {streamed} h"
        );
    }

    #[test]
    fn imu_adds_cost_when_enabled() {
        let b = PowerBudget::paper_table_i();
        let mut d = DutyCycle::paper_worst_case();
        let base = b.average_current_ma(&d);
        d.imu = true;
        assert!((b.average_current_ma(&d) - base - 3.8).abs() < 1e-12);
    }

    #[test]
    fn zero_current_gives_infinite_life() {
        let b = PowerBudget::paper_table_i();
        let d = DutyCycle {
            mcu: 0.0,
            radio: 0.0,
            sensors_on: false,
            imu: false,
        };
        // MCU and radio standby still draw a little
        assert!(b.average_current_ma(&d) > 0.0);
        let all_off = PowerBudget {
            ecg: CurrentDraw {
                active_ma: 0.0,
                standby_ma: 0.0,
            },
            icg: CurrentDraw {
                active_ma: 0.0,
                standby_ma: 0.0,
            },
            mcu: CurrentDraw {
                active_ma: 0.0,
                standby_ma: 0.0,
            },
            radio: CurrentDraw {
                active_ma: 0.0,
                standby_ma: 0.0,
            },
            imu: CurrentDraw {
                active_ma: 0.0,
                standby_ma: 0.0,
            },
        };
        assert!(all_off.battery_life_hours(710.0, &d).is_infinite());
    }

    #[test]
    fn component_labels_match_table_i() {
        assert_eq!(Component::EcgChip.label(), "ECG chip");
        assert_eq!(Component::Imu.label(), "Gyroscope + Accelerometer");
        assert_eq!(Component::ALL.len(), 5);
    }
}
