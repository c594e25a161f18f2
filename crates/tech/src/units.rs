//! Strongly typed physical quantities.
//!
//! Every quantity the flow manipulates gets its own newtype so that a delay
//! can never be confused with an energy or a capacitance (C-NEWTYPE). The
//! chosen base units are deliberately matched so that the dimensional
//! products used throughout the estimator stay exact:
//!
//! * `KiloOhms * Femtofarads = Picoseconds` (10³ · 10⁻¹⁵ = 10⁻¹²)
//! * `Femtofarads * Volts²   = Femtojoules`
//! * `Femtojoules * Gigahertz = Microwatts` (handled via [`Milliwatts`])
//!
//! All units are plain `f64` wrappers: `Copy`, ordered, hashable through
//! bit-stable constructors, and printable with their suffix.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Declares an `f64`-backed unit newtype with arithmetic and `Display`.
macro_rules! unit {
    ($(#[$meta:meta])* $name:ident, $suffix:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// A zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates a quantity from a raw value in the unit's base scale.
            #[inline]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw value in the unit's base scale.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns the absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the larger of `self` and `other`.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of `self` and `other`.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// True when the value is finite (not NaN or infinite).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        /// Ratio of two like quantities is dimensionless.
        impl Div<$name> for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|u| u.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $suffix)
                } else {
                    write!(f, "{} {}", self.0, $suffix)
                }
            }
        }
    };
}

unit!(
    /// Time in picoseconds. The base time unit of the flow.
    Picoseconds,
    "ps"
);
unit!(
    /// Capacitance in femtofarads.
    Femtofarads,
    "fF"
);
unit!(
    /// Resistance in kilo-ohms.
    KiloOhms,
    "kΩ"
);
unit!(
    /// Energy in femtojoules.
    Femtojoules,
    "fJ"
);
unit!(
    /// Energy in picojoules (1 pJ = 1000 fJ). Used for reporting.
    Picojoules,
    "pJ"
);
unit!(
    /// Voltage in volts.
    Volts,
    "V"
);
unit!(
    /// Frequency in megahertz.
    Megahertz,
    "MHz"
);
unit!(
    /// Frequency in gigahertz (reporting convenience).
    Gigahertz,
    "GHz"
);
unit!(
    /// Power in milliwatts.
    Milliwatts,
    "mW"
);
unit!(
    /// Linear dimension in microns.
    Microns,
    "µm"
);
unit!(
    /// Area in square microns.
    SquareMicrons,
    "µm²"
);

// ---- Cross-unit dimensional algebra -------------------------------------

impl Mul<Femtofarads> for KiloOhms {
    type Output = Picoseconds;
    /// RC product: kΩ · fF = ps.
    #[inline]
    fn mul(self, rhs: Femtofarads) -> Picoseconds {
        Picoseconds::new(self.value() * rhs.value())
    }
}

impl Mul<KiloOhms> for Femtofarads {
    type Output = Picoseconds;
    #[inline]
    fn mul(self, rhs: KiloOhms) -> Picoseconds {
        rhs * self
    }
}

impl Mul<Microns> for Microns {
    type Output = SquareMicrons;
    #[inline]
    fn mul(self, rhs: Microns) -> SquareMicrons {
        SquareMicrons::new(self.value() * rhs.value())
    }
}

impl Femtofarads {
    /// Switching energy for a full-swing transition: `E = C · V²`.
    ///
    /// This is the energy drawn from the supply to charge the capacitance;
    /// for a charge/discharge cycle half is dissipated on each edge.
    #[inline]
    pub fn switch_energy(self, vdd: Volts) -> Femtojoules {
        Femtojoules::new(self.value() * vdd.value() * vdd.value())
    }
}

impl Femtojoules {
    /// Converts to picojoules.
    #[inline]
    pub fn to_picojoules(self) -> Picojoules {
        Picojoules::new(self.value() / 1e3)
    }

    /// Average power when this energy is spent every cycle at `f`.
    ///
    /// fJ · MHz = 10⁻¹⁵ J · 10⁶ 1/s = nW, so divide by 10⁶ for mW.
    #[inline]
    pub fn average_power(self, f: Megahertz) -> Milliwatts {
        Milliwatts::new(self.value() * f.value() * 1e-6)
    }
}

impl Picoseconds {
    /// The clock frequency whose period is this duration.
    ///
    /// # Panics
    ///
    /// Panics if the duration is not strictly positive.
    #[inline]
    pub fn to_frequency(self) -> Megahertz {
        assert!(
            self.value() > 0.0,
            "cannot convert non-positive period {self} to a frequency"
        );
        Megahertz::new(1e6 / self.value())
    }
}

impl Megahertz {
    /// The clock period of this frequency.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is not strictly positive.
    #[inline]
    pub fn to_period(self) -> Picoseconds {
        assert!(
            self.value() > 0.0,
            "cannot convert non-positive frequency {self} to a period"
        );
        Picoseconds::new(1e6 / self.value())
    }

    /// Converts to gigahertz.
    #[inline]
    pub fn to_gigahertz(self) -> Gigahertz {
        Gigahertz::new(self.value() / 1e3)
    }
}

impl Milliwatts {
    /// Energy dissipated over one period of `f`: `E = P / f`.
    ///
    /// mW / MHz = 10⁻³ / 10⁶ J = nJ, i.e. 10⁶ fJ.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is not strictly positive.
    #[inline]
    pub fn energy_per_cycle(self, f: Megahertz) -> Femtojoules {
        assert!(f.value() > 0.0, "energy_per_cycle requires f > 0");
        Femtojoules::new(self.value() / f.value() * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rc_product_is_picoseconds() {
        let r = KiloOhms::new(3.0);
        let c = Femtofarads::new(5.0);
        assert_eq!((r * c).value(), 15.0);
        assert_eq!((c * r).value(), 15.0);
    }

    #[test]
    fn switch_energy_cv2() {
        let c = Femtofarads::new(10.0);
        let e = c.switch_energy(Volts::new(1.2));
        assert!((e.value() - 14.4).abs() < 1e-12);
    }

    #[test]
    fn power_energy_roundtrip() {
        let e = Femtojoules::new(151_578.9); // ~72 mW at 475 MHz
        let p = e.average_power(Megahertz::new(475.0));
        assert!((p.value() - 71.999_977_5).abs() < 1e-3);
        let back = p.energy_per_cycle(Megahertz::new(475.0));
        assert!((back.value() - e.value()).abs() < 1e-6);
    }

    #[test]
    fn frequency_period_roundtrip() {
        let t = Picoseconds::new(2105.0); // ~475 MHz
        let f = t.to_frequency();
        assert!((f.value() - 475.059).abs() < 0.1);
        assert!((f.to_period().value() - 2105.0).abs() < 1e-9);
    }

    #[test]
    fn display_with_suffix_and_precision() {
        let d = Picoseconds::new(246.789);
        assert_eq!(format!("{d:.1}"), "246.8 ps");
        assert_eq!(format!("{}", Femtofarads::new(2.0)), "2 fF");
    }

    #[test]
    fn ratio_is_dimensionless() {
        let a = Picoseconds::new(250.0);
        let b = Picoseconds::new(125.0);
        assert_eq!(a / b, 2.0);
    }

    #[test]
    fn sum_and_neg() {
        let total: Picoseconds = [1.0, 2.0, 3.5]
            .iter()
            .map(|&v| Picoseconds::new(v))
            .sum();
        assert_eq!(total.value(), 6.5);
        assert_eq!((-total).value(), -6.5);
    }

    #[test]
    fn min_max_abs() {
        let a = Femtojoules::new(-3.0);
        assert_eq!(a.abs().value(), 3.0);
        assert_eq!(a.max(Femtojoules::ZERO).value(), 0.0);
        assert_eq!(a.min(Femtojoules::ZERO).value(), -3.0);
    }

    #[test]
    #[should_panic(expected = "non-positive period")]
    fn zero_period_panics() {
        let _ = Picoseconds::ZERO.to_frequency();
    }

    #[test]
    fn microns_squared() {
        let a = Microns::new(2.0) * Microns::new(0.7);
        assert!((a.value() - 1.4).abs() < 1e-12);
    }
}
