//! Newtype quantities over `f64`, generated by a small macro.
//!
//! Each quantity supports the arithmetic that makes dimensional sense for
//! a scalar wrapper: addition/subtraction with itself, multiplication and
//! division by dimensionless `f64`, negation, and `Display` with SI-prefix
//! formatting. Cross-unit products (e.g. `Voltage * Current`) are provided
//! explicitly where the toolkit needs them.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};
use serde::{Deserialize, Serialize};

use crate::format::format_si;

macro_rules! quantity {
    (
        $(#[$meta:meta])*
        $name:ident, $unit:literal, $from:ident, $get:ident
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        #[serde(transparent)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            #[doc = concat!("Creates the quantity from a raw value in ", $unit, ".")]
            #[inline]
            pub const fn $from(value: f64) -> Self {
                Self(value)
            }

            #[doc = concat!("Returns the raw value in ", $unit, ".")]
            #[inline]
            pub const fn $get(self) -> f64 {
                self.0
            }

            /// Returns the absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the smaller of `self` and `other`.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the larger of `self` and `other`.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns `true` if the underlying value is finite.
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

        impl Div for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&format_si(self.0, $unit))
            }
        }
    };
}

quantity!(
    /// An electric potential in volts.
    Voltage, "V", from_volts, volts
);
quantity!(
    /// An electric current in amperes.
    Current, "A", from_amps, amps
);
quantity!(
    /// A time span or instant in seconds.
    Time, "s", from_seconds, seconds
);
quantity!(
    /// A frequency in hertz.
    Frequency, "Hz", from_hertz, hertz
);
quantity!(
    /// An energy in joules. See [`Energy::from_ev`] for electron-volts.
    Energy, "J", from_joules, joules
);
quantity!(
    /// A length in metres. See [`Length::from_nanometres`].
    Length, "m", from_metres, metres
);
quantity!(
    /// An electric charge in coulombs.
    Charge, "C", from_coulombs, coulombs
);
quantity!(
    /// A resistance in ohms.
    Resistance, "Ohm", from_ohms, ohms
);
quantity!(
    /// A conductance in siemens.
    Conductance, "S", from_siemens, siemens
);
quantity!(
    /// A capacitance in farads.
    Capacitance, "F", from_farads, farads
);

impl Energy {
    /// Creates an energy from a value in electron-volts.
    #[inline]
    pub fn from_ev(ev: f64) -> Self {
        Self::from_joules(ev * crate::constants::ELECTRON_VOLT)
    }

    /// Returns the energy in electron-volts.
    #[inline]
    pub fn ev(self) -> f64 {
        self.joules() / crate::constants::ELECTRON_VOLT
    }
}

impl Length {
    /// Creates a length from a value in nanometres.
    #[inline]
    pub fn from_nanometres(nm: f64) -> Self {
        Self::from_metres(nm * 1e-9)
    }

    /// Returns the length in nanometres.
    #[inline]
    pub fn nanometres(self) -> f64 {
        self.metres() * 1e9
    }
}

impl Frequency {
    /// Returns the reciprocal period.
    #[inline]
    pub fn period(self) -> Time {
        Time::from_seconds(1.0 / self.hertz())
    }
}

// Dimensioned products the toolkit actually uses.

impl Mul<Current> for Voltage {
    type Output = f64;
    /// Power in watts (returned as a raw `f64`; the toolkit does not
    /// track power as a first-class quantity).
    fn mul(self, rhs: Current) -> f64 {
        self.volts() * rhs.amps()
    }
}

impl Div<Resistance> for Voltage {
    type Output = Current;
    fn div(self, rhs: Resistance) -> Current {
        Current::from_amps(self.volts() / rhs.ohms())
    }
}

impl Mul<Resistance> for Current {
    type Output = Voltage;
    fn mul(self, rhs: Resistance) -> Voltage {
        Voltage::from_volts(self.amps() * rhs.ohms())
    }
}

impl Mul<Voltage> for Conductance {
    type Output = Current;
    fn mul(self, rhs: Voltage) -> Current {
        Current::from_amps(self.siemens() * rhs.volts())
    }
}

impl Mul<Voltage> for Capacitance {
    type Output = Charge;
    fn mul(self, rhs: Voltage) -> Charge {
        Charge::from_coulombs(self.farads() * rhs.volts())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn arithmetic_behaves_like_f64() {
        let a = Voltage::from_volts(1.5);
        let b = Voltage::from_volts(0.5);
        assert_eq!((a + b).volts(), 2.0);
        assert_eq!((a - b).volts(), 1.0);
        assert_eq!((-a).volts(), -1.5);
        assert_eq!((a * 2.0).volts(), 3.0);
        assert_eq!((2.0 * a).volts(), 3.0);
        assert_eq!((a / 3.0).volts(), 0.5);
        assert_eq!(a / b, 3.0);
    }

    #[test]
    fn dimensioned_products() {
        let v = Voltage::from_volts(2.0);
        let r = Resistance::from_ohms(4.0);
        assert_eq!((v / r).amps(), 0.5);
        assert_eq!(((v / r) * r).volts(), 2.0);
        let g = Conductance::from_siemens(0.25);
        assert_eq!((g * v).amps(), 0.5);
        let c = Capacitance::from_farads(1e-12);
        assert_eq!((c * v).coulombs(), 2e-12);
    }

    #[test]
    fn energy_ev_round_trip() {
        let e = Energy::from_ev(1.12);
        assert!((e.ev() - 1.12).abs() < 1e-12);
        assert!((e.joules() - 1.12 * crate::constants::ELECTRON_VOLT).abs() < 1e-30);
    }

    #[test]
    fn length_and_time_helpers() {
        assert!((Length::from_nanometres(2.0).metres() - 2e-9).abs() < 1e-24);
        assert!((Frequency::from_hertz(50.0).period().seconds() - 0.02).abs() < 1e-15);
    }

    #[test]
    fn sum_over_iterator() {
        let total: Current = (1..=4).map(|i| Current::from_amps(i as f64)).sum();
        assert_eq!(total.amps(), 10.0);
    }

    #[test]
    fn display_uses_si_prefixes() {
        assert_eq!(Current::from_amps(3.2e-6).to_string(), "3.200 uA");
        assert_eq!(Time::from_seconds(1e-9).to_string(), "1.000 ns");
    }

    proptest! {
        #[test]
        fn add_sub_round_trip(a in -1e6f64..1e6, b in -1e6f64..1e6) {
            let x = Voltage::from_volts(a);
            let y = Voltage::from_volts(b);
            let back = (x + y) - y;
            prop_assert!((back.volts() - a).abs() <= 1e-6 * (1.0 + a.abs() + b.abs()));
        }

        #[test]
        fn ordering_matches_f64(a in -1e6f64..1e6, b in -1e6f64..1e6) {
            let x = Time::from_seconds(a);
            let y = Time::from_seconds(b);
            prop_assert_eq!(x < y, a < b);
            prop_assert_eq!(x.min(y).seconds(), a.min(b));
            prop_assert_eq!(x.max(y).seconds(), a.max(b));
        }
    }
}
