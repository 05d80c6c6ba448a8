//! Signal analysis and analytical noise models for RTN validation.
//!
//! The paper validates SAMURAI (Fig 7) by estimating, from generated
//! `I_RTN(t)` traces,
//!
//! * the autocorrelation `R(τ) = E[I(t)·I(t+τ)]` in the time domain,
//! * the stationary power spectral density `S(f)` in the frequency
//!   domain,
//!
//! and comparing both against the analytical expressions known for
//! constant-bias RTN (Machlup's Lorentzian forms) plus the thermal
//! noise floor `(8/3)·kT·gm`. This crate provides every piece of that
//! pipeline, built from scratch:
//!
//! * [`fft`] — a cache-blocked radix-2 FFT over an in-crate [`Complex`]
//!   type, bit-identical to the textbook loop, with an autocorrelation
//!   that runs only the inverse butterflies its lags need;
//! * [`autocorr`] — biased/unbiased, centred/uncentred lag estimators;
//! * [`psd`] — periodogram and Welch spectral estimation, plus the
//!   Wiener–Khinchin route through the autocorrelation;
//! * [`analytical`] — the single-trap Lorentzian `R(τ)`/`S(f)`, the
//!   multi-trap superposition, its analytical `1/f` limit (the dashed
//!   line of Fig 3), and the thermal-noise floor;
//! * [`fit`] — least-squares log–log slope fitting, for checking `1/f`
//!   behaviour quantitatively;
//! * [`stats`] — summary statistics, histograms and a
//!   Kolmogorov–Smirnov test against the exponential dwell-time law.
//!
//! # Example
//!
//! ```
//! use samurai_analysis::{autocorr, analytical};
//!
//! // Analytical single-trap RTN: amplitude 1 µA, half-filled, 100 /s.
//! let cov0 = analytical::lorentzian_autocovariance(1e-6, 0.5, 100.0, 0.0);
//! assert!((cov0 - 0.25e-12).abs() < 1e-18); // ΔI²·p(1−p)
//! let _ = autocorr::autocovariance(&[1.0, -1.0, 1.0, -1.0], 2);
//! ```

pub mod analytical;
pub mod autocorr;
pub mod fft;
pub mod fit;
pub mod psd;
pub mod stats;

pub use fft::Complex;
