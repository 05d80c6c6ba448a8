//! An iterative radix-2 fast Fourier transform.
//!
//! Self-contained (no external FFT crate): a minimal complex type and
//! the classic decimation-in-time transform — a bit-reversal
//! permutation, then `log2 N` butterfly stages whose twiddles follow
//! the recurrence `w ← w·e^{∓2πi/len}` from `w = 1`.
//!
//! The stages run cache-blocked. They are grouped into passes of at
//! most 12 stages, and a pass finishes all of its stages on one small
//! tile (a contiguous block, or a few columns of strided rows) before it
//! touches the next, so a 2^24-point transform sweeps memory twice
//! instead of 25 times. Every butterfly still sees the same
//! operands and the same twiddle — each stage's recurrence is walked
//! once per process and sampled — so every output is bit-for-bit that
//! of the textbook stage-by-stage loop.
//!
//! [`circular_autocorrelation`] builds on the same passes: it squares
//! the spectrum's last pass while it is in cache, and runs the inverse
//! transform only along the butterflies that reach the requested lags;
//! the spectrum buffer between its passes comes from a pool kept across
//! calls. [`summed_power`], Welch's periodogram sum, runs eight signals
//! side by side as the columns of one tile.

use core::ops::{Add, Mul, Neg, Sub};
use std::sync::{Arc, Mutex, PoisonError};

/// A complex number over `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The complex zero.
    pub const ZERO: Self = Self { re: 0.0, im: 0.0 };

    /// The complex one, where every twiddle recurrence starts.
    const ONE: Self = Self { re: 1.0, im: 0.0 };

    /// Creates `re + i·im`.
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates a pure-real value.
    pub const fn from_real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// `e^{iθ}`.
    pub fn from_polar_unit(theta: f64) -> Self {
        Self {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Squared magnitude `|z|²`.
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Scales by a real factor.
    #[must_use]
    pub fn scale(self, k: f64) -> Self {
        Self {
            re: self.re * k,
            im: self.im * k,
        }
    }
}

impl Add for Complex {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        Self::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Neg for Complex {
    type Output = Self;
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

/// In-place forward FFT of a power-of-two-length buffer.
///
/// Computes `X[k] = Σ_n x[n]·e^{−2πi·kn/N}` (no normalisation).
///
/// # Panics
///
/// Panics if the length is not a power of two (or is zero).
pub fn fft_in_place(data: &mut [Complex]) {
    transform(data, false, PASS_BITS);
}

/// In-place inverse FFT (includes the `1/N` normalisation).
///
/// # Panics
///
/// Panics if the length is not a power of two (or is zero).
pub fn ifft_in_place(data: &mut [Complex]) {
    transform(data, true, PASS_BITS);
    let inv = 1.0 / data.len() as f64;
    for z in data.iter_mut() {
        *z = z.scale(inv);
    }
}

/// Forward FFT of a real signal, returning the full complex spectrum.
///
/// # Panics
///
/// Panics if the length is not a power of two (or is zero).
pub fn fft_real(signal: &[f64]) -> Vec<Complex> {
    real_transform(signal, PASS_BITS)
}

/// The first `lags` values of the circular autocorrelation of `signal`
/// zero-padded to `len`, `r[k] = Σ_j x[j]·x[(j+k) mod len]`.
///
/// Bit-identical to the real parts of [`ifft_in_place`] applied to
/// `|X|²`, `X` the [`fft_in_place`] spectrum of the padded signal: it is
/// that computation minus the work no requested lag depends on. The
/// spectrum's last pass is squared while it is in cache instead of being
/// written back, and the inverse keeps only the first `lags` values of
/// each block once blocks outgrow them — for 81 lags of a 2^24-point
/// transform, under a third of a full inverse's butterflies.
///
/// # Panics
///
/// Panics if `len` is not a power of two, `signal` is longer than `len`,
/// or `lags` is zero or exceeds `len`.
pub fn circular_autocorrelation(signal: &[f64], len: usize, lags: usize) -> Vec<f64> {
    autocorrelation(&SPECTRA, signal, len, lags, PASS_BITS)
}

/// The summed power spectra of centred, windowed real signals:
/// `Σ_s |X_s[k]|²` with `X_s` the [`fft_real`] spectrum of
/// `(x_s[i] − mean)·window[i]`, added in order of `s` from zero —
/// bit-identical to that loop, but the signals run eight at a time as
/// the columns of one tile, read straight from their slices and centred
/// as they are read, and each spectrum's last pass is squared in cache
/// and never stored.
///
/// # Panics
///
/// Panics if the window's length is not a power of two (or is zero), or
/// a signal is not as long as the window.
pub fn summed_power<'a>(
    signals: impl IntoIterator<Item = &'a [f64]>,
    mean: f64,
    window: &[f64],
) -> Vec<f64> {
    power(&mut signals.into_iter(), mean, window, PASS_BITS)
}

/// Most stages in one pass: a tile of `2^12` rows of [`TILE_COLS`]
/// values, plus its twiddles, fits in L2.
const PASS_BITS: u32 = 12;

/// Columns per tile of a strided pass: each row read is a 256-byte run.
const TILE_COLS: usize = 16;

/// Blocks a first pass gathers from a real signal at once: they read
/// adjacent samples, so each 64-byte line of the signal feeds them all.
const GATHER: usize = 8;

/// Signals [`summed_power`] transforms at once, as the columns of one
/// first-pass tile.
const BATCH: usize = 8;

/// `log2` of a power-of-two length.
fn log2(n: usize) -> u32 {
    assert!(
        n > 0 && n.is_power_of_two(),
        "FFT length must be a power of two, got {n}"
    );
    n.trailing_zeros()
}

/// Reverses the low `bits` bits of `i`.
fn reverse(i: usize, bits: u32) -> usize {
    if bits == 0 {
        0
    } else {
        i.reverse_bits() >> (usize::BITS - bits)
    }
}

fn transform(data: &mut [Complex], inverse: bool, pass_bits: u32) {
    let bits = log2(data.len());
    for i in 0..data.len() {
        let j = reverse(i, bits);
        if j > i {
            data.swap(i, j);
        }
    }
    Plan::new(bits, inverse, pass_bits).run(data, None, None, None);
}

fn real_transform(signal: &[f64], pass_bits: u32) -> Vec<Complex> {
    let bits = log2(signal.len());
    let mut out = vec![Complex::ZERO; signal.len()];
    Plan::new(bits, false, pass_bits).run(&mut out, Some(&[signal]), None, None);
    out
}

fn autocorrelation(
    pool: &Pool,
    signal: &[f64],
    len: usize,
    lags: usize,
    pass_bits: u32,
) -> Vec<f64> {
    let bits = log2(len);
    assert!(signal.len() <= len, "signal longer than the transform");
    assert!(
        (1..=len).contains(&lags),
        "lag count must lie in 1..=len, got {lags}"
    );
    let mut inverse = PrunedInverse::new(bits, lags, pass_bits);
    let mut plan = Plan::new(bits, false, pass_bits);
    let mut sink = |re: &[f64], im: &[f64], cols, j0| inverse.absorb(re, im, cols, j0);
    if bits > pass_bits {
        let mut spectrum = take_spectrum(pool, len);
        plan.run(&mut spectrum[..len], Some(&[signal]), None, Some(&mut sink));
        pool.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(spectrum);
    } else {
        // A single pass hands its one tile to the inverse: nothing to store.
        plan.run(&mut [], Some(&[signal]), None, Some(&mut sink));
    }
    let inv = 1.0 / len as f64;
    inverse.finish().iter().map(|z| z.scale(inv).re).collect()
}

fn power(
    signals: &mut dyn Iterator<Item = &[f64]>,
    mean: f64,
    window: &[f64],
    pass_bits: u32,
) -> Vec<f64> {
    let len = window.len();
    let bits = log2(len);
    // Row `u` of a last-pass tile holds `X[u·2^a + j]`, `j ≥ j0`, of one
    // signal; in a single pass (`a = 0`) it holds `X[u]` of every signal.
    let a = bits - bits.min(pass_bits);
    let mut acc = vec![0.0; len];
    let mut spectrum = Vec::new();
    let mut plan = Plan::new(bits, false, pass_bits);
    let mut batch: [&[f64]; BATCH] = [&[]; BATCH];
    loop {
        let mut live = 0;
        for (slot, x) in batch.iter_mut().zip(&mut *signals) {
            assert_eq!(x.len(), len, "signal and window lengths differ");
            *slot = x;
            live += 1;
        }
        if live == 0 {
            break;
        }
        if a > 0 {
            spectrum.resize(len * live, Complex::ZERO);
        }
        let mut add = |re: &[f64], im: &[f64], cols: usize, j0: usize| {
            let rows = re.chunks_exact(cols).zip(im.chunks_exact(cols));
            if a == 0 {
                for (slot, (re, im)) in acc.iter_mut().zip(rows) {
                    for (&re, &im) in re[..live].iter().zip(&im[..live]) {
                        *slot += Complex::new(re, im).norm_sqr();
                    }
                }
                return;
            }
            for (u, (re, im)) in rows.enumerate() {
                let out = &mut acc[(u << a) + j0..][..cols];
                for ((slot, &re), &im) in out.iter_mut().zip(re).zip(im) {
                    *slot += Complex::new(re, im).norm_sqr();
                }
            }
        };
        plan.run(
            &mut spectrum,
            Some(&batch[..live]),
            Some((mean, window)),
            Some(&mut add),
        );
        if live < BATCH {
            break;
        }
    }
    acc
}

/// The twiddle step of stage `s` (blocks of `2^s`): `e^{∓2πi/2^s}`.
fn step(s: u32, inverse: bool) -> Complex {
    let sign = if inverse { 1.0 } else { -1.0 };
    let len = 1usize << s;
    Complex::from_polar_unit(sign * core::f64::consts::TAU / len as f64)
}

/// `T[0..count]` of a stage: `T[0] = 1`, `T[k] = T[k−1]·step`.
fn recurrence(step: Complex, count: usize) -> Vec<Complex> {
    let mut w = Complex::ONE;
    (0..count)
        .map(|_| {
            let t = w;
            w = w * step;
            t
        })
        .collect()
}

/// One stage's twiddles `T[k]`, sampled every `2^spacing`: all of them
/// up to stage `PASS_BITS + 1`, and 2^PASS_BITS evenly spaced ones
/// above — enough for a pass of at most `PASS_BITS` stages to start
/// each of its recurrences where it needs to.
struct StageTwiddles {
    step: Complex,
    spacing: u32,
    values: Vec<Complex>,
}

/// The sampled twiddles of one direction's first stages.
struct Twiddles {
    stages: Vec<Arc<StageTwiddles>>,
    /// Stages `1..=PASS_BITS` in full, split and stacked the way
    /// [`butterfly_split`] reads a one-column tile: a first pass of `m`
    /// stages uses the first `2^m − 1`.
    low_re: Vec<f64>,
    low_im: Vec<f64>,
}

/// Spectrum buffers no two-pass autocorrelation is using. A call takes
/// the smallest that holds its transform or, when none does, drops the
/// largest and allocates its own, and it gives the buffer back once the
/// forward transform has handed its last tile on. The pool grows only
/// when every buffer in it is in use, so it never holds more buffers
/// than calls that ran at once, and none outgrows the largest transform
/// its slot served. Kept because a fresh buffer's first-touch faults and
/// unmapping cost about 0.13 s at 2^24 points.
static SPECTRA: Pool = Mutex::new(Vec::new());

/// Free spectrum buffers.
type Pool = Mutex<Vec<Vec<Complex>>>;

/// A buffer of at least `len` values from `pool`. A reused one holds
/// stale values; the forward transform writes each before it reads it.
fn take_spectrum(pool: &Pool, len: usize) -> Vec<Complex> {
    let mut free = pool.lock().unwrap_or_else(PoisonError::into_inner);
    let fits = (0..free.len()).filter(|&i| free[i].len() >= len);
    if let Some(i) = fits.min_by_key(|&i| free[i].len()) {
        return free.swap_remove(i);
    }
    let largest = (0..free.len()).max_by_key(|&i| free[i].len());
    let evicted = largest.map(|i| free.swap_remove(i));
    // Unmap and fault in with the pool unlocked.
    drop(free);
    drop(evicted);
    vec![Complex::ZERO; len]
}

/// Per direction, the twiddles sampled so far, grown on demand.
/// Sampling stage `s` walks its whole `2^(s−1)` recurrence once per
/// process: about 60 ms for the stages of a 2^24-point transform.
static TWIDDLES: Mutex<[Option<Arc<Twiddles>>; 2]> = Mutex::new([None, None]);

/// The twiddles of at least stages `1..=max(count, PASS_BITS)`.
fn twiddles(inverse: bool, count: u32) -> Arc<Twiddles> {
    let mut cache = TWIDDLES.lock().unwrap_or_else(PoisonError::into_inner);
    let slot = &mut cache[usize::from(inverse)];
    if let Some(table) = slot.as_ref().filter(|t| t.stages.len() >= count as usize) {
        return Arc::clone(table);
    }
    let mut stages = slot.as_ref().map_or_else(Vec::new, |t| t.stages.clone());
    let have = stages.len() as u32;
    let sampled = sample(have + 1..count.max(PASS_BITS) + 1, inverse);
    stages.extend(sampled.into_iter().map(Arc::new));
    let low = stages[..PASS_BITS as usize].iter().flat_map(|t| &t.values);
    let (low_re, low_im) = low.map(|w| (w.re, w.im)).unzip();
    let table = Arc::new(Twiddles {
        stages,
        low_re,
        low_im,
    });
    *slot = Some(Arc::clone(&table));
    table
}

/// Samples the twiddles of stages `range`. The recurrences are
/// independent, so they advance side by side.
fn sample(range: core::ops::Range<u32>, inverse: bool) -> Vec<StageTwiddles> {
    let mut out: Vec<StageTwiddles> = range
        .map(|s| {
            let spacing = (s - 1).saturating_sub(PASS_BITS);
            StageTwiddles {
                step: step(s, inverse),
                spacing,
                values: Vec::with_capacity(1 << (s - 1 - spacing)),
            }
        })
        .collect();
    let halves: Vec<usize> = out
        .iter()
        .map(|t| t.values.capacity() << t.spacing)
        .collect();
    let mut w = vec![Complex::ONE; out.len()];
    let mut first = 0;
    for k in 0..halves.last().copied().unwrap_or(0) {
        while halves[first] == k {
            first += 1;
        }
        for (t, w) in out[first..].iter_mut().zip(&mut w[first..]) {
            if k & ((1 << t.spacing) - 1) == 0 {
                t.values.push(*w);
            }
            *w = *w * t.step;
        }
    }
    out
}

/// Receives each tile of the last pass in place of its write-back:
/// `(re, im, cols, j0)`, rows of `cols` values from columns `j0..` of
/// one transform — or, when the first pass is the last, rows of one
/// value per signal, zero signals padding the count to a power of two.
type TileSink<'a> = &'a mut dyn FnMut(&[f64], &[f64], usize, usize);

/// The passes of a `2^bits` transform as `(stages below, stages)`: a
/// last pass of `min(bits, pass_bits)` stages, and the rest split into
/// passes of `pass_bits` from the top down.
fn passes(bits: u32, pass_bits: u32) -> Vec<(u32, u32)> {
    let top = bits.min(pass_bits);
    let mut below = bits - top;
    let mut out = vec![(below, top)];
    while below > 0 {
        let m = match below % pass_bits {
            0 => pass_bits,
            r => r,
        };
        below -= m;
        out.push((below, m));
    }
    out.reverse();
    out
}

/// A tile in split form: real and imaginary parts apart, so that a
/// stage is plain arithmetic on runs of `f64`.
#[derive(Default)]
struct Tile {
    re: Vec<f64>,
    im: Vec<f64>,
}

impl Tile {
    fn with_len(len: usize) -> Self {
        Self {
            re: vec![0.0; len],
            im: vec![0.0; len],
        }
    }

    /// Copies `src` in from position `at`.
    fn load(&mut self, at: usize, src: &[Complex]) {
        let (re, im) = (
            &mut self.re[at..][..src.len()],
            &mut self.im[at..][..src.len()],
        );
        for ((re, im), z) in re.iter_mut().zip(im.iter_mut()).zip(src) {
            *re = z.re;
            *im = z.im;
        }
    }

    /// Copies out to `dst` from position `at`.
    fn store(&self, at: usize, dst: &mut [Complex]) {
        let (re, im) = (&self.re[at..][..dst.len()], &self.im[at..][..dst.len()]);
        for ((&re, &im), z) in re.iter().zip(im).zip(dst) {
            *z = Complex::new(re, im);
        }
    }
}

/// One size and direction of transform: its twiddles, fetched once, and
/// the first pass's tile with its twiddles widened to the tile's
/// columns (a one-column tile reads the table's own), kept from one run
/// to the next.
struct Plan {
    bits: u32,
    pass_bits: u32,
    tables: Arc<Twiddles>,
    tile: Tile,
    wide: Tile,
}

impl Plan {
    fn new(bits: u32, inverse: bool, pass_bits: u32) -> Self {
        Self {
            bits,
            pass_bits,
            tables: twiddles(inverse, bits),
            tile: Tile::default(),
            wide: Tile::default(),
        }
    }

    /// The first pass's tile, sized for `rows` rows of `width` columns,
    /// and its twiddles: the table's own for one column, else widened.
    fn first_tile(&mut self, rows: usize, width: usize) -> (&mut Tile, &[f64], &[f64]) {
        let low = (
            &self.tables.low_re[..rows - 1],
            &self.tables.low_im[..rows - 1],
        );
        if self.tile.re.len() != rows * width {
            self.wide = match width {
                1 => Tile::default(),
                _ => widen(low, width),
            };
            self.tile = Tile::with_len(rows * width);
        }
        match width {
            1 => (&mut self.tile, low.0, low.1),
            _ => (&mut self.tile, &self.wide.re, &self.wide.im),
        }
    }

    /// Every butterfly stage over `2^bits` values: bit-reversed `data`,
    /// or the `real` signals zero-padded and, given `window` as
    /// `(mean, w)`, read as `(x[i] − mean)·w[i]` — then `data` is output
    /// only, one transform per signal back to back, and empty when a
    /// single pass feeds `sink`.
    ///
    /// Pass `(a, m)` runs stages `a+1..=a+m`, which only pair indices
    /// that differ in bits `a..a+m`. Fixing the other bits leaves
    /// independent columns of `2^m` rows `2^a` apart; a tile is
    /// [`TILE_COLS`] adjacent columns. Stage `a+i` pairs rows `r` and
    /// `r + 2^(i−1)` of column `j` with twiddle `T[c·2^a + j]`, `c = r mod
    /// 2^(i−1)`: one recurrence per `c`, stepping along the columns.
    fn run(
        &mut self,
        data: &mut [Complex],
        real: Option<&[&[f64]]>,
        window: Option<(f64, &[f64])>,
        mut sink: Option<TileSink>,
    ) {
        let layout = passes(self.bits, self.pass_bits);
        let len = 1usize << self.bits;
        let signals = real.map_or(1, <[_]>::len);
        let stored = match layout.len() == 1 && sink.is_some() {
            true => 0,
            false => len * signals,
        };
        assert_eq!(data.len(), stored, "transform buffer length");
        for (index, &(a, m)) in layout.iter().enumerate() {
            let rows = 1usize << m;
            let mut sink = if index + 1 == layout.len() {
                sink.take()
            } else {
                None
            };
            if a == 0 {
                match real {
                    Some(signals) => self.gather_pass(data, m, signals, window, sink),
                    None => {
                        let (tile, wr, wi) = self.first_tile(rows, 1);
                        for block in data.chunks_exact_mut(rows) {
                            tile.load(0, block);
                            butterfly_split(&mut tile.re, &mut tile.im, 1, wr, wi);
                            match sink.as_deref_mut() {
                                Some(sink) => sink(&tile.re, &tile.im, 1, 0),
                                None => tile.store(0, block),
                            }
                        }
                    }
                }
                continue;
            }
            // The strided passes' scratch takes the place of the first's.
            (self.tile, self.wide) = (Tile::default(), Tile::default());
            let cols = TILE_COLS.min(1 << a);
            let pass = &self.tables.stages[a as usize..(a + m) as usize];
            let mut tw = Tile::with_len((rows - 1) * cols);
            let mut tile = Tile::with_len(rows * cols);
            for signal in data.chunks_exact_mut(len).take(signals) {
                // Stage after stage, each recurrence at column 0: T[c·2^a].
                let mut state: Vec<Complex> = pass
                    .iter()
                    .enumerate()
                    .flat_map(|(i, t)| {
                        (0..1usize << i).map(move |c| t.values[c << (a - t.spacing)])
                    })
                    .collect();
                for j0 in (0..1usize << a).step_by(cols) {
                    fill_twiddles(&mut tw, pass, &mut state, cols);
                    for base in (j0..len).step_by(rows << a) {
                        for r in 0..rows {
                            tile.load(r * cols, &signal[base + (r << a)..][..cols]);
                        }
                        butterfly_split(&mut tile.re, &mut tile.im, cols, &tw.re, &tw.im);
                        match sink.as_deref_mut() {
                            Some(sink) => sink(&tile.re, &tile.im, cols, j0),
                            None => {
                                for r in 0..rows {
                                    let out = &mut signal[base + (r << a)..][..cols];
                                    tile.store(r * cols, out);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// The first pass straight from real signals, bit reversal included.
    /// Block `b` of `2^m` positions holds samples `u·2^(bits−m) + rev(b)`
    /// at positions `rev(u)`, so the [`GATHER`] blocks with adjacent
    /// `rev(b)` are the columns of one tile whose rows are runs of
    /// adjacent samples. Several signals share a tile side by side, their
    /// columns padded with zero signals to a power of two; in a single
    /// pass, each signal is one column.
    fn gather_pass(
        &mut self,
        data: &mut [Complex],
        m: u32,
        signals: &[&[f64]],
        window: Option<(f64, &[f64])>,
        mut sink: Option<TileSink>,
    ) {
        let rows = 1usize << m;
        let high = self.bits - m;
        let batch = signals.len().next_power_of_two();
        let group = (GATHER / batch).clamp(1, 1 << high);
        let width = batch * group;
        let (tile, wr, wi) = self.first_tile(rows, width);
        for r0 in (0..1usize << high).step_by(group) {
            for u in 0..rows {
                let src = (u << high) + r0;
                let row = &mut tile.re[reverse(u, m) * width..][..width];
                let (runs, absent) = row.split_at_mut(signals.len() * group);
                for (run, x) in runs.chunks_exact_mut(group).zip(signals) {
                    for (i, v) in (src..).zip(run) {
                        *v = match (x.get(i), window) {
                            (Some(&x), Some((mean, w))) => (x - mean) * w[i],
                            (Some(&x), None) => x,
                            (None, _) => 0.0,
                        };
                    }
                }
                absent.fill(0.0);
            }
            tile.im.fill(0.0);
            butterfly_split(&mut tile.re, &mut tile.im, width, wr, wi);
            match sink.as_deref_mut() {
                Some(sink) => sink(&tile.re, &tile.im, width, 0),
                None => {
                    let outputs = data.chunks_exact_mut(rows << high);
                    for (c, out) in outputs.take(signals.len()).enumerate() {
                        for g in 0..group {
                            let col = c * group + g;
                            let block = &mut out[reverse(r0 + g, high) * rows..][..rows];
                            for (t, z) in block.iter_mut().enumerate() {
                                *z = Complex::new(
                                    tile.re[t * width + col],
                                    tile.im[t * width + col],
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Writes a strided pass's twiddles for its next `cols` columns,
/// advancing each recurrence past them.
// lint: hot-fn
fn fill_twiddles(tw: &mut Tile, pass: &[Arc<StageTwiddles>], state: &mut [Complex], cols: usize) {
    let mut at = 0;
    for (i, t) in pass.iter().enumerate() {
        for w in &mut state[at..at + (1 << i)] {
            for slot in at * cols..(at + 1) * cols {
                tw.re[slot] = w.re;
                tw.im[slot] = w.im;
                *w = *w * t.step;
            }
            at += 1;
        }
    }
}

/// One-column stacked twiddles `(re, im)`, each repeated across `cols`
/// columns.
fn widen(tw: (&[f64], &[f64]), cols: usize) -> Tile {
    let spread = |w: &[f64]| {
        w.iter()
            .flat_map(|&w| core::iter::repeat_n(w, cols))
            .collect()
    };
    Tile {
        re: spread(tw.0),
        im: spread(tw.1),
    }
}

/// All stages of one pass on a split tile of `cols`-wide rows. Stage
/// `i`'s twiddles are `2^(i−1)` rows of `cols`, stacked after those of
/// the stages below: the shape of the row runs each butterfly group
/// pairs, so a stage is one call of [`butterflies`] per group.
// lint: hot-fn
fn butterfly_split(re: &mut [f64], im: &mut [f64], cols: usize, wr: &[f64], wi: &[f64]) {
    let mut run = cols;
    while run < re.len() {
        let (wr, wi) = (&wr[run - cols..][..run], &wi[run - cols..][..run]);
        let groups = re
            .chunks_exact_mut(2 * run)
            .zip(im.chunks_exact_mut(2 * run));
        for (gr, gi) in groups {
            let (xr, yr) = gr.split_at_mut(run);
            let (xi, yi) = gi.split_at_mut(run);
            butterflies(xr, xi, yr, yi, wr, wi);
        }
        run <<= 1;
    }
}

/// The butterflies of one group, `(x, y) ← (x + y·w, x − y·w)` position
/// by position: `x` from the first half, `y` from the second, `w` from
/// the stage's twiddles.
///
/// Its shape is what makes it fast, so it is fixed here rather than
/// left to whatever surrounds it: the operands are distinct `&mut`
/// arguments, which tells the compiler they cannot overlap, so it packs
/// the loop into SSE2 pairs with no runtime overlap test; and kept out
/// of line, it compiles to the same code whatever calls it.
#[inline(never)]
// lint: hot-fn
fn butterflies(
    xr: &mut [f64],
    xi: &mut [f64],
    yr: &mut [f64],
    yi: &mut [f64],
    wr: &[f64],
    wi: &[f64],
) {
    let x = xr.iter_mut().zip(xi.iter_mut());
    let y = yr.iter_mut().zip(yi.iter_mut());
    for (((xr, xi), (yr, yi)), (&wr, &wi)) in x.zip(y).zip(wr.iter().zip(wi)) {
        let or = *yr * wr - *yi * wi;
        let oi = *yr * wi + *yi * wr;
        let (ar, ai) = (*xr, *xi);
        *xr = ar + or;
        *xi = ai + oi;
        *yr = ar - or;
        *yi = ai - oi;
    }
}

/// The inverse transform of `|X|²`, pruned to outputs `0..lags`.
///
/// Outputs `k < lags` of a stage over `2^s`-blocks read only positions
/// `k mod 2^(s−1)` of its two half-blocks, so once blocks outgrow
/// `lags` each keeps just its first `lags` values, and each butterfly
/// just its sum.
struct PrunedInverse {
    bits: u32,
    lags: usize,
    /// `log2` of the block each column of a last-pass tile becomes.
    block_bits: u32,
    /// Stages run in full inside a block: up to `2^full ≥ lags`.
    full: u32,
    /// Per stage above `full`, the twiddles its kept outputs use.
    heads: Vec<Vec<Complex>>,
    /// The kept values of every block, block after block.
    kept: Vec<Complex>,
    /// The full stages' twiddles, widened to the tiles' columns.
    wide: Tile,
    /// Scratch: a tile's blocks, and the two sides of a pruned stage.
    blocks: Tile,
    cur: Vec<Complex>,
    next: Vec<Complex>,
}

impl PrunedInverse {
    fn new(bits: u32, lags: usize, pass_bits: u32) -> Self {
        let block_bits = bits.min(pass_bits);
        let full = lags.next_power_of_two().trailing_zeros().min(block_bits);
        let heads = (1..=bits)
            .map(|s| match s > full {
                true => recurrence(step(s, true), lags.min(1 << (s - 1))),
                false => Vec::new(),
            })
            .collect();
        Self {
            bits,
            lags,
            block_bits,
            full,
            heads,
            kept: vec![Complex::ZERO; lags.min(1 << block_bits) << (bits - block_bits)],
            wide: Tile::default(),
            blocks: Tile::default(),
            cur: Vec::new(),
            next: Vec::new(),
        }
    }

    /// Squares and inverts the columns of one last-pass tile. Column
    /// `j` holds `X[u·2^a + j]` at row `u`, which the inverse's bit
    /// reversal puts in block `rev(j)` at position `rev(u)`: the tile's
    /// rows, reordered, are the rows of a tile of `cols` blocks.
    fn absorb(&mut self, re: &[f64], im: &[f64], cols: usize, j0: usize) {
        let sub = 1usize << self.full;
        let keep = self.lags.min(sub);
        if self.blocks.re.len() != re.len() {
            let low = twiddles(true, self.full);
            self.wide = widen((&low.low_re[..sub - 1], &low.low_im[..sub - 1]), cols);
            self.blocks = Tile::with_len(re.len());
        }
        let blocks = &mut self.blocks;
        for (t, row) in blocks.re.chunks_exact_mut(cols).enumerate() {
            let src = reverse(t, self.block_bits) * cols;
            for ((v, &re), &im) in row.iter_mut().zip(&re[src..]).zip(&im[src..]) {
                *v = Complex::new(re, im).norm_sqr();
            }
        }
        blocks.im.fill(0.0);
        self.cur.clear();
        let subs = blocks.re.chunks_exact_mut(sub * cols);
        for (r, i) in subs.zip(blocks.im.chunks_exact_mut(sub * cols)) {
            butterfly_split(r, i, cols, &self.wide.re, &self.wide.im);
            let kept = r[..keep * cols].iter().zip(&i[..keep * cols]);
            self.cur.extend(kept.map(|(&re, &im)| Complex::new(re, im)));
        }
        let stages = self.full..self.block_bits;
        pruned_stages(
            &mut self.cur,
            &mut self.next,
            stages,
            self.lags,
            &self.heads,
            cols,
        );
        let n = self.cur.len() / cols;
        let high = self.bits - self.block_bits;
        for c in 0..cols {
            let b = reverse(j0 + c, high);
            for (k, slot) in self.kept[b * n..][..n].iter_mut().enumerate() {
                *slot = self.cur[k * cols + c];
            }
        }
    }

    /// Runs the stages above the blocks: outputs `0..lags`.
    fn finish(mut self) -> Vec<Complex> {
        let stages = self.block_bits..self.bits;
        pruned_stages(
            &mut self.kept,
            &mut self.next,
            stages,
            self.lags,
            &self.heads,
            1,
        );
        self.kept
    }
}

/// Inverse stages `from+1..=to` over `2^from`-blocks of which `cur`
/// holds only the first `min(lags, 2^from)` positions each, back to
/// back, every position a row of `cols` values; leaves the resulting
/// blocks' kept positions in `cur`.
fn pruned_stages(
    cur: &mut Vec<Complex>,
    next: &mut Vec<Complex>,
    stages: core::ops::Range<u32>,
    lags: usize,
    heads: &[Vec<Complex>],
    cols: usize,
) {
    for s in stages.start + 1..=stages.end {
        let half = 1usize << (s - 1);
        let keep = lags.min(half);
        let out = lags.min(2 * half);
        let tw = &heads[s as usize - 1];
        next.clear();
        for pair in cur.chunks_exact(2 * keep * cols) {
            let (even, odd) = pair.split_at(keep * cols);
            let rows = || even.chunks_exact(cols).zip(odd.chunks_exact(cols)).zip(tw);
            for ((x, y), &w) in rows() {
                next.extend(x.iter().zip(y).map(|(&x, &y)| x + y * w));
            }
            for ((x, y), &w) in rows().take(out - keep) {
                next.extend(x.iter().zip(y).map(|(&x, &y)| x - y * w));
            }
        }
        core::mem::swap(cur, next);
    }
}

/// The textbook transform the blocked passes must reproduce bit for bit:
/// bit reversal, then one sweep per stage with the twiddle advanced by
/// the recurrence inside every block.
#[cfg(test)]
pub(crate) fn textbook(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = reverse(i, bits);
        if j > i {
            data.swap(i, j);
        }
    }
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let w_len = Complex::from_polar_unit(sign * core::f64::consts::TAU / len as f64);
        for start in (0..n).step_by(len) {
            let mut w = Complex::new(1.0, 0.0);
            for k in 0..len / 2 {
                let even = data[start + k];
                let odd = data[start + k + len / 2] * w;
                data[start + k] = even + odd;
                data[start + k + len / 2] = even - odd;
                w = w * w_len;
            }
        }
        len <<= 1;
    }
}

/// `ifft(|fft(x padded to len)|²).re` the long way, every lag, with the
/// textbook transform and [`ifft_in_place`]'s `1/len` scaling.
#[cfg(test)]
pub(crate) fn textbook_autocorrelation(signal: &[f64], len: usize) -> Vec<f64> {
    let mut buf = vec![Complex::ZERO; len];
    for (slot, &x) in buf.iter_mut().zip(signal) {
        *slot = Complex::from_real(x);
    }
    textbook(&mut buf, false);
    for z in buf.iter_mut() {
        *z = Complex::from_real(z.norm_sqr());
    }
    textbook(&mut buf, true);
    let inv = 1.0 / len as f64;
    buf.iter().map(|z| z.scale(inv).re).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_close(a: Complex, b: Complex, tol: f64) {
        assert!(
            (a.re - b.re).abs() < tol && (a.im - b.im).abs() < tol,
            "{a:?} != {b:?}"
        );
    }

    fn same_bits(a: &[Complex], b: &[Complex]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
    }

    /// Deterministic values with every exponent range and sign mixed.
    fn values(n: usize, salt: u64) -> Vec<f64> {
        let mut s = 0x9e37_79b9_7f4a_7c15u64 ^ salt;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let unit = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                unit * f64::powi(10.0, (s % 7) as i32 - 3)
            })
            .collect()
    }

    #[test]
    fn complex_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        assert_eq!(a * b, Complex::new(5.0, 5.0));
        assert_eq!(-a, Complex::new(-1.0, -2.0));
        assert!((a.norm_sqr() - 5.0).abs() < 1e-15);
        assert!((a.abs() - 5.0f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let mut x = vec![Complex::ZERO; 8];
        x[0] = Complex::from_real(1.0);
        fft_in_place(&mut x);
        for z in &x {
            assert_close(*z, Complex::new(1.0, 0.0), 1e-12);
        }
    }

    #[test]
    fn dc_transforms_to_single_bin() {
        let x = fft_real(&[1.0; 16]);
        assert_close(x[0], Complex::new(16.0, 0.0), 1e-12);
        for z in &x[1..] {
            assert!(z.abs() < 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_in_the_right_bin() {
        let n = 64;
        let k = 5;
        let signal: Vec<f64> = (0..n)
            .map(|i| (core::f64::consts::TAU * k as f64 * i as f64 / n as f64).cos())
            .collect();
        let spec = fft_real(&signal);
        // cos splits into bins k and n-k with magnitude n/2 each.
        assert!((spec[k].abs() - n as f64 / 2.0).abs() < 1e-9);
        assert!((spec[n - k].abs() - n as f64 / 2.0).abs() < 1e-9);
        for (i, z) in spec.iter().enumerate() {
            if i != k && i != n - k {
                assert!(z.abs() < 1e-9, "leakage at bin {i}: {}", z.abs());
            }
        }
    }

    #[test]
    fn matches_naive_dft() {
        let signal = [0.7, -1.2, 3.0, 0.1, -0.5, 2.2, -0.9, 1.4];
        let n = signal.len();
        let spec = fft_real(&signal);
        for (k, &s) in spec.iter().enumerate() {
            let mut acc = Complex::ZERO;
            for (i, &x) in signal.iter().enumerate() {
                let theta = -core::f64::consts::TAU * k as f64 * i as f64 / n as f64;
                acc = acc + Complex::from_polar_unit(theta).scale(x);
            }
            assert_close(s, acc, 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = fft_real(&[1.0, 2.0, 3.0]);
    }

    #[test]
    fn pass_layouts_cover_every_stage_once() {
        for pass_bits in 1..=PASS_BITS {
            for bits in 0..=40 {
                let layout = passes(bits, pass_bits);
                let mut next = 0;
                for &(a, m) in &layout {
                    assert_eq!(a, next, "{bits} bits by {pass_bits}: {layout:?}");
                    assert!(m <= pass_bits);
                    next = a + m;
                }
                assert_eq!(next, bits);
                assert_eq!(layout.last().map(|p| p.1), Some(bits.min(pass_bits)));
            }
        }
    }

    #[test]
    fn sampled_twiddles_are_the_recurrence() {
        for inverse in [false, true] {
            for (s, t) in (1..).zip(twiddles(inverse, 16).stages.iter()) {
                let walk = recurrence(step(s, inverse), 1 << (s - 1));
                let sampled: Vec<Complex> = walk.iter().step_by(1 << t.spacing).copied().collect();
                assert!(same_bits(&t.values, &sampled), "stage {s}");
            }
        }
    }

    /// Every pass layout — one pass, a short first pass, several full
    /// ones — against the textbook loop, bit for bit.
    #[test]
    fn blocked_passes_are_bit_identical_to_the_textbook_loop() {
        for pass_bits in [1, 2, 3, 5, PASS_BITS] {
            for bits in 0..=14u32 {
                let n = 1usize << bits;
                let re = values(n, u64::from(bits));
                let im = values(n, u64::from(bits) + 100);
                let input: Vec<Complex> = re
                    .iter()
                    .zip(&im)
                    .map(|(&r, &i)| Complex::new(r, i))
                    .collect();
                for inverse in [false, true] {
                    let mut want = input.clone();
                    textbook(&mut want, inverse);
                    let mut got = input.clone();
                    transform(&mut got, inverse, pass_bits);
                    assert!(
                        same_bits(&want, &got),
                        "{bits} bits by {pass_bits}, inverse {inverse}"
                    );
                }
                let mut want: Vec<Complex> = re.iter().map(|&x| Complex::from_real(x)).collect();
                textbook(&mut want, false);
                assert!(
                    same_bits(&want, &real_transform(&re, pass_bits)),
                    "real {bits} bits by {pass_bits}"
                );
            }
        }
    }

    /// A two-level staircase, 0 or Δ, as a sampled RTN current is.
    fn telegraph(n: usize, salt: u64) -> Vec<f64> {
        let mut level = 0.0;
        values(n, salt)
            .iter()
            .map(|v| {
                if v.to_bits() % 64 == 0 {
                    level = if level == 0.0 { 3.7e-7 } else { 0.0 };
                }
                level
            })
            .collect()
    }

    /// The default layout where it takes two passes, up to the
    /// out-of-cache size 2^20, on random and on RTN-like input.
    #[test]
    fn default_passes_are_bit_identical_at_large_sizes() {
        for bits in [15u32, 16, 20] {
            let n = 1usize << bits;
            let salt = u64::from(bits);
            let random: Vec<Complex> = values(n, salt)
                .iter()
                .zip(&values(n, salt + 1))
                .map(|(&r, &i)| Complex::new(r, i))
                .collect();
            let rtn = telegraph(n, salt + 2);
            let real: Vec<Complex> = rtn.iter().map(|&x| Complex::from_real(x)).collect();
            for input in [&random, &real] {
                for inverse in [false, true] {
                    let mut want = input.clone();
                    textbook(&mut want, inverse);
                    let mut got = input.clone();
                    transform(&mut got, inverse, PASS_BITS);
                    assert!(same_bits(&want, &got), "{bits} bits, inverse {inverse}");
                }
            }
            let mut want = real;
            textbook(&mut want, false);
            assert!(same_bits(&want, &fft_real(&rtn)), "real {bits} bits");
        }
    }

    #[test]
    fn pruned_autocorrelation_is_bit_identical_to_the_full_inverse() {
        for bits in 0..=14u32 {
            let len = 1usize << bits;
            let signal = values(len, u64::from(bits) + 7);
            for used in [1, len / 3 + 1, len / 2, len] {
                let all = textbook_autocorrelation(&signal[..used], len);
                for lags in [1, 2, 3, 81, 128, 200, len / 2 + 1, len] {
                    if lags > len {
                        continue;
                    }
                    for pass_bits in [2, 3, 5, PASS_BITS] {
                        let got = autocorrelation(&SPECTRA, &signal[..used], len, lags, pass_bits);
                        assert_eq!(got.len(), lags);
                        assert!(
                            all.iter()
                                .zip(&got)
                                .all(|(a, b)| a.to_bits() == b.to_bits()),
                            "{bits} bits by {pass_bits}, {used} samples, {lags} lags"
                        );
                    }
                }
            }
        }
    }

    /// `got` is the first 81 lags of the textbook path, bit for bit.
    fn assert_textbook_lags(got: &[f64], signal: &[f64], len: usize) {
        let want = textbook_autocorrelation(signal, len);
        assert_eq!(got.len(), 81);
        assert!(
            want.iter()
                .zip(got)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "{len} points, {} samples",
            signal.len()
        );
    }

    /// The lengths of the buffers free in `pool`.
    fn free_lengths(pool: &Pool) -> Vec<usize> {
        pool.lock().unwrap().iter().map(Vec::len).collect()
    }

    // The pool tests run on pools of their own: `cargo test` runs tests
    // on parallel threads, and others use `SPECTRA`.

    /// A pooled buffer four times too long, filled with NaN: the
    /// transform runs on its first `len` values and writes each before
    /// it reads it, and the buffer goes back to the pool.
    #[test]
    fn a_larger_stale_pooled_buffer_gives_the_textbook_lags() {
        let pool: Pool = Mutex::new(vec![vec![Complex::new(f64::NAN, f64::NAN); 1 << 16]]);
        let len = 1 << 14;
        let signal = telegraph(len / 2 + 3, 41);
        let got = autocorrelation(&pool, &signal, len, 81, PASS_BITS);
        assert_textbook_lags(&got, &signal, len);
        assert_eq!(free_lengths(&pool), [1 << 16]);
    }

    /// Calls one after another, each on the values the one before left:
    /// one pass (no buffer), then two passes on one buffer that grows,
    /// is shrunk into and is reused at full length. The pool holds just
    /// that buffer, as long as the longest transform so far.
    #[test]
    fn one_pooled_buffer_shrinks_and_grows_across_the_one_pass_boundary() {
        let pool = Pool::default();
        let steps = [(12, vec![]), (13, vec![1 << 13]), (16, vec![1 << 16])];
        let steps = steps
            .into_iter()
            .chain([(13, vec![1 << 16]), (16, vec![1 << 16])]);
        for (i, (bits, free)) in steps.enumerate() {
            let len = 1usize << bits;
            let signal = values(len / 2, 50 + i as u64);
            let got = autocorrelation(&pool, &signal, len, 81, PASS_BITS);
            assert_textbook_lags(&got, &signal, len);
            assert_eq!(free_lengths(&pool), free, "after {len} points");
        }
    }

    /// Four threads that start together, four lengths, three rounds,
    /// each thread moving to the next length every round: every result
    /// is its serial one, and the pool ends with at most four buffers.
    /// One barrier at the start, so a failing thread leaves none waiting.
    #[test]
    fn concurrent_calls_give_their_serial_results() {
        let signals: Vec<(Vec<f64>, usize)> = (13..=16u32)
            .map(|bits| (telegraph((1 << bits) / 2 + 5, u64::from(bits)), 1 << bits))
            .collect();
        let serial: Vec<Vec<f64>> = signals
            .iter()
            .map(|(x, len)| autocorrelation(&Pool::default(), x, *len, 81, PASS_BITS))
            .collect();
        let pool = Pool::default();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (pool, start, signals, serial) = (&pool, &start, &signals, &serial);
                scope.spawn(move || {
                    start.wait();
                    for round in 0..3 {
                        let k = (t + round) % 4;
                        let (x, len) = &signals[k];
                        let got = autocorrelation(pool, x, *len, 81, PASS_BITS);
                        assert!(
                            got.iter()
                                .zip(&serial[k])
                                .all(|(a, b)| a.to_bits() == b.to_bits()),
                            "thread {t}, round {round}, {len} points"
                        );
                    }
                });
            }
        });
        let free = free_lengths(&pool);
        assert!((1..=4).contains(&free.len()), "{free:?}");
        assert!(free.iter().all(|&n| n <= 1 << 16), "{free:?}");
    }

    /// Signal `s` of a batch: mixed values, with `+0.0` and `−0.0` among them.
    fn batch_signal(len: usize, s: usize) -> Vec<f64> {
        let mut x = values(len, 300 + s as u64);
        for (i, v) in x.iter_mut().enumerate() {
            match (i + s) % 6 {
                1 => *v = 0.0,
                4 => *v = -0.0,
                _ => {}
            }
        }
        x
    }

    /// Batches full and partial, on one-pass and forced multi-pass
    /// layouts and on the default two-pass one, against adding each
    /// windowed signal's [`fft_real`] `|X[k]|²` in turn.
    #[test]
    fn accumulated_power_is_bit_identical_to_squaring_the_spectrum() {
        for bits in 0..=14u32 {
            let len = 1usize << bits;
            let signals: Vec<Vec<f64>> = (0..17).map(|s| batch_signal(len, s)).collect();
            let window = values(len, 299);
            let mut want = vec![vec![0.0; len]];
            for x in &signals {
                let windowed: Vec<f64> = x.iter().zip(&window).map(|(x, w)| x * w).collect();
                let mut next = want[want.len() - 1].clone();
                for (slot, z) in next.iter_mut().zip(&fft_real(&windowed)) {
                    *slot += z.norm_sqr();
                }
                want.push(next);
            }
            for pass_bits in [2, 3, 5, PASS_BITS] {
                for (count, want) in want.iter().enumerate().skip(1) {
                    if bits > 10 && ![1, 7, 8, 9, 17].contains(&count) {
                        continue;
                    }
                    let batch = &mut signals[..count].iter().map(Vec::as_slice);
                    let got = power(batch, 0.0, &window, pass_bits);
                    assert!(
                        want.iter()
                            .zip(&got)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "{bits} bits by {pass_bits}, {count} signals"
                    );
                }
            }
        }
    }

    /// The stage kernel at every tile width its callers use, each column
    /// against the textbook loop: a first-pass tile of `width` columns,
    /// rows in bit-reversed order, twiddles walked afresh and widened.
    #[test]
    fn butterfly_kernel_is_bit_identical_to_the_textbook_loop_at_every_width() {
        for inverse in [false, true] {
            for m in 0..=9u32 {
                let rows = 1usize << m;
                let low: Vec<Complex> = (1..=m)
                    .flat_map(|s| recurrence(step(s, inverse), 1 << (s - 1)))
                    .collect();
                let (low_re, low_im): (Vec<f64>, Vec<f64>) =
                    low.iter().map(|w| (w.re, w.im)).unzip();
                for width in [1, 2, 4, 8, 16] {
                    let columns: Vec<Vec<Complex>> = (0..width)
                        .map(|c| {
                            let salt = u64::from(m) * 64 + c as u64;
                            let re = batch_signal(rows, c);
                            let im = values(rows, salt);
                            re.iter()
                                .zip(&im)
                                .map(|(&r, &i)| Complex::new(r, i))
                                .collect()
                        })
                        .collect();
                    let mut tile = Tile::with_len(rows * width);
                    for (c, column) in columns.iter().enumerate() {
                        for (t, z) in column.iter().enumerate() {
                            let at = reverse(t, m) * width + c;
                            tile.re[at] = z.re;
                            tile.im[at] = z.im;
                        }
                    }
                    let wide = widen((&low_re, &low_im), width);
                    butterfly_split(&mut tile.re, &mut tile.im, width, &wide.re, &wide.im);
                    for (c, column) in columns.iter().enumerate() {
                        let mut want = column.clone();
                        textbook(&mut want, inverse);
                        let got: Vec<Complex> = (0..rows)
                            .map(|t| Complex::new(tile.re[t * width + c], tile.im[t * width + c]))
                            .collect();
                        assert!(
                            same_bits(&want, &got),
                            "{rows} rows, width {width}, column {c}, inverse {inverse}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn autocorrelation_of_an_impulse_pair() {
        // x = δ₀ + 2·δ₃ in 8 points: r[0] = 1 + 4, r[3] = 2.
        let r = circular_autocorrelation(&[1.0, 0.0, 0.0, 2.0], 8, 5);
        let want = [5.0, 0.0, 0.0, 2.0, 0.0];
        for (got, want) in r.iter().zip(want) {
            assert!((got - want).abs() < 1e-15, "{r:?}");
        }
    }

    #[test]
    #[should_panic(expected = "lag count")]
    fn zero_lags_rejected() {
        let _ = circular_autocorrelation(&[1.0, 2.0], 4, 0);
    }

    #[test]
    #[should_panic(expected = "signal longer")]
    fn overlong_signal_rejected() {
        let _ = circular_autocorrelation(&[1.0; 5], 4, 1);
    }

    proptest! {
        #[test]
        fn round_trip_recovers_the_signal(
            vals in proptest::collection::vec(-100.0f64..100.0, 1..5usize)
                .prop_map(|v| {
                    let n = 1usize << v.len(); // 2..32 as power of two
                    (0..n).map(|i| v[i % v.len()] * (i as f64 * 0.37).sin()).collect::<Vec<_>>()
                }),
        ) {
            let mut buf: Vec<Complex> =
                vals.iter().map(|&x| Complex::from_real(x)).collect();
            fft_in_place(&mut buf);
            ifft_in_place(&mut buf);
            for (orig, back) in vals.iter().zip(&buf) {
                prop_assert!((orig - back.re).abs() < 1e-9);
                prop_assert!(back.im.abs() < 1e-9);
            }
        }

        #[test]
        fn parseval_energy_is_conserved(
            vals in proptest::collection::vec(-10.0f64..10.0, 1..7usize)
                .prop_map(|seed| {
                    let n = 64usize;
                    (0..n).map(|i| seed[i % seed.len()] * ((i * i) as f64 * 0.11).cos())
                        .collect::<Vec<_>>()
                }),
        ) {
            let time_energy: f64 = vals.iter().map(|x| x * x).sum();
            let spec = fft_real(&vals);
            let freq_energy: f64 =
                spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / vals.len() as f64;
            prop_assert!((time_energy - freq_energy).abs() < 1e-6 * (1.0 + time_energy));
        }

        #[test]
        fn blocked_transform_matches_the_textbook_loop(
            vals in proptest::collection::vec(-1.0e3f64..1.0e3, 1..10usize)
                .prop_map(|seed| {
                    let n = 1usize << (6 + seed.len() % 6);
                    (0..n).map(|i| seed[i % seed.len()] * (i as f64 * 0.61).sin()).collect::<Vec<_>>()
                }),
        ) {
            let mut want: Vec<Complex> = vals.iter().map(|&x| Complex::from_real(x)).collect();
            textbook(&mut want, false);
            prop_assert!(same_bits(&want, &real_transform(&vals, 4)));
        }
    }
}
