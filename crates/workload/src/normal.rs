//! Box–Muller standard normal draws, rounded to `f32`.
//!
//! Every consumer of a normal draw in this crate keeps only
//! `(sqrt(-2 ln u1) · cos(2π u2)) as f32`. [`box_muller`] computes the
//! `f64` product with short tables and polynomials instead of libm's `ln`
//! and `cos`, then applies Ziv's rounding test (Ziv, ACM TOMS 1991): if
//! every value within a relative `2^-40` of the approximation rounds to
//! the same `f32`, so does the libm product, whose own error is far
//! smaller than the guard. Otherwise the draw falls back to
//! [`reference::box_muller`], the libm expression itself. Either way the
//! result is the reference's `f32`, bit for bit.
//!
//! The approximation's relative error measured at most `2^-48.7` over
//! 2·10^8 seeded draws (DESIGN.md, "Normal draws with a rounding test"),
//! against a guard of `2^-40`; about one draw in 44 000 lands close
//! enough to an `f32` rounding boundary to fall back.

use std::f64::consts::{FRAC_1_SQRT_2, LN_2, PI};
use stem_stats::rng::{RngExt, SeedableRng, StdRng};

/// Relative margin the rounding test demands around the approximation.
const GUARD: f64 = 1.0 / (1u64 << 40) as f64;

/// `ln(c_i / 2)` for the cell centres `c_i = 1 + i/128`, `i = 0..=128`,
/// each the nearest double. Halving the centre folds one `ln 2` into the
/// table, so a `u1` in `[1/2, 1)` needs no `ln 2` term and its logarithm
/// keeps full relative precision as `u1` approaches 1.
const LN_HALF_CELL: [f64; 129] = [
    -LN_2,
    -0.6853650401178903,
    -0.6776429940239801,
    -0.6699801212784109,
    -0.6623755218931916,
    -0.6548283162578087,
    -0.6473376445286511,
    -0.639902666041133,
    -0.6325225587435105,
    -0.6251965186514375,
    -0.6179237593223578,
    -0.6107035113488707,
    -0.6035350218702582,
    -0.5964175541013942,
    -0.5893503868783018,
    -0.5823328142196552,
    -0.5753641449035618,
    -0.5684437020589881,
    -0.561570822771226,
    -0.5547448577008262,
    -0.5479651707154474,
    -0.5412311385341033,
    -0.5345421503833068,
    -0.5278976076646381,
    -0.5212969236332861,
    -0.514739523087127,
    -0.5082248420659333,
    -0.5017523275603158,
    -0.4953214372300254,
    -0.4889316391312544,
    -0.48258241145259567,
    -0.47627324225933093,
    -0.4700036292457356,
    -0.4637730794950995,
    -0.4575811092471784,
    -0.4514272436728001,
    -0.44531101665536404,
    -0.4392319705789819,
    -0.43318965612301924,
    -0.42718363206280735,
    -0.42121346507630353,
    -0.415278729556489,
    -0.4093790074293007,
    -0.40351388797690263,
    -0.39768296766610944,
    -0.39188584998178355,
    -0.38612214526503347,
    -0.38039147055604844,
    -0.3746934494414107,
    -0.36902771190573336,
    -0.3633938941874773,
    -0.3577916386388075,
    -0.3522205935893521,
    -0.3466804132137367,
    -0.34117075740276714,
    -0.33569129163814154,
    -0.33024168687057687,
    -0.32482161940123766,
    -0.3194307707663612,
    -0.31406882762497584,
    -0.3087354816496133,
    -0.3034304294199201,
    -0.29815337231907635,
    -0.2929040164329326,
    -0.2876820724517809,
    -0.2824872555746769,
    -0.27731928541623435,
    -0.27217788591581565,
    -0.26706278524904525,
    -0.26197371574157396,
    -0.2569104137850272,
    -0.2518726197550701,
    -0.24686007793152578,
    -0.24187253642048673,
    -0.2369097470783577,
    -0.23197146543777514,
    -0.22705745063534608,
    -0.2221674653411543,
    -0.2173012756899814,
    -0.2124586512141934,
    -0.2076393647782445,
    -0.20284319251475147,
    -0.1980699137620938,
    -0.19331931100349597,
    -0.18859116980755003,
    -0.18388527877013736,
    -0.179201429457711,
    -0.17453941635189968,
    -0.16989903679539747,
    -0.16528009093910292,
    -0.16068238169047347,
    -0.15610571466306167,
    -0.15154989812720093,
    -0.14701474296180966,
    -0.14250006260728304,
    -0.13800567301944372,
    -0.13353139262452263,
    -0.12907704227514236,
    -0.1246424452072766,
    -0.1202274269981598,
    -0.1158318155251217,
    -0.11145544092532282,
    -0.1070981355563671,
    -0.10275973395776894,
    -0.09844007281325252,
    -0.09413899091386191,
    -0.08985632912186105,
    -0.08559193033540351,
    -0.0813456394539524,
    -0.07711730334443129,
    -0.07290677080808779,
    -0.06871389254805181,
    -0.06453852113757118,
    -0.06038051098890748,
    -0.05623971832287608,
    -0.05211600113901402,
    -0.048009219186360606,
    -0.04391923393483549,
    -0.039845908547199674,
    -0.03578910785158528,
    -0.0317486983145803,
    -0.027724548014854862,
    -0.023716526617316044,
    -0.01972450534777859,
    -0.015748356968139168,
    -0.01178795575204224,
    -0.007843177461025893,
    -0.003913899321136329,
    0.0,
];

/// Per cell `i`: `[-2·ln(c_i/2), 1/c_i]`. The first is
/// [`LN_HALF_CELL`] pre-scaled by the `-2` of `sqrt(-2 ln u1)` (exact);
/// the second, rounded, turns the cell offset into `log1p`'s argument
/// without a division.
const CELLS: [[f64; 2]; 129] = cells();

const fn cells() -> [[f64; 2]; 129] {
    let mut t = [[0.0; 2]; 129];
    let mut i = 0;
    while i < t.len() {
        t[i] = [-2.0 * LN_HALF_CELL[i], 128.0 / (128 + i) as f64];
        i += 1;
    }
    t
}

/// `cos(kπ/32)` for `k = 0..=16`, each the nearest double; exact at both
/// ends.
const COS_OCTANT: [f64; 17] = [
    1.0,
    0.9951847266721969,
    0.9807852804032304,
    0.9569403357322088,
    0.9238795325112867,
    0.881921264348355,
    0.8314696123025452,
    0.773010453362737,
    FRAC_1_SQRT_2,
    0.6343932841636455,
    0.5555702330196022,
    0.47139673682599764,
    0.3826834323650898,
    0.2902846772544624,
    0.19509032201612828,
    0.0980171403295606,
    0.0,
];

/// `[cos(jπ/32), sin(jπ/32)]` for `j = 0..64`, unfolded from
/// [`COS_OCTANT`] by symmetry, so the cells at the zeros of cos (`j` = 16
/// and 48) hold an exact 0 and ±1.
const COS_SIN: [[f64; 2]; 64] = cos_sin_cells();

const fn cos_sin_cells() -> [[f64; 2]; 64] {
    let mut t = [[0.0; 2]; 64];
    let mut j = 0;
    while j < t.len() {
        let (c, s) = (COS_OCTANT[j % 16], COS_OCTANT[16 - j % 16]);
        t[j] = match j / 16 {
            0 => [c, s],
            1 => [-s, c],
            2 => [-c, -s],
            _ => [s, -c],
        };
        j += 1;
    }
    t
}

/// `1.5·2^52`: adding it to a double of magnitude below `2^51` rounds
/// that double to an integer.
const ROUND_TO_INT: f64 = 6_755_399_441_055_744.0;

/// `π/32` in three parts (Cody–Waite): the first two carry 26 bits each,
/// so `j·PART` is exact for every cell index `j ≤ 64`; the third is the
/// rounded rest, leaving `π/32` known to about `2^-110` relative.
const PI_32_PARTS: [f64; 3] = [
    0.09817477129399776,
    -8.69316729712466e-10,
    3.827021247335479e-18,
];

/// Below this distance from a zero of cos, the draw falls back: the error
/// analysis covers `|cos x| ≥ 2^-20` only.
const NEAR_ZERO: f64 = 1.0 / (1u64 << 20) as f64;

/// The standard normal deviate `(sqrt(-2 ln u1) · cos(2π u2)) as f32`,
/// bit-identical to [`reference::box_muller`] for every input.
#[inline]
pub fn box_muller(u1: f64, u2: f64) -> f32 {
    match try_fast(u1, u2) {
        Some(z) => z,
        None => fallback(u1, u2),
    }
}

#[cold]
#[inline(never)]
fn fallback(u1: f64, u2: f64) -> f32 {
    reference::box_muller(u1, u2)
}

/// The builder's jitter draw: a `u1` at or below `f64::MIN_POSITIVE` is
/// redrawn, then [`box_muller`] transforms the pair.
#[inline]
pub(crate) fn standard_normal(rng: &mut StdRng) -> f32 {
    draw(rng, box_muller)
}

#[inline]
fn draw(rng: &mut StdRng, transform: impl Fn(f64, f64) -> f32) -> f32 {
    loop {
        let u1: f64 = rng.random();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.random();
        return transform(u1, u2);
    }
}

/// Fills `out` with the builder's draws from a generator seeded with
/// `seed`: the loop the same-process ratio gate times against
/// [`reference::fill`]. Compiled here, so both sides run at this crate's
/// optimization level whatever crate calls them.
#[doc(hidden)]
pub fn fill(out: &mut [f32], seed: u64) {
    fill_with(out, seed, box_muller);
}

fn fill_with(out: &mut [f32], seed: u64, transform: impl Fn(f64, f64) -> f32 + Copy) {
    let mut rng = StdRng::seed_from_u64(seed);
    for z in out {
        *z = draw(&mut rng, transform);
    }
}

/// The fast path alone: `Some` when the rounding test decides the `f32`,
/// `None` when [`box_muller`] falls back to the reference. Exposed so
/// tests can count fallbacks.
#[doc(hidden)]
#[inline]
pub fn try_fast(u1: f64, u2: f64) -> Option<f32> {
    let f = approx(u1, u2)?;
    let (lo, hi) = ((f * (1.0 - GUARD)) as f32, (f * (1.0 + GUARD)) as f32);
    (lo.to_bits() == hi.to_bits()).then_some(lo)
}

/// The `f64` approximation of `sqrt(-2 ln u1) · cos(2π u2)` the rounding
/// test judges; `None` outside `u1 ∈ [f64::MIN_POSITIVE, 1)`,
/// `u2 ∈ [0, 1)` or within [`NEAR_ZERO`] of a zero of cos. Exposed so
/// tests can measure its error.
#[doc(hidden)]
#[inline]
pub fn approx(u1: f64, u2: f64) -> Option<f64> {
    if !(f64::MIN_POSITIVE..1.0).contains(&u1) || !(0.0..1.0).contains(&u2) {
        return None;
    }
    // -2 ln u1 = n·(-2 ln 2) - 2 ln(c_i/2) - 2 log1p((m − c_i)/c_i), where
    // u1 = 2^(n−1)·m, m ∈ [1, 2) and c_i is the cell centre nearest m, so
    // |m − c_i| ≤ 2^-8.
    let bits = u1.to_bits();
    let n = (bits >> 52) as i64 - 1022;
    let mantissa = bits & ((1 << 52) - 1);
    let i = ((mantissa + (1 << 44)) >> 45) as usize;
    let m = f64::from_bits(mantissa | (1023 << 52));
    let [neg2_ln_cell, inv_cell] = CELLS[i];
    let r = (m - (1.0 + i as f64 / 128.0)) * inv_cell;
    let r2 = r * r;
    let neg2_log1p =
        (r2 * (1.0 - r * (2.0 / 3.0)) - 2.0 * r) + r2 * r2 * ((0.5 - r * 0.4) + r2 * (1.0 / 3.0));
    let radius = ((n as f64 * (-2.0 * LN_2) + neg2_ln_cell) + neg2_log1p).sqrt();

    // cos x = cos(jπ/32)·cos t − sin(jπ/32)·sin t, t = x − jπ/32, |t| ≤ π/64.
    // x·32/π = 64·u2: adding 1.5·2^52 rounds 64·u2 to the integer j,
    // left in the low mantissa bits.
    let x = 2.0 * PI * u2;
    let cell = u2 * 64.0 + ROUND_TO_INT;
    let j = (cell.to_bits() & 127) as usize;
    let jf = cell - ROUND_TO_INT;
    let t = ((x - jf * PI_32_PARTS[0]) - jf * PI_32_PARTS[1]) - jf * PI_32_PARTS[2];
    if j % 32 == 16 && t.abs() < NEAR_ZERO {
        return None;
    }
    let t2 = t * t;
    let t4 = t2 * t2;
    let cos_t = (1.0 - 0.5 * t2) + t4 * (1.0 / 24.0 - t2 * (1.0 / 720.0));
    let sin_t = t + t * t2 * ((-1.0 / 6.0 + t2 * (1.0 / 120.0)) - t4 * (1.0 / 5040.0));
    let [cos_j, sin_j] = COS_SIN[j % 64];
    Some(radius * (cos_j * cos_t - sin_j * sin_t))
}

/// The libm expression [`box_muller`] reproduces: its fallback and the
/// executable oracle the equivalence tests and the same-process ratio
/// gate compare it against.
#[doc(hidden)]
pub mod reference {
    /// `(sqrt(-2 ln u1) · cos(2π u2)) as f32` through libm.
    pub fn box_muller(u1: f64, u2: f64) -> f32 {
        ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
    }

    /// [`super::fill`] through the libm expression.
    pub fn fill(out: &mut [f32], seed: u64) {
        super::fill_with(out, seed, box_muller);
    }
}
