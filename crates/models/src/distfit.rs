//! Maximum-likelihood distribution fitting with log-likelihood model
//! selection — the Rust equivalent of the paper's R-based pipeline
//! (§IV-B): *"the sampled data [is fit] to various distributions;
//! subsequently, the log-likelihood is calculated for each distribution to
//! determine which best fits the sampled data."*

use crate::dist::{digamma, trigamma, Dist};
use borg_obs::{Activity, Actor, Recorder, TraceEdge};
use parking_lot::Mutex;

/// Families the fitter can try.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Uniform on the sample range.
    Uniform,
    /// Exponential.
    Exponential,
    /// Normal.
    Normal,
    /// Log-normal (positive samples only).
    LogNormal,
    /// Gamma (positive samples only).
    Gamma,
    /// Weibull (positive samples only).
    Weibull,
}

impl Family {
    /// All supported families.
    pub fn all() -> [Family; 6] {
        [
            Family::Uniform,
            Family::Exponential,
            Family::Normal,
            Family::LogNormal,
            Family::Gamma,
            Family::Weibull,
        ]
    }
}

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleStats {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Unbiased sample variance.
    pub variance: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl SampleStats {
    /// Computes statistics; panics on an empty sample.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "empty sample");
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let variance = if n > 1 {
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Self {
            n,
            mean,
            variance,
            min,
            max,
        }
    }

    /// Standard deviation.
    pub(crate) fn sd(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Coefficient of variation (σ/μ); 0 for zero mean.
    pub fn cv(&self) -> f64 {
        if self.mean != 0.0 {
            self.sd() / self.mean
        } else {
            0.0
        }
    }
}

/// A stream of timing samples kept in bounded memory: an exact count and
/// sum, and every `stride`-th value in push order.
///
/// Every value is kept until `SampleLog::CAP` are retained. The next
/// value that falls on the stride first drops every second retained value
/// and doubles the stride, so a long stream holds between `CAP / 2` and
/// `CAP` values and `retained()` is always `stream.step_by(stride)`.
/// Executors keep none: a reader that fits or averages measured `T_A` or
/// `T_F` attaches a [`WithSampleLog`] to the run's recorder, and a
/// paper-scale run (N + P − 1 ≤ `CAP`) keeps every sample.
#[derive(Debug, Clone)]
pub struct SampleLog {
    count: usize,
    sum: f64,
    /// Pushes between two retained values: 1 until `CAP` are retained,
    /// then doubling.
    stride: usize,
    retained: Vec<f64>,
}

impl SampleLog {
    /// The most values a log retains: 2¹⁷.
    pub(crate) const CAP: usize = 1 << 17;

    /// An empty log.
    pub fn new() -> Self {
        Self {
            count: 0,
            // `Iterator::sum` over floats starts from −0.0, so the two
            // agree bit for bit on every stream, an empty one included.
            sum: -0.0,
            stride: 1,
            retained: Vec::new(),
        }
    }

    /// Appends one value. It is never edited afterwards.
    pub fn push(&mut self, value: f64) {
        // `stride` is a power of two.
        if self.count & (self.stride - 1) == 0 {
            if self.retained.len() == Self::CAP {
                // `count` is `CAP · stride` here, a multiple of the doubled
                // stride, so the value that prompted the halving is kept.
                let mut keep = false;
                self.retained.retain(|_| {
                    keep = !keep;
                    keep
                });
                self.stride *= 2;
            }
            self.retained.push(value);
        }
        self.count += 1;
        self.sum += value;
    }

    /// Values pushed.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Sum of every value pushed, added in push order.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact mean of every value pushed (NaN when empty).
    pub fn mean(&self) -> f64 {
        self.sum / self.count as f64
    }

    /// Every `stride`-th value pushed, in push order, starting with the
    /// first.
    pub fn retained(&self) -> &[f64] {
        &self.retained
    }
}

impl Default for SampleLog {
    fn default() -> Self {
        Self::new()
    }
}

/// Forwards every call to the recorder it wraps and logs the durations
/// (`end − start`) of one [`Activity`]'s spans: `Algorithm` gives one `T_A`
/// per master hold, `Evaluation` one `T_F` per finished evaluation. Like
/// `InMemoryRecorder` it logs no zero-length span, and a span reaches
/// `inner` under the log's lock, so a histogram `inner` builds from the
/// same spans agrees with the log on count and sum bits.
pub struct WithSampleLog<'a, R: Recorder + ?Sized> {
    inner: &'a R,
    activity: Activity,
    log: Mutex<SampleLog>,
}

impl<'a, R: Recorder + ?Sized> WithSampleLog<'a, R> {
    /// Wraps `inner`, logging the durations of `activity`'s spans.
    pub fn new(inner: &'a R, activity: Activity) -> Self {
        Self {
            inner,
            activity,
            log: Mutex::new(SampleLog::new()),
        }
    }

    /// The durations logged so far.
    pub fn into_log(self) -> SampleLog {
        self.log.into_inner()
    }
}

impl<R: Recorder + ?Sized> Recorder for WithSampleLog<'_, R> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn counter(&self, name: &'static str, delta: u64) {
        self.inner.counter(name, delta);
    }

    fn gauge(&self, name: &'static str, value: f64) {
        self.inner.gauge(name, value);
    }

    fn observe(&self, name: &'static str, value: f64) {
        self.inner.observe(name, value);
    }

    fn span(&self, actor: Actor, activity: Activity, start: f64, end: f64) {
        if activity == self.activity && end > start {
            let mut log = self.log.lock();
            self.inner.span(actor, activity, start, end);
            log.push(end - start);
        } else {
            self.inner.span(actor, activity, start, end);
        }
    }

    fn trace_edge(&self, edge: TraceEdge) {
        self.inner.trace_edge(edge);
    }

    fn flight(&self, code: &'static str, t: f64, a: u64, b: u64, x: f64) {
        self.inner.flight(code, t, a, b, x);
    }
}

/// MLE fit of one family. Returns `None` when the family's support cannot
/// hold the sample (e.g. log-normal with non-positive values) or the MLE
/// degenerates.
pub(crate) fn fit_family(family: Family, samples: &[f64]) -> Option<Dist> {
    let stats = SampleStats::of(samples);
    match family {
        Family::Uniform => (stats.max > stats.min).then_some(Dist::Uniform {
            lo: stats.min,
            hi: stats.max,
        }),
        Family::Exponential => {
            (stats.min >= 0.0 && stats.mean > 0.0).then_some(Dist::Exponential {
                rate: 1.0 / stats.mean,
            })
        }
        Family::Normal => {
            // MLE variance (biased) rather than the unbiased estimator.
            // Guard against numerically-constant samples whose variance is
            // pure floating-point noise.
            let var_mle = stats.variance * (stats.n - 1).max(1) as f64 / stats.n as f64;
            let noise_floor = (stats.mean.abs() * 1e-9).powi(2).max(f64::MIN_POSITIVE);
            (var_mle > noise_floor).then_some(Dist::Normal {
                mean: stats.mean,
                sd: var_mle.sqrt(),
            })
        }
        Family::LogNormal => {
            if stats.min <= 0.0 {
                return None;
            }
            let logs: Vec<f64> = samples.iter().map(|x| x.ln()).collect();
            let ls = SampleStats::of(&logs);
            let var_mle = ls.variance * (ls.n - 1).max(1) as f64 / ls.n as f64;
            let noise_floor = (ls.mean.abs() * 1e-9).powi(2).max(f64::MIN_POSITIVE);
            (var_mle > noise_floor).then_some(Dist::LogNormal {
                mu: ls.mean,
                sigma: var_mle.sqrt(),
            })
        }
        Family::Gamma => fit_gamma(samples, stats),
        Family::Weibull => fit_weibull(samples, stats),
    }
}

/// Gamma MLE: Newton iteration on the shape via the digamma equation
/// `ln k − ψ(k) = ln(mean) − mean(ln x)`.
fn fit_gamma(samples: &[f64], stats: SampleStats) -> Option<Dist> {
    if stats.min <= 0.0 || stats.mean <= 0.0 {
        return None;
    }
    let mean_ln = samples.iter().map(|x| x.ln()).sum::<f64>() / samples.len() as f64;
    let s = stats.mean.ln() - mean_ln;
    if s <= 1e-12 {
        return None; // numerically constant sample
    }
    // Minka's initializer, then Newton on f(k) = ln k − ψ(k) − s.
    let mut k = (3.0 - s + ((s - 3.0) * (s - 3.0) + 24.0 * s).sqrt()) / (12.0 * s);
    for _ in 0..60 {
        let f = k.ln() - digamma(k) - s;
        let fp = 1.0 / k - trigamma(k);
        let step = f / fp;
        let next = k - step;
        let next = if next <= 0.0 { k / 2.0 } else { next };
        if (next - k).abs() < 1e-12 * k {
            k = next;
            break;
        }
        k = next;
    }
    (k.is_finite() && k > 0.0).then_some(Dist::Gamma {
        shape: k,
        scale: stats.mean / k,
    })
}

/// Weibull MLE: Newton iteration on the shape `k` solving
/// `Σ xᵏ ln x / Σ xᵏ − 1/k = mean(ln x)`.
fn fit_weibull(samples: &[f64], stats: SampleStats) -> Option<Dist> {
    if stats.min <= 0.0 {
        return None;
    }
    let n = samples.len() as f64;
    let mean_ln = samples.iter().map(|x| x.ln()).sum::<f64>() / n;
    // Method-of-moments-flavoured initializer from the log-variance.
    let var_ln = samples
        .iter()
        .map(|x| (x.ln() - mean_ln) * (x.ln() - mean_ln))
        .sum::<f64>()
        / n;
    if var_ln <= 1e-18 {
        return None; // numerically constant sample
    }
    let mut k = 1.2 / var_ln.sqrt().max(1e-9);
    for _ in 0..100 {
        let (mut s0, mut s1, mut s2) = (0.0, 0.0, 0.0);
        for &x in samples {
            let xk = x.powf(k);
            let lx = x.ln();
            s0 += xk;
            s1 += xk * lx;
            s2 += xk * lx * lx;
        }
        let f = s1 / s0 - 1.0 / k - mean_ln;
        let fp = (s2 * s0 - s1 * s1) / (s0 * s0) + 1.0 / (k * k);
        let next = k - f / fp;
        let next = if next <= 0.0 { k / 2.0 } else { next };
        if (next - k).abs() < 1e-12 * k {
            k = next;
            break;
        }
        k = next;
    }
    if !(k.is_finite() && k > 0.0) {
        return None;
    }
    let scale = (samples.iter().map(|x| x.powf(k)).sum::<f64>() / n).powf(1.0 / k);
    Some(Dist::Weibull { shape: k, scale })
}

/// One fitted candidate with its log-likelihood.
#[derive(Debug, Clone)]
pub struct FitResult {
    /// Family tried.
    pub family: Family,
    /// MLE-fitted distribution.
    pub dist: Dist,
    /// Log-likelihood of the sample under `dist`.
    pub log_likelihood: f64,
}

/// Fits every requested family and ranks by log-likelihood (best first),
/// dropping families whose support can't hold the sample or whose
/// likelihood is non-finite.
pub fn fit_all(samples: &[f64], families: &[Family]) -> Vec<FitResult> {
    let mut out: Vec<FitResult> = families
        .iter()
        .filter_map(|&family| {
            let dist = fit_family(family, samples)?;
            let ll = dist.log_likelihood(samples);
            ll.is_finite().then_some(FitResult {
                family,
                dist,
                log_likelihood: ll,
            })
        })
        .collect();
    out.sort_by(|a, b| b.log_likelihood.total_cmp(&a.log_likelihood));
    out
}

/// Fits all families and returns the best. A (numerically) constant sample
/// short-circuits to a point mass — no continuous density models it and
/// likelihoods degenerate.
pub fn best_fit(samples: &[f64]) -> Dist {
    let stats = SampleStats::of(samples);
    if stats.sd() <= stats.mean.abs().max(f64::MIN_POSITIVE) * 1e-9 {
        return Dist::Constant(stats.mean);
    }
    fit_all(samples, &Family::all())
        .into_iter()
        .next()
        .map(|f| f.dist)
        .unwrap_or(Dist::Constant(stats.mean))
}

#[cfg(test)]
mod tests {
    use super::*;
    use borg_core::rng::SplitMix64;

    fn draw(d: Dist, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed).derive("distfit-tests");
        (0..n).map(|_| d.sample(&mut rng)).collect()
    }

    #[test]
    fn stats_basics() {
        let s = SampleStats::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert_eq!(s.mean, 2.5);
        assert!((s.variance - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!(s.cv() > 0.0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(24))]

        #[test]
        fn sample_log_matches_a_vec_oracle(
            len in proptest::prop_oneof![
                0usize..=SampleLog::CAP + 2,
                SampleLog::CAP - 2..=3 * SampleLog::CAP,
            ],
            seed in 0u64..1_000,
        ) {
            let oracle = draw(Dist::LogNormal { mu: -11.0, sigma: 1.5 }, len, seed);
            let mut log = SampleLog::new();
            for &x in &oracle {
                log.push(x);
            }
            proptest::prop_assert_eq!(log.count(), len);
            proptest::prop_assert_eq!(
                log.sum().to_bits(),
                oracle.iter().sum::<f64>().to_bits()
            );
            let strided: Vec<u64> = oracle
                .iter()
                .step_by(log.stride)
                .map(|x| x.to_bits())
                .collect();
            let retained: Vec<u64> = log.retained().iter().map(|x| x.to_bits()).collect();
            proptest::prop_assert!(retained == strided, "stride {}", log.stride);
            proptest::prop_assert!(log.retained().len() <= SampleLog::CAP);
            if len <= SampleLog::CAP {
                proptest::prop_assert_eq!(log.stride, 1);
            } else {
                proptest::prop_assert!(log.retained().len() > SampleLog::CAP / 2);
            }
        }
    }

    #[test]
    fn sample_log_memory_does_not_grow_with_the_stream() {
        let n = (1 << 18) + 12_345;
        let mut log = SampleLog::new();
        let mut sum = -0.0;
        for i in 0..n {
            let x = 1e-6 * (1 + i % 7) as f64;
            log.push(x);
            sum += x;
        }
        assert_eq!(log.count(), n);
        assert_eq!(log.sum().to_bits(), sum.to_bits());
        assert_eq!(log.stride, 4);
        assert!(log.retained().len() <= SampleLog::CAP);
        assert!(log.retained.capacity() <= SampleLog::CAP);
        assert_eq!(log.retained().len(), n.div_ceil(4));
    }

    #[test]
    fn with_sample_log_keeps_one_activity_and_forwards_everything() {
        let inner = borg_obs::InMemoryRecorder::new();
        let rec = WithSampleLog::new(&inner, Activity::Algorithm);
        rec.span(Actor::Master, Activity::Algorithm, 1.0, 1.5);
        // A zero-length span carries no time: neither sink counts it.
        rec.span(Actor::Master, Activity::Algorithm, 2.0, 2.0);
        rec.span(Actor::Worker(0), Activity::Evaluation, 0.0, 3.0);
        rec.counter("engine.reissues", 2);
        let log = rec.into_log();
        assert_eq!((log.count(), log.sum()), (1, 0.5));
        let snapshot = inner.snapshot();
        assert_eq!(snapshot.histograms["t_a_seconds"].count(), 1);
        assert_eq!(snapshot.histograms["t_f_seconds"].count(), 1);
        assert_eq!(snapshot.counters["engine.reissues"], 2);
    }

    #[test]
    fn normal_fit_recovers_parameters() {
        let xs = draw(
            Dist::Normal {
                mean: 10.0,
                sd: 2.0,
            },
            20_000,
            1,
        );
        let d = fit_family(Family::Normal, &xs).unwrap();
        if let Dist::Normal { mean, sd } = d {
            assert!((mean - 10.0).abs() < 0.1);
            assert!((sd - 2.0).abs() < 0.1);
        } else {
            panic!("wrong family");
        }
    }

    #[test]
    fn exponential_fit_recovers_rate() {
        let xs = draw(Dist::Exponential { rate: 4.0 }, 20_000, 2);
        if let Dist::Exponential { rate } = fit_family(Family::Exponential, &xs).unwrap() {
            assert!((rate - 4.0).abs() < 0.15, "rate = {rate}");
        } else {
            panic!("wrong family");
        }
    }

    #[test]
    fn gamma_fit_recovers_parameters() {
        let xs = draw(
            Dist::Gamma {
                shape: 3.0,
                scale: 0.5,
            },
            20_000,
            3,
        );
        if let Dist::Gamma { shape, scale } = fit_family(Family::Gamma, &xs).unwrap() {
            assert!((shape - 3.0).abs() < 0.15, "shape = {shape}");
            assert!((scale - 0.5).abs() < 0.05, "scale = {scale}");
        } else {
            panic!("wrong family");
        }
    }

    #[test]
    fn weibull_fit_recovers_parameters() {
        let xs = draw(
            Dist::Weibull {
                shape: 1.8,
                scale: 2.5,
            },
            20_000,
            4,
        );
        if let Dist::Weibull { shape, scale } = fit_family(Family::Weibull, &xs).unwrap() {
            assert!((shape - 1.8).abs() < 0.1, "shape = {shape}");
            assert!((scale - 2.5).abs() < 0.1, "scale = {scale}");
        } else {
            panic!("wrong family");
        }
    }

    #[test]
    fn lognormal_fit_recovers_parameters() {
        let xs = draw(
            Dist::LogNormal {
                mu: -2.0,
                sigma: 0.3,
            },
            20_000,
            5,
        );
        if let Dist::LogNormal { mu, sigma } = fit_family(Family::LogNormal, &xs).unwrap() {
            assert!((mu + 2.0).abs() < 0.02);
            assert!((sigma - 0.3).abs() < 0.02);
        } else {
            panic!("wrong family");
        }
    }

    #[test]
    fn model_selection_picks_the_generator() {
        // For each generating family, the ranked fit should put the true
        // family first (or an equivalent-likelihood cousin within noise).
        let cases = [
            (Family::Normal, Dist::Normal { mean: 8.0, sd: 0.8 }),
            (Family::Exponential, Dist::Exponential { rate: 10.0 }),
            (
                Family::Gamma,
                Dist::Gamma {
                    shape: 9.0,
                    scale: 0.01,
                },
            ),
        ];
        for (i, (family, d)) in cases.into_iter().enumerate() {
            let xs = draw(d, 10_000, 100 + i as u64);
            let ranked = fit_all(&xs, &Family::all());
            assert!(!ranked.is_empty());
            let best_ll = ranked[0].log_likelihood;
            let true_ll = ranked
                .iter()
                .find(|f| f.family == family)
                .expect("true family missing from ranking")
                .log_likelihood;
            // The generator must be within a whisker of the winner.
            assert!(
                true_ll >= best_ll - 0.005 * best_ll.abs().max(1.0) - 10.0,
                "{family:?} badly ranked: {true_ll} vs winner {best_ll}"
            );
        }
    }

    #[test]
    fn negative_samples_exclude_positive_families() {
        let xs = vec![-1.0, 0.5, 2.0, -0.3];
        assert!(fit_family(Family::LogNormal, &xs).is_none());
        assert!(fit_family(Family::Gamma, &xs).is_none());
        assert!(fit_family(Family::Weibull, &xs).is_none());
        assert!(fit_family(Family::Exponential, &xs).is_none());
        assert!(fit_family(Family::Normal, &xs).is_some());
    }

    #[test]
    fn constant_sample_falls_back_to_constant() {
        let xs = vec![0.01; 50];
        match best_fit(&xs) {
            Dist::Constant(c) => assert!((c - 0.01).abs() < 1e-12),
            other => panic!("expected a point mass, got {other:?}"),
        }
    }

    #[test]
    fn best_fit_on_timing_like_data() {
        // Timing data shaped like the paper's T_F: Normal(0.01, 0.001).
        let xs = draw(Dist::normal_cv(0.01, 0.1), 5_000, 6);
        let best = best_fit(&xs);
        // Mean must be preserved whatever family wins.
        assert!((best.mean() - 0.01).abs() < 2e-4, "{best:?}");
    }
}
