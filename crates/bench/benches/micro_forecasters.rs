//! Criterion micro-benchmarks of the NWS forecaster battery.
//!
//! `battery_update_1000` includes building the battery; the `warm` rows
//! time one steady-state `update` + `forecast` on windows that are
//! already full, for the whole battery and for each member alone.

use criterion::{criterion_group, criterion_main, Criterion};
use datagrid_simnet::rng::SimRng;
use datagrid_sysmon::nws::forecast::{
    AdaptiveMean, AdaptiveMedian, Ar1Forecaster, ExpSmoothing, Forecaster, LastValue,
    MetaForecaster, RunningMean, SlidingMean, SlidingMedian, TrimmedMean,
};
use std::hint::black_box;

/// The members of `MetaForecaster::nws_battery`, labelled by their
/// parameters. `bench_battery` checks the member names and order against
/// the battery itself; keep the parameters in step with it by hand.
fn battery_members() -> Vec<(&'static str, Box<dyn Forecaster>)> {
    vec![
        ("last_value", Box::new(LastValue::new())),
        ("running_mean", Box::new(RunningMean::new())),
        ("sliding_mean_10", Box::new(SlidingMean::new(10))),
        ("sliding_mean_30", Box::new(SlidingMean::new(30))),
        ("adaptive_mean_5_64", Box::new(AdaptiveMean::new(5, 64))),
        ("trimmed_mean_20", Box::new(TrimmedMean::new(20, 0.2))),
        ("sliding_median_10", Box::new(SlidingMedian::new(10))),
        ("sliding_median_30", Box::new(SlidingMedian::new(30))),
        ("adaptive_median_5_64", Box::new(AdaptiveMedian::new(5, 64))),
        ("exp_smoothing_0.1", Box::new(ExpSmoothing::new(0.1))),
        ("exp_smoothing_0.5", Box::new(ExpSmoothing::new(0.5))),
        ("ar1_30", Box::new(Ar1Forecaster::new(30))),
    ]
}

fn bench_battery(c: &mut Criterion) {
    let mut rng = SimRng::seed_from_u64(3);
    let samples: Vec<f64> = (0..1000).map(|_| rng.normal(50.0, 10.0).abs()).collect();

    c.bench_function("nws/battery_update_1000", |b| {
        b.iter(|| {
            let mut meta = MetaForecaster::nws_battery();
            for &s in &samples {
                meta.update(s);
            }
            black_box(meta.forecast())
        });
    });

    let mut warmed = MetaForecaster::nws_battery();
    for &s in &samples {
        warmed.update(s);
    }
    c.bench_function("nws/forecast_query", |b| {
        b.iter(|| black_box(warmed.forecast()));
    });

    let mut next = samples.iter().copied().cycle();
    c.bench_function("nws/battery_update_warm", |b| {
        b.iter(|| {
            warmed.update(black_box(next.next().unwrap_or(50.0)));
            black_box(warmed.forecast())
        });
    });

    let members = battery_members();
    let names: Vec<&str> = members.iter().map(|(_, m)| m.name()).collect();
    let battery: Vec<&str> = warmed.scores().iter().map(|s| s.name).collect();
    assert_eq!(
        names, battery,
        "battery_members() drifted from nws_battery()"
    );
    for (label, mut member) in members {
        for &s in &samples {
            member.update(s);
        }
        let mut next = samples.iter().copied().cycle();
        c.bench_function(&format!("nws/member_update_warm/{label}"), |b| {
            b.iter(|| {
                member.update(black_box(next.next().unwrap_or(50.0)));
                black_box(member.forecast())
            });
        });
    }
}

criterion_group!(benches, bench_battery);
criterion_main!(benches);
