//! The benchmark's driver, given the Fig. 2 and Fig. 3 settings, must
//! reproduce the figure runners' reports exactly: it schedules the same
//! injections in the same order through the public API, so any drift here
//! means the benchmark measures something other than the figures.

use gpunion_core::{attribute_displacements, run_fig2, run_fig3, Fig2Report, Fig3Report};
use gpunion_des::SimDuration;
use gpunion_e2e_bench::driver::{run_baseline, run_traced, Run};
use gpunion_e2e_bench::outcomes::Outcomes;
use gpunion_e2e_bench::workloads::{campus_trace, provider_churn, Workload};

#[test]
fn driver_reproduces_fig2() {
    let (weeks, seed) = (1, 42);
    let inputs = campus_trace(seed, 7 * weeks);
    let mut run = Run::setup(&inputs, false);
    run.run_sliced();
    let manual = run_baseline(&inputs).expect("campus_trace runs the manual baseline");
    let end = run.end;
    let per_server = run
        .world
        .utilization_by_host(end)
        .into_iter()
        .enumerate()
        .map(|(i, (_, name, util))| {
            let manual_util = manual.per_host_utilization.get(i).copied().unwrap_or(0.0);
            (name, manual_util, util)
        })
        .collect();
    let ours = Fig2Report {
        per_server,
        manual_mean: manual.mean_utilization,
        gpunion_mean: run.world.mean_utilization(end),
        sessions_manual: manual.sessions_served,
        sessions_gpunion: run.world.stats.sessions_served,
    };
    assert_eq!(format!("{ours:?}"), format!("{:?}", run_fig2(weeks, seed)));
}

#[test]
fn driver_reproduces_fig3() {
    let (days, rate, seed) = (7, 1.5, 42);
    let inputs = provider_churn(seed, days, rate);
    let mut run = Run::setup(&inputs, false);
    run.run_sliced();
    let [scheduled, emergency, temporary] = attribute_displacements(
        &run.injected,
        &run.world.stats,
        run.end,
        SimDuration::from_mins(10),
        SimDuration::from_mins(30),
    );
    let ours = Fig3Report {
        scheduled,
        emergency,
        temporary,
        jobs_completed: run.world.stats.jobs_completed,
        jobs_total: inputs.trace.len(),
    };
    assert_eq!(
        format!("{ours:?}"),
        format!("{:?}", run_fig3(days, rate, seed))
    );
}

/// Stepping under the tracer must simulate exactly what `run_until` does.
#[test]
fn traced_run_matches_untraced() {
    let inputs = provider_churn(7, 2, 3.2);
    let mut plain = Run::setup(&inputs, false);
    plain.run_sliced();
    let mut traced = Run::setup(&inputs, true);
    let t = run_traced(&mut traced);
    let a = Outcomes::measure(&inputs, &mut plain, None);
    let b = Outcomes::measure(&inputs, &mut traced, None);
    assert!(a.problems.is_empty(), "{:?}", a.problems);
    assert_eq!(a.fingerprint, b.fingerprint);
    assert_eq!(a.counters, b.counters);
    assert_eq!(t.steps, a.counters.des_events);
    assert_eq!(t.fired.iter().sum::<u64>(), t.steps);
}

#[test]
fn workloads_are_seeded() {
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
    let a = provider_churn(1, 3, 3.2);
    let b = provider_churn(1, 3, 3.2);
    let c = provider_churn(2, 3, 3.2);
    assert_eq!(
        format!("{:?}", a.interruptions),
        format!("{:?}", b.interruptions)
    );
    assert_ne!(
        format!("{:?}", a.interruptions),
        format!("{:?}", c.interruptions)
    );
}
