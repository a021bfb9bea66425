//! Robustness budgeting with the exact tests: because the dynamic-error and
//! all-approximated tests are cheap, they can be run inside search loops to
//! answer design questions —
//!
//! * how much can every execution time grow before the system breaks
//!   (breakdown scaling)?
//! * how much can each *individual* task grow (per-task WCET slack)?
//! * how much context-switch overhead can the platform impose before the
//!   guarantees disappear?
//!
//! Run with `cargo run --example robustness_budget`.

use edf_feasibility::{
    breakdown_scaling, wcet_slack, AllApproximatedTest, FeasibilityTest, Task, TaskError, TaskSet,
    Time,
};

fn control_unit() -> Result<TaskSet, TaskError> {
    Ok(TaskSet::from_tasks(vec![
        Task::new(Time::new(120), Time::new(800), Time::new(1_000))?.named("current_loop"),
        Task::new(Time::new(250), Time::new(1_800), Time::new(2_000))?.named("speed_loop"),
        Task::new(Time::new(400), Time::new(4_500), Time::new(5_000))?.named("position_loop"),
        Task::new(Time::new(700), Time::new(9_000), Time::new(10_000))?.named("trajectory"),
        Task::new(Time::new(1_500), Time::new(45_000), Time::new(50_000))?.named("supervisor"),
        Task::new(Time::new(5_000), Time::new(90_000), Time::new(100_000))?.named("logging"),
    ]))
}

fn main() -> Result<(), TaskError> {
    let ts = control_unit()?;
    println!(
        "motor control unit: {} tasks, U = {:.3}",
        ts.len(),
        ts.utilization()
    );
    println!();

    // 1. Global breakdown scaling.
    let exact = AllApproximatedTest::new();
    let breakdown = breakdown_scaling(&ts, &exact).expect("the nominal system is feasible");
    println!(
        "breakdown scaling: every WCET can grow by {:.1}% (U reaches {:.3}, {} exact-test probes)",
        (breakdown.factor - 1.0) * 100.0,
        breakdown.utilization_at_breakdown,
        breakdown.probes
    );
    println!();

    // 2. Per-task WCET slack.
    println!(
        "{:<16} {:>10} {:>14} {:>12}",
        "task", "WCET", "slack (ticks)", "headroom"
    );
    for (index, task) in ts.iter().enumerate() {
        let slack = wcet_slack(&ts, index, &exact).expect("feasible system");
        println!(
            "{:<16} {:>10} {:>14} {:>11.0}%",
            task.name().unwrap_or("?"),
            task.wcet(),
            slack,
            100.0 * slack.as_f64() / task.wcet().as_f64()
        );
    }
    println!();

    // 3. Context-switch overhead budget: largest per-switch cost (in ticks)
    //    the platform may impose while the system stays feasible.
    let mut budget = Time::ZERO;
    for candidate in 1..=2_000u64 {
        let candidate = Time::new(candidate);
        match ts.with_context_switch_overhead(candidate) {
            Ok(inflated) if exact.analyze(&inflated).verdict.is_feasible() => budget = candidate,
            _ => break,
        }
    }
    println!("context-switch budget: up to {budget} ticks per switch keep every deadline");
    let at_budget = ts.with_context_switch_overhead(budget)?;
    println!(
        "at that budget the utilization rises from {:.3} to {:.3}",
        ts.utilization(),
        at_budget.utilization()
    );

    Ok(())
}
