//! Parallel portfolios (paper §6): run several (encoding, symmetry)
//! strategies on different cores, take the first answer, cancel the rest.
//!
//! Run with: `cargo run --release --example portfolio`

use std::time::Instant;

use satroute::core::{run_portfolio, PortfolioOptions, RunContext, Strategy};
use satroute::fpga::benchmarks;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("paper 3-strategy portfolio:");
    for s in Strategy::paper_portfolio_3() {
        println!("  - {s}");
    }
    println!();

    for instance in benchmarks::suite_tiny() {
        let width = instance.unroutable_width;
        if width == 0 {
            continue;
        }

        // Best single strategy, sequentially.
        let single_start = Instant::now();
        let single = Strategy::paper_best().solve_coloring(&instance.conflict_graph, width);
        let single_time = single_start.elapsed();
        assert!(!single.outcome.is_colorable());

        // The portfolio in parallel.
        let portfolio = Strategy::paper_portfolio_3();
        let result = run_portfolio(
            &instance.conflict_graph,
            width,
            &portfolio,
            &RunContext::default(),
            &PortfolioOptions::default(),
        );
        let winner = result
            .strategy()
            .expect("portfolio decides without a budget");

        println!(
            "{:>8} @ W={width}: single {:>8.3}s | portfolio {:>8.3}s, won by {}",
            instance.name,
            single_time.as_secs_f64(),
            result.wall_time.as_secs_f64(),
            winner,
        );
        // Losing members keep their partial work counters.
        for member in &result.members {
            println!(
                "           {:<28} {:>9} conflicts{}",
                member.strategy.to_string(),
                member.report.solver_stats.conflicts,
                match member.stop_reason() {
                    Some(reason) => format!(" (stopped: {reason})"),
                    None => String::new(),
                },
            );
        }
    }

    println!("\n(The paper reports 1.84x / 2.30x additional speedup from 2-/3-strategy");
    println!(" portfolios on the full-size unroutable benchmarks; run");
    println!(" `satroute bench run --suite portfolio` for that.)");
    Ok(())
}
