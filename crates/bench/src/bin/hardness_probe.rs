//! Calibration helper: times the muldirect/- baseline and the paper-best
//! strategy on specific candidate configurations at W = clique - 1.
//! Not a paper artifact.

use std::io::Write as _;
use std::time::Instant;

use satroute_core::Strategy;
use satroute_fpga::{Architecture, GlobalRouter, Netlist, RoutingProblem};
use satroute_solver::RunBudget;

fn main() {
    let budget: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5_000_000);
    let budget = RunBudget::new().with_max_conflicts(budget);
    // (grid, nets, seed, expected clique)
    let candidates: &[(u16, usize, u64, usize)] = &[
        (5, 24, 0x5EED_0000, 7),
        (5, 24, 0x5EED_0002, 8),
        (6, 30, 0x5EED_0003, 8),
        (5, 30, 0x5EED_0002, 9),
        (7, 42, 0x5EED_0002, 9),
        (5, 30, 0x5EED_0001, 10),
        (7, 56, 0x5EED_0001, 10),
        (5, 30, 0x5EED_0000, 11),
        (6, 36, 0x5EED_0000, 12),
    ];
    for &(side, nets, seed, expect) in candidates {
        let arch = Architecture::new(side, side).unwrap();
        let netlist = Netlist::random(&arch, nets, 2..=4, seed).unwrap();
        let routing = GlobalRouter::new()
            .with_ripup_passes(0)
            .with_congestion_weight(0)
            .route(&arch, &netlist)
            .unwrap();
        let problem = RoutingProblem::new(arch, netlist, routing);
        let g = problem.conflict_graph();
        let clique = g.greedy_clique().len();
        assert_eq!(
            clique, expect,
            "clique drifted for {side}x{side}/{nets}/{seed:#x}"
        );
        let w = clique as u32 - 1;

        print!("{side}x{side}/{nets} clique={clique} W={w}: ");
        std::io::stdout().flush().ok();
        let t = Instant::now();
        let r = Strategy::paper_baseline().solve(&g, w).budget(budget).run();
        let base = t.elapsed();
        let t = Instant::now();
        let r2 = Strategy::paper_best().solve(&g, w).budget(budget).run();
        let best = t.elapsed();
        println!(
            "base {:.2}s{} ({} conf), best {:.2}s{} ({} conf)",
            base.as_secs_f64(),
            if r.outcome.is_decided() { "" } else { "?" },
            r.solver_stats.conflicts,
            best.as_secs_f64(),
            if r2.outcome.is_decided() { "" } else { "?" },
            r2.solver_stats.conflicts,
        );
    }
}
