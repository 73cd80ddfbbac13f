//! Island-style FPGA substrate for the `satroute` workspace.
//!
//! The reproduced paper (Velev & Gao, DATE 2008) evaluates SAT encodings on
//! detailed-routing problems derived from the MCNC benchmarks and the global
//! routings shipped with the SEGA-1.1 router. Neither resource is available
//! here, so this crate builds the equivalent substrate from scratch:
//!
//! * [`Architecture`] — an island-style FPGA: a grid of logic blocks,
//!   horizontal/vertical routing channels of `W` tracks, connection blocks
//!   at each channel segment and track-preserving ("subset") switch blocks,
//! * [`Netlist`] / [`Net`] — multi-pin nets over logic-block pins, plus a
//!   seeded random netlist generator,
//! * [`decompose`] — decomposition of multi-pin nets into 2-pin subnets
//!   (paper §2),
//! * [`GlobalRouter`] — a congestion-negotiating maze router that produces
//!   one coarse path per 2-pin subnet (the role SEGA's global routings play
//!   in the paper),
//! * [`RoutingProblem`] — the bundle handed to the SAT flow: it extracts the
//!   track-exclusivity [`CspGraph`](satroute_coloring::CspGraph) and
//!   verifies detailed routings,
//! * [`benchmarks`] — a deterministic suite named after the paper's eight
//!   circuits (`alu2` … `k2`), scaled so the SAT instances span the same
//!   easy→hard range,
//! * [`BlameReport`] — a net-level UNSAT core mapped back onto nets and
//!   contested channel segments, with the lower bounds it witnesses.
//!
//! # Examples
//!
//! ```
//! use satroute_fpga::{Architecture, GlobalRouter, Netlist, RoutingProblem};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let arch = Architecture::new(4, 4)?;
//! let netlist = Netlist::random(&arch, 8, 2..=3, 0xFEED)?;
//! let routing = GlobalRouter::new().route(&arch, &netlist)?;
//! let problem = RoutingProblem::new(arch, netlist, routing);
//! let graph = problem.conflict_graph();
//! assert_eq!(graph.num_vertices(), problem.num_subnets());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arch;
mod blame;
mod netlist;
mod problem;
mod route;
mod subnet;

pub mod benchmarks;
pub mod io;

pub use arch::{ArchError, Architecture, Segment, Side};
pub use blame::{BlameReport, ChannelBlame, NetBlame};
pub use netlist::{Net, NetId, Netlist, NetlistError, Terminal};
pub use problem::{DetailedRouting, RoutingProblem, VerifyError};
pub use route::{GlobalRouter, GlobalRouting, RouteError, SubnetRoute};
pub use subnet::{decompose, Subnet};
