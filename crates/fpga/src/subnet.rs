//! Decomposition of multi-pin nets into 2-pin subnets (paper §2).
//!
//! "Each multi-pin net is decomposed into a collection of 2-pin nets" —
//! the CSP variables of the coloring problem. Every net becomes a star:
//! one subnet from its source to each sink (what SEGA-style flows use for
//! timing-driven routing).

use std::fmt;

use crate::{NetId, Netlist, Terminal};

/// A 2-pin net: one source terminal, one sink terminal, and the multi-pin
/// net it came from. Subnets of the *same* parent net never conflict with
/// each other (they may share tracks); subnets of different parents must not
/// share a track in any common connection block.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Subnet {
    /// Parent multi-pin net.
    pub net: NetId,
    /// Source terminal.
    pub from: Terminal,
    /// Sink terminal.
    pub to: Terminal,
}

impl fmt::Display for Subnet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}→{}", self.net, self.from, self.to)
    }
}

/// Decomposes every net of `netlist` into 2-pin subnets, one from the
/// net's source to each of its sinks.
///
/// The returned order is deterministic: nets in id order, and within a net,
/// sinks in their declared order.
///
/// # Examples
///
/// ```
/// use satroute_fpga::{decompose, Architecture, Netlist};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let arch = Architecture::new(4, 4)?;
/// let netlist = Netlist::random(&arch, 5, 3..=3, 1)?;
/// let subnets = decompose(&netlist);
/// // A 3-terminal net yields 2 subnets.
/// assert_eq!(subnets.len(), 10);
/// # Ok(())
/// # }
/// ```
pub fn decompose(netlist: &Netlist) -> Vec<Subnet> {
    let mut subnets = Vec::with_capacity(netlist.num_terminals());
    for (id, net) in netlist.iter() {
        for &sink in net.sinks() {
            subnets.push(Subnet {
                net: id,
                from: net.source(),
                to: sink,
            });
        }
    }
    subnets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Architecture, Net, Side};

    fn t(x: u16, y: u16, side: Side) -> Terminal {
        Terminal { x, y, side }
    }

    fn three_pin_netlist() -> Netlist {
        let arch = Architecture::new(5, 5).unwrap();
        let net = Net::new(vec![
            t(0, 0, Side::East),
            t(4, 0, Side::West),
            t(0, 4, Side::South),
        ])
        .unwrap();
        Netlist::new(&arch, vec![net]).unwrap()
    }

    #[test]
    fn star_uses_driver_as_source_everywhere() {
        let nl = three_pin_netlist();
        let subnets = decompose(&nl);
        assert_eq!(subnets.len(), 2);
        for s in &subnets {
            assert_eq!(s.from, t(0, 0, Side::East));
            assert_eq!(s.net, NetId(0));
        }
    }

    #[test]
    fn subnet_count_is_terminals_minus_one_per_net() {
        let arch = Architecture::new(6, 6).unwrap();
        let nl = Netlist::random(&arch, 8, 2..=5, 5).unwrap();
        let subnets = decompose(&nl);
        let expected: usize = nl.iter().map(|(_, n)| n.num_terminals() - 1).sum();
        assert_eq!(subnets.len(), expected);
    }
}
