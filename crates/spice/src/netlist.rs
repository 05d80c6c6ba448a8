//! Netlist construction: named nodes and circuit elements.

use std::collections::BTreeMap;

use samurai_waveform::Pwl;

use crate::{MosfetParams, SpiceError};

/// A circuit node. `Circuit::GROUND` is the reference node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Index of this node's voltage among the MNA unknowns (and in
    /// [`DcConfig::initial_guess`](crate::DcConfig)), or `None` for
    /// ground.
    pub fn unknown_index(self) -> Option<usize> {
        self.0.checked_sub(1)
    }

    /// Reconstructs a node id from a 1-based creation index. Intended
    /// for tooling that iterates over all nodes of a circuit (e.g. the
    /// CLI); indices beyond [`Circuit::node_count`] are not valid.
    #[doc(hidden)]
    pub fn from_index_for_cli(index: usize) -> Self {
        NodeId(index)
    }
}

/// Identifies an element within its [`Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ElementId(pub(crate) usize);

/// The value of an independent source.
#[derive(Debug, Clone, PartialEq)]
pub enum Source {
    /// A constant value (volts or amperes).
    Dc(f64),
    /// A piecewise-linear waveform of time.
    Pwl(Pwl),
}

impl Source {
    /// The source value at time `t`.
    pub fn eval(&self, t: f64) -> f64 {
        match self {
            Self::Dc(v) => *v,
            Self::Pwl(w) => w.eval(t),
        }
    }
}

/// One circuit element.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Element {
    Resistor {
        a: NodeId,
        b: NodeId,
        conductance: f64,
    },
    Capacitor {
        a: NodeId,
        b: NodeId,
        capacitance: f64,
    },
    /// Voltage source from `plus` to `minus`; `branch` indexes its
    /// current unknown.
    Vsource {
        plus: NodeId,
        minus: NodeId,
        source: Source,
        branch: usize,
    },
    /// Current source driving current out of `from` and into `to`.
    Isource {
        from: NodeId,
        to: NodeId,
        source: Source,
    },
    Mosfet {
        d: NodeId,
        g: NodeId,
        s: NodeId,
        params: MosfetParams,
    },
}

/// A circuit under construction (and the static description consumed
/// by the solvers).
///
/// # Examples
///
/// ```
/// use samurai_spice::{Circuit, Source};
///
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// ckt.vsource(a, Circuit::GROUND, Source::Dc(1.0));
/// ckt.resistor(a, Circuit::GROUND, 1e3);
/// assert_eq!(ckt.node_count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    names: BTreeMap<String, NodeId>,
    node_count: usize,
    pub(crate) elements: Vec<Element>,
    pub(crate) vsource_count: usize,
    /// Minimum conductance from every node to ground (numerical
    /// safety net); set to 0 to disable.
    pub gmin: f64,
}

impl Circuit {
    /// The reference (ground) node.
    pub const GROUND: NodeId = NodeId(0);

    /// Creates an empty circuit with the default `gmin` of 1e-12 S.
    pub fn new() -> Self {
        Self {
            gmin: 1e-12,
            ..Self::default()
        }
    }

    /// Returns the node with the given name, creating it on first use.
    /// The name `"0"` and `"gnd"` map to ground.
    pub fn node(&mut self, name: &str) -> NodeId {
        if name == "0" || name.eq_ignore_ascii_case("gnd") {
            return Self::GROUND;
        }
        if let Some(&id) = self.names.get(name) {
            return id;
        }
        self.node_count += 1;
        let id = NodeId(self.node_count);
        self.names.insert(name.to_owned(), id);
        id
    }

    /// Looks up an existing node by name.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownNode`] if no such node exists.
    pub fn find_node(&self, name: &str) -> Result<NodeId, SpiceError> {
        if name == "0" || name.eq_ignore_ascii_case("gnd") {
            return Ok(Self::GROUND);
        }
        self.names
            .get(name)
            .copied()
            .ok_or_else(|| SpiceError::UnknownNode { name: name.into() })
    }

    /// Name of a node (ground reports `"0"`).
    pub fn node_name(&self, id: NodeId) -> &str {
        if id == Self::GROUND {
            return "0";
        }
        self.names
            .iter()
            .find(|(_, &n)| n == id)
            .map(|(name, _)| name.as_str())
            .unwrap_or("?")
    }

    /// Number of non-ground nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of MNA unknowns (node voltages + source branch currents).
    pub fn unknown_count(&self) -> usize {
        self.node_count + self.vsource_count
    }

    /// Number of elements.
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    /// Human-readable names of the MNA unknowns, in unknown order:
    /// node voltages first (by [`NodeId::unknown_index`]), then one
    /// `i(v<branch>)` label per voltage-source branch current. Used at
    /// reporting boundaries to resolve the unknown *index* carried by
    /// [`SpiceError::SingularMatrix`] into a name.
    pub fn unknown_names(&self) -> Vec<String> {
        let mut names = vec![String::new(); self.unknown_count()];
        for (name, &id) in &self.names {
            if let Some(i) = id.unknown_index() {
                names[i].clone_from(name);
            }
        }
        for e in &self.elements {
            if let Element::Vsource { branch, .. } = e {
                names[self.node_count + branch] = format!("i(v{branch})");
            }
        }
        names
    }

    /// Adds a resistor of `ohms` between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `ohms` is not positive and finite.
    pub fn resistor(&mut self, a: NodeId, b: NodeId, ohms: f64) -> ElementId {
        assert!(
            ohms > 0.0 && ohms.is_finite(),
            "resistance must be positive"
        );
        self.push(Element::Resistor {
            a,
            b,
            conductance: 1.0 / ohms,
        })
    }

    /// Adds a capacitor of `farads` between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `farads` is not positive and finite.
    pub fn capacitor(&mut self, a: NodeId, b: NodeId, farads: f64) -> ElementId {
        assert!(
            farads > 0.0 && farads.is_finite(),
            "capacitance must be positive"
        );
        self.push(Element::Capacitor {
            a,
            b,
            capacitance: farads,
        })
    }

    /// Adds a voltage source with `plus`/`minus` terminals.
    pub fn vsource(&mut self, plus: NodeId, minus: NodeId, source: Source) -> ElementId {
        let branch = self.vsource_count;
        self.vsource_count += 1;
        self.push(Element::Vsource {
            plus,
            minus,
            source,
            branch,
        })
    }

    /// Adds a current source driving current out of `from` and into
    /// `to` (through the external circuit the current returns
    /// `to → from`).
    pub fn isource(&mut self, from: NodeId, to: NodeId, source: Source) -> ElementId {
        self.push(Element::Isource { from, to, source })
    }

    /// Adds a MOSFET with drain/gate/source terminals (bulk is tied to
    /// ground for NMOS and implicitly to the source rail for PMOS in
    /// this simplified model).
    pub fn mosfet(&mut self, d: NodeId, g: NodeId, s: NodeId, params: MosfetParams) -> ElementId {
        self.push(Element::Mosfet { d, g, s, params })
    }

    /// Replaces the waveform of an existing voltage or current source
    /// (used by the SRAM harness to attach RTN currents between the
    /// two passes, and by the coupled simulator each step).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidElement`] if `id` does not refer to
    /// a source.
    pub fn set_source(&mut self, id: ElementId, new_source: Source) -> Result<(), SpiceError> {
        match self.elements.get_mut(id.0) {
            Some(Element::Vsource { source, .. }) | Some(Element::Isource { source, .. }) => {
                *source = new_source;
                Ok(())
            }
            _ => Err(SpiceError::InvalidElement {
                reason: "set_source requires a voltage or current source id",
            }),
        }
    }

    /// The MOSFET parameters of element `id`.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidElement`] if `id` is not a MOSFET.
    pub fn mosfet_params(&self, id: ElementId) -> Result<&MosfetParams, SpiceError> {
        match self.elements.get(id.0) {
            Some(Element::Mosfet { params, .. }) => Ok(params),
            _ => Err(SpiceError::InvalidElement {
                reason: "expected a MOSFET element id",
            }),
        }
    }

    /// The `(drain, gate, source)` nodes of MOSFET `id`.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidElement`] if `id` is not a MOSFET.
    pub fn mosfet_nodes(&self, id: ElementId) -> Result<(NodeId, NodeId, NodeId), SpiceError> {
        match self.elements.get(id.0) {
            Some(Element::Mosfet { d, g, s, .. }) => Ok((*d, *g, *s)),
            _ => Err(SpiceError::InvalidElement {
                reason: "expected a MOSFET element id",
            }),
        }
    }

    fn push(&mut self, e: Element) -> ElementId {
        self.elements.push(e);
        ElementId(self.elements.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_interning() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let a2 = c.node("a");
        let b = c.node("b");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(c.node("gnd"), Circuit::GROUND);
        assert_eq!(c.node("0"), Circuit::GROUND);
        assert_eq!(c.node_count(), 2);
        assert_eq!(c.find_node("a").unwrap(), a);
        assert!(c.find_node("zzz").is_err());
        assert_eq!(c.node_name(a), "a");
        assert_eq!(c.node_name(Circuit::GROUND), "0");
    }

    #[test]
    fn unknown_count_includes_vsource_branches() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource(a, Circuit::GROUND, Source::Dc(1.0));
        c.resistor(a, b, 1e3);
        c.capacitor(b, Circuit::GROUND, 1e-12);
        assert_eq!(c.unknown_count(), 3);
        assert_eq!(c.element_count(), 3);
    }

    #[test]
    fn set_source_only_accepts_sources() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let r = c.resistor(a, Circuit::GROUND, 1.0);
        let v = c.vsource(a, Circuit::GROUND, Source::Dc(0.0));
        assert!(c.set_source(r, Source::Dc(1.0)).is_err());
        assert!(c.set_source(v, Source::Dc(2.0)).is_ok());
    }

    #[test]
    fn mosfet_accessors() {
        let mut c = Circuit::new();
        let d = c.node("d");
        let g = c.node("g");
        let m = c.mosfet(d, g, Circuit::GROUND, MosfetParams::nmos_90nm(1.0));
        assert_eq!(c.mosfet_nodes(m).unwrap(), (d, g, Circuit::GROUND));
        assert!(c.mosfet_params(m).is_ok());
        let r = c.resistor(d, g, 1.0);
        assert!(c.mosfet_params(r).is_err());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_resistance_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor(a, Circuit::GROUND, 0.0);
    }
}
