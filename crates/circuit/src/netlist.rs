//! Circuit netlist representation.
//!
//! A [`Circuit`] is a flat extracted parasitic network: named nodes tied
//! together by resistors, grounded capacitors, Thevenin drivers whose
//! target voltage steps at scheduled times, and ideal timed switches (the
//! abstraction for a transistor turning on, e.g. a read stack pulling a
//! precharged bitline low once the wordline arrives).
//!
//! Internal unit system: kΩ, fF, ps, V. These are mutually consistent —
//! conductances come out in mS, currents in mA, energies in fJ — so the
//! solver works on raw `f64`s without conversion factors.

use crate::error::CircuitError;
use lim_tech::units::{Femtofarads, KiloOhms, Picoseconds, Volts};

/// Identifier of a circuit node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

/// Identifier of a driver (Thevenin source).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SourceId(pub(crate) usize);

/// Identifier of a timed switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SwitchId(pub(crate) usize);

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Resistor {
    pub a: usize,
    pub b: usize,
    pub r: f64, // kΩ
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Source {
    pub node: usize,
    pub r_series: f64, // kΩ
    /// (time ps, target V) steps, kept sorted by time.
    pub events: Vec<(f64, f64)>,
    pub initial: f64,
}

impl Source {
    /// Target voltage at time `t`.
    pub fn target_at(&self, t: f64) -> f64 {
        let mut v = self.initial;
        for &(te, ve) in &self.events {
            if te <= t {
                v = ve;
            } else {
                break;
            }
        }
        v
    }
}

/// The two terminals a switch can connect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum SwitchTerminal {
    Node(usize),
    Ground,
}

/// What closes a switch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum SwitchControl {
    /// Closes at a fixed time, optionally opening again later.
    Timed { close: f64, open: Option<f64> },
    /// Closes (and latches closed) once a control node crosses a voltage
    /// threshold — the model of a transistor gated by an internal signal,
    /// e.g. a bitcell read stack enabled by its wordline.
    VoltageAbove { node: usize, threshold: f64 },
    /// Closes (and latches closed) once a control node falls below a
    /// voltage threshold — e.g. a sense inverter firing when its bitline
    /// has discharged far enough.
    VoltageBelow { node: usize, threshold: f64 },
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Switch {
    pub a: usize,
    pub b: SwitchTerminal,
    pub r_on: f64, // kΩ
    pub control: SwitchControl,
}

impl Switch {
    /// Closed-state decision for a timed switch; voltage-controlled
    /// switches are resolved by the solver, which owns the node voltages.
    pub fn is_closed_at(&self, t: f64) -> Option<bool> {
        match self.control {
            SwitchControl::Timed { close, open } => {
                Some(t >= close && open.is_none_or(|to| t < to))
            }
            SwitchControl::VoltageAbove { .. } | SwitchControl::VoltageBelow { .. } => None,
        }
    }
}

/// A flat RC network with drivers and timed switches.
///
/// Build with the `add_*` methods, then hand to
/// [`TransientSim`](crate::TransientSim).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Circuit {
    pub(crate) node_names: Vec<String>,
    /// Grounded capacitance per node, fF.
    pub(crate) caps: Vec<f64>,
    /// Initial node voltage, V.
    pub(crate) initial_v: Vec<f64>,
    pub(crate) resistors: Vec<Resistor>,
    pub(crate) sources: Vec<Source>,
    pub(crate) switches: Vec<Switch>,
}

impl Circuit {
    /// An empty circuit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Adds a node and returns its id. Nodes start at 0 V with no
    /// capacitance; attach elements with the other `add_*` methods.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        self.node_names.push(name.into());
        self.caps.push(0.0);
        self.initial_v.push(0.0);
        NodeId(self.node_names.len() - 1)
    }

    /// The name given to `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.node_names[node.0]
    }

    /// Adds grounded capacitance at `node` (accumulates).
    ///
    /// # Panics
    ///
    /// Panics if the capacitance is negative.
    pub fn add_cap(&mut self, node: NodeId, c: Femtofarads) {
        assert!(c.value() >= 0.0, "capacitance must be non-negative");
        self.caps[node.0] += c.value();
    }

    /// Sets the initial voltage of `node` (default 0 V). Use for
    /// precharged bitlines.
    pub fn set_initial(&mut self, node: NodeId, v: Volts) {
        self.initial_v[node.0] = v.value();
    }

    /// Adds a resistor between two nodes.
    ///
    /// # Panics
    ///
    /// Panics if the resistance is not strictly positive or `a == b`.
    pub fn add_resistor(&mut self, a: NodeId, b: NodeId, r: KiloOhms) {
        assert!(r.value() > 0.0, "resistance must be positive");
        assert_ne!(a, b, "resistor endpoints must differ");
        self.resistors.push(Resistor {
            a: a.0,
            b: b.0,
            r: r.value(),
        });
    }

    /// Adds a Thevenin driver at `node`: a voltage source of value
    /// `initial` behind `r_series`. Change its target over time with
    /// [`schedule`](Self::schedule).
    ///
    /// # Panics
    ///
    /// Panics if `r_series` is not strictly positive.
    pub fn add_source(&mut self, node: NodeId, r_series: KiloOhms, initial: Volts) -> SourceId {
        assert!(r_series.value() > 0.0, "source series resistance must be positive");
        self.sources.push(Source {
            node: node.0,
            r_series: r_series.value(),
            events: Vec::new(),
            initial: initial.value(),
        });
        SourceId(self.sources.len() - 1)
    }

    /// Schedules the driver's target voltage to step to `v` at time `t`.
    /// Events may be added in any order; they are kept sorted.
    pub fn schedule(&mut self, source: SourceId, t: Picoseconds, v: Volts) {
        let events = &mut self.sources[source.0].events;
        events.push((t.value(), v.value()));
        events.sort_by(|x, y| x.0.total_cmp(&y.0));
    }

    /// Adds an ideal switch from `a` to ground that closes at `close_time`
    /// with on-resistance `r_on`. Models a transistor (e.g. a bitcell read
    /// stack) turning on.
    ///
    /// # Panics
    ///
    /// Panics if `r_on` is not strictly positive.
    pub fn add_switch_to_ground(
        &mut self,
        a: NodeId,
        r_on: KiloOhms,
        close_time: Picoseconds,
    ) -> SwitchId {
        assert!(r_on.value() > 0.0, "switch on-resistance must be positive");
        self.switches.push(Switch {
            a: a.0,
            b: SwitchTerminal::Ground,
            r_on: r_on.value(),
            control: SwitchControl::Timed {
                close: close_time.value(),
                open: None,
            },
        });
        SwitchId(self.switches.len() - 1)
    }

    /// Adds a latching voltage-controlled switch from `a` to ground: it
    /// closes permanently once `control` rises above `threshold`.
    ///
    /// This models a pull-down transistor gated by an internal signal, e.g.
    /// a bitcell read stack enabled by its wordline.
    ///
    /// # Panics
    ///
    /// Panics if `r_on` is not strictly positive.
    pub fn add_vc_switch_to_ground(
        &mut self,
        a: NodeId,
        r_on: KiloOhms,
        control: NodeId,
        threshold: Volts,
    ) -> SwitchId {
        assert!(r_on.value() > 0.0, "switch on-resistance must be positive");
        self.switches.push(Switch {
            a: a.0,
            b: SwitchTerminal::Ground,
            r_on: r_on.value(),
            control: SwitchControl::VoltageAbove {
                node: control.0,
                threshold: threshold.value(),
            },
        });
        SwitchId(self.switches.len() - 1)
    }

    /// Adds a latching voltage-controlled switch from `a` to ground that
    /// closes once `control` falls below `threshold`.
    ///
    /// # Panics
    ///
    /// Panics if `r_on` is not strictly positive.
    pub fn add_vc_low_switch_to_ground(
        &mut self,
        a: NodeId,
        r_on: KiloOhms,
        control: NodeId,
        threshold: Volts,
    ) -> SwitchId {
        assert!(r_on.value() > 0.0, "switch on-resistance must be positive");
        self.switches.push(Switch {
            a: a.0,
            b: SwitchTerminal::Ground,
            r_on: r_on.value(),
            control: SwitchControl::VoltageBelow {
                node: control.0,
                threshold: threshold.value(),
            },
        });
        SwitchId(self.switches.len() - 1)
    }

    /// Adds an ideal switch between two nodes closing at `close_time`.
    ///
    /// # Panics
    ///
    /// Panics if `r_on` is not strictly positive or `a == b`.
    pub fn add_switch(
        &mut self,
        a: NodeId,
        b: NodeId,
        r_on: KiloOhms,
        close_time: Picoseconds,
    ) -> SwitchId {
        assert!(r_on.value() > 0.0, "switch on-resistance must be positive");
        assert_ne!(a, b, "switch endpoints must differ");
        self.switches.push(Switch {
            a: a.0,
            b: SwitchTerminal::Node(b.0),
            r_on: r_on.value(),
            control: SwitchControl::Timed {
                close: close_time.value(),
                open: None,
            },
        });
        SwitchId(self.switches.len() - 1)
    }

    /// Makes an existing timed switch open again at `t`.
    ///
    /// # Panics
    ///
    /// Panics if called on a voltage-controlled switch.
    pub fn open_at(&mut self, switch: SwitchId, t: Picoseconds) {
        match &mut self.switches[switch.0].control {
            SwitchControl::Timed { open, .. } => *open = Some(t.value()),
            SwitchControl::VoltageAbove { .. } | SwitchControl::VoltageBelow { .. } => {
                panic!("cannot schedule opening of a voltage-controlled switch")
            }
        }
    }

    /// Total grounded capacitance in the circuit.
    pub fn total_cap(&self) -> Femtofarads {
        Femtofarads::new(self.caps.iter().sum())
    }

    /// Grounded capacitance attached at `node`.
    pub fn cap_at(&self, node: NodeId) -> Femtofarads {
        Femtofarads::new(self.caps[node.0])
    }

    /// Validates node references and element values.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found.
    pub fn validate(&self) -> Result<(), CircuitError> {
        let n = self.node_count();
        for r in &self.resistors {
            if r.a >= n {
                return Err(CircuitError::UnknownNode(r.a));
            }
            if r.b >= n {
                return Err(CircuitError::UnknownNode(r.b));
            }
            if r.r <= 0.0 {
                return Err(CircuitError::NonPositiveValue {
                    element: "resistor",
                    value: r.r,
                });
            }
        }
        for s in &self.sources {
            if s.node >= n {
                return Err(CircuitError::UnknownNode(s.node));
            }
        }
        for sw in &self.switches {
            if sw.a >= n {
                return Err(CircuitError::UnknownNode(sw.a));
            }
            if let SwitchTerminal::Node(b) = sw.b {
                if b >= n {
                    return Err(CircuitError::UnknownNode(b));
                }
            }
            match sw.control {
                SwitchControl::VoltageAbove { node, .. }
                | SwitchControl::VoltageBelow { node, .. } => {
                    if node >= n {
                        return Err(CircuitError::UnknownNode(node));
                    }
                }
                SwitchControl::Timed { .. } => {}
            }
        }
        Ok(())
    }

    /// Times at which timed topology or drive changes occur: timed switch
    /// closures / openings and source steps. Sorted and deduplicated.
    /// (Voltage-controlled switches fire at solver-determined times and are
    /// not listed.)
    pub fn event_times(&self) -> Vec<f64> {
        let mut ts: Vec<f64> = self
            .switches
            .iter()
            .filter_map(|s| match s.control {
                SwitchControl::Timed { close, open } => Some((close, open)),
                SwitchControl::VoltageAbove { .. } | SwitchControl::VoltageBelow { .. } => None,
            })
            .flat_map(|(close, open)| std::iter::once(close).chain(open))
            .chain(self.sources.iter().flat_map(|s| s.events.iter().map(|e| e.0)))
            .collect();
        ts.sort_by(f64::total_cmp);
        ts.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        ts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_validate() {
        let mut c = Circuit::new();
        let a = c.add_node("a");
        let b = c.add_node("b");
        c.add_cap(b, Femtofarads::new(5.0));
        c.add_resistor(a, b, KiloOhms::new(2.0));
        let s = c.add_source(a, KiloOhms::new(0.5), Volts::ZERO);
        c.schedule(s, Picoseconds::new(10.0), Volts::new(1.2));
        c.add_switch_to_ground(b, KiloOhms::new(4.0), Picoseconds::new(50.0));
        assert_eq!(c.node_count(), 2);
        assert!(c.validate().is_ok());
        assert_eq!(c.node_name(a), "a");
        assert!((c.total_cap().value() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn source_target_steps_in_time_order() {
        let mut c = Circuit::new();
        let a = c.add_node("a");
        let s = c.add_source(a, KiloOhms::new(1.0), Volts::ZERO);
        // Schedule out of order.
        c.schedule(s, Picoseconds::new(20.0), Volts::new(0.6));
        c.schedule(s, Picoseconds::new(10.0), Volts::new(1.2));
        let src = &c.sources[0];
        assert_eq!(src.target_at(5.0), 0.0);
        assert_eq!(src.target_at(10.0), 1.2);
        assert_eq!(src.target_at(25.0), 0.6);
    }

    #[test]
    fn switch_open_close_window() {
        let sw = Switch {
            a: 0,
            b: SwitchTerminal::Ground,
            r_on: 1.0,
            control: SwitchControl::Timed {
                close: 10.0,
                open: Some(20.0),
            },
        };
        assert_eq!(sw.is_closed_at(5.0), Some(false));
        assert_eq!(sw.is_closed_at(10.0), Some(true));
        assert_eq!(sw.is_closed_at(19.9), Some(true));
        assert_eq!(sw.is_closed_at(20.0), Some(false));
    }

    #[test]
    fn vc_switch_defers_to_solver() {
        let mut c = Circuit::new();
        let a = c.add_node("a");
        let ctrl = c.add_node("wl");
        c.add_vc_switch_to_ground(a, KiloOhms::new(2.0), ctrl, Volts::new(0.6));
        assert_eq!(c.switches[0].is_closed_at(100.0), None);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn event_times_sorted_unique() {
        let mut c = Circuit::new();
        let a = c.add_node("a");
        let s = c.add_source(a, KiloOhms::new(1.0), Volts::ZERO);
        c.schedule(s, Picoseconds::new(30.0), Volts::new(1.2));
        let sw = c.add_switch_to_ground(a, KiloOhms::new(1.0), Picoseconds::new(30.0));
        c.open_at(sw, Picoseconds::new(60.0));
        assert_eq!(c.event_times(), vec![30.0, 60.0]);
    }

    #[test]
    #[should_panic(expected = "resistance must be positive")]
    fn zero_resistor_panics() {
        let mut c = Circuit::new();
        let a = c.add_node("a");
        let b = c.add_node("b");
        c.add_resistor(a, b, KiloOhms::ZERO);
    }
}
