//! RPC priority classes and their mapping to network QoS levels.


/// Application-level RPC priority class (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Priority {
    /// Performance-critical: tail-latency SLOs (user-facing, control traffic).
    PerformanceCritical,
    /// Non-critical: cares about sustained rate; looser tail SLOs.
    NonCritical,
    /// Best-effort: scavenger class, no SLOs (backups, analytics).
    BestEffort,
}

impl Priority {
    /// All priorities from most to least critical.
    pub const ALL: [Priority; 3] = [
        Priority::PerformanceCritical,
        Priority::NonCritical,
        Priority::BestEffort,
    ];

    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            Priority::PerformanceCritical => "PC",
            Priority::NonCritical => "NC",
            Priority::BestEffort => "BE",
        }
    }
}

/// A network QoS level: an index into the switch WFQ classes, `0` being the
/// highest-weight queue. Values are small (the paper notes switches support
/// ~10 WFQs per port).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default,
)]
pub struct QosClass(pub u8);

impl QosClass {
    /// The conventional 3-level naming of the paper.
    pub const HIGH: QosClass = QosClass(0);
    /// Medium QoS.
    pub const MEDIUM: QosClass = QosClass(1);
    /// Low / scavenger QoS.
    pub const LOW: QosClass = QosClass(2);

    /// Index into per-QoS arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Label like "QoSh"/"QoSm"/"QoSl" for 3-level setups, or `QoS<i>`.
    pub fn label(self, levels: usize) -> String {
        if levels == 3 {
            match self.0 {
                0 => "QoSh".to_string(),
                1 => "QoSm".to_string(),
                _ => "QoSl".to_string(),
            }
        } else if levels == 2 {
            match self.0 {
                0 => "QoSh".to_string(),
                _ => "QoSl".to_string(),
            }
        } else {
            format!("QoS{}", self.0)
        }
    }
}

/// Phase 1 of Aequitas: the bijective map between RPC priorities and QoS
/// levels (PC→QoSh, NC→QoSm, BE→QoSl for 3 levels).
///
/// A `QosMapping` also knows the total number of QoS levels and which level
/// is the scavenger (lowest), where downgraded traffic lands.
#[derive(Debug, Clone)]
pub struct QosMapping {
    levels: usize,
}

impl QosMapping {
    /// Standard 3-level mapping.
    pub fn three_level() -> Self {
        QosMapping { levels: 3 }
    }

    /// Two-level mapping (PC→QoSh, everything else→QoSl), used by the 2-QoS
    /// microbenchmarks.
    pub fn two_level() -> Self {
        QosMapping { levels: 2 }
    }

    /// Number of QoS levels.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// The scavenger class (lowest QoS): downgraded and best-effort traffic.
    pub fn lowest(&self) -> QosClass {
        QosClass((self.levels - 1) as u8)
    }

    /// Map an RPC priority to its requested QoS class (Algorithm 1's
    /// `MapPriorityToQoS`).
    pub fn qos_for(&self, priority: Priority) -> QosClass {
        match (self.levels, priority) {
            (2, Priority::PerformanceCritical) => QosClass::HIGH,
            (2, _) => QosClass(1),
            (_, Priority::PerformanceCritical) => QosClass::HIGH,
            (_, Priority::NonCritical) => QosClass::MEDIUM,
            (_, Priority::BestEffort) => self.lowest(),
        }
    }

    /// Whether a QoS level carries an SLO: every level except the scavenger.
    pub fn has_slo(&self, qos: QosClass) -> bool {
        qos != self.lowest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_level_bijection() {
        let m = QosMapping::three_level();
        assert_eq!(m.qos_for(Priority::PerformanceCritical), QosClass::HIGH);
        assert_eq!(m.qos_for(Priority::NonCritical), QosClass::MEDIUM);
        assert_eq!(m.qos_for(Priority::BestEffort), QosClass::LOW);
        assert_eq!(m.lowest(), QosClass::LOW);
    }

    #[test]
    fn two_level_collapses_nc_be() {
        let m = QosMapping::two_level();
        assert_eq!(m.qos_for(Priority::PerformanceCritical), QosClass::HIGH);
        assert_eq!(m.qos_for(Priority::NonCritical), QosClass(1));
        assert_eq!(m.qos_for(Priority::BestEffort), QosClass(1));
        assert_eq!(m.lowest(), QosClass(1));
    }

    #[test]
    fn slo_only_above_scavenger() {
        let m = QosMapping::three_level();
        assert!(m.has_slo(QosClass::HIGH));
        assert!(m.has_slo(QosClass::MEDIUM));
        assert!(!m.has_slo(QosClass::LOW));
    }

    #[test]
    fn labels() {
        assert_eq!(QosClass::HIGH.label(3), "QoSh");
        assert_eq!(QosClass::MEDIUM.label(3), "QoSm");
        assert_eq!(QosClass::LOW.label(3), "QoSl");
        assert_eq!(QosClass(1).label(2), "QoSl");
        assert_eq!(QosClass(4).label(8), "QoS4");
        assert_eq!(Priority::PerformanceCritical.label(), "PC");
    }
}
