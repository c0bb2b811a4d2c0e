//! Round and message accounting.

use std::fmt;

/// Cumulative statistics of a [`Network`](crate::Network) execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Number of synchronized communication rounds executed.
    pub rounds: u64,
    /// Total messages delivered.
    pub messages: u64,
    /// Total payload volume in bytes (a `size_of`-based estimate; the
    /// paper does not bound message size, this is reported for interest).
    pub payload_bytes: u64,
}

impl NetworkStats {
    /// Merges statistics of a *sequential* phase executed after `self`.
    pub fn then(self, later: NetworkStats) -> NetworkStats {
        NetworkStats {
            rounds: self.rounds + later.rounds,
            messages: self.messages + later.messages,
            payload_bytes: self.payload_bytes + later.payload_bytes,
        }
    }

    /// Merges statistics of phases executed *in parallel on disjoint
    /// subgraphs*: rounds take the maximum (the LOCAL model runs them
    /// simultaneously), messages and payload add.
    pub fn in_parallel(phases: impl IntoIterator<Item = NetworkStats>) -> NetworkStats {
        let mut out = NetworkStats::default();
        for p in phases {
            out.rounds = out.rounds.max(p.rounds);
            out.messages += p.messages;
            out.payload_bytes += p.payload_bytes;
        }
        out
    }
}

impl fmt::Display for NetworkStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rounds, {} messages, {} payload bytes",
            self.rounds, self.messages, self.payload_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_sequential_composition() {
        let a = NetworkStats {
            rounds: 3,
            messages: 10,
            payload_bytes: 40,
        };
        let b = NetworkStats {
            rounds: 2,
            messages: 5,
            payload_bytes: 20,
        };
        assert_eq!(
            a.then(b),
            NetworkStats {
                rounds: 5,
                messages: 15,
                payload_bytes: 60
            }
        );
    }

    #[test]
    fn stats_parallel_composition_takes_max_rounds() {
        let a = NetworkStats {
            rounds: 3,
            messages: 10,
            payload_bytes: 40,
        };
        let b = NetworkStats {
            rounds: 7,
            messages: 5,
            payload_bytes: 20,
        };
        let p = NetworkStats::in_parallel([a, b]);
        assert_eq!(p.rounds, 7);
        assert_eq!(p.messages, 15);
    }

    #[test]
    fn display_formats() {
        let s = NetworkStats {
            rounds: 1,
            messages: 2,
            payload_bytes: 3,
        }
        .to_string();
        assert_eq!(s, "1 rounds, 2 messages, 3 payload bytes");
    }
}
