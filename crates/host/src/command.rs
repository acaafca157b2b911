//! The software↔hardware commands.
//!
//! "Command queues of depth 1024, each entry holding a 16 B command, are
//! allocated per thread for the F4T library and FtEngine to send commands
//! to each other. Requests such as connect(), send(), and recv() are sent
//! to FtEngine with 16 B commands, and FtEngine sends ACKed data and
//! received data pointers to the software with 16 B commands" (§4.1.1).
//! §6 additionally evaluates a compacted **8 B** command that relieves
//! the PCIe bottleneck at extreme request rates.
//!
//! The simulator models a command by its meaning and its size: a queue
//! entry is charged [`Command::WIRE_16`] (or [`Command::WIRE_8`]) bytes on
//! PCIe, and no byte layout is encoded or decoded.

use f4t_tcp::{FlowId, SeqNum};

/// A software→hardware command (one queue entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// `connect()`: start the active-open handshake.
    Connect {
        /// Target flow.
        flow: FlowId,
    },
    /// `close()`: orderly shutdown.
    Close {
        /// Target flow.
        flow: FlowId,
    },
    /// `send()`: the library sends the new absolute REQ pointer, not a
    /// length (§4.2.1).
    Send {
        /// Target flow.
        flow: FlowId,
        /// New user-request pointer.
        req: SeqNum,
    },
    /// `recv()` consumed data up to this pointer (opens the window).
    RecvConsumed {
        /// Target flow.
        flow: FlowId,
        /// New consumed pointer.
        consumed: SeqNum,
    },
}

/// A hardware→software completion (the other direction of §4.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// Connection established.
    Connected {
        /// The flow.
        flow: FlowId,
    },
    /// Peer ACKed our data up to the pointer.
    Acked {
        /// The flow.
        flow: FlowId,
        /// ACKed pointer.
        upto: SeqNum,
    },
    /// In-order data available up to the pointer.
    Received {
        /// The flow.
        flow: FlowId,
        /// Received pointer.
        upto: SeqNum,
    },
    /// Peer sent FIN (EOF).
    Eof {
        /// The flow.
        flow: FlowId,
    },
    /// Connection closed.
    Closed {
        /// The flow.
        flow: FlowId,
    },
    /// A new inbound connection for `accept()`.
    Accepted {
        /// The new flow.
        flow: FlowId,
    },
}

impl Command {
    /// Full-size command entry (the paper's default).
    pub const WIRE_16: usize = 16;
    /// Compacted entry from §6's scaling experiment.
    pub const WIRE_8: usize = 8;

    /// The flow a command addresses.
    pub fn flow(self) -> FlowId {
        match self {
            Command::Connect { flow }
            | Command::Close { flow }
            | Command::Send { flow, .. }
            | Command::RecvConsumed { flow, .. } => flow,
        }
    }
}

impl Completion {
    /// The flow a completion refers to.
    pub fn flow(self) -> FlowId {
        match self {
            Completion::Connected { flow }
            | Completion::Acked { flow, .. }
            | Completion::Received { flow, .. }
            | Completion::Eof { flow }
            | Completion::Closed { flow }
            | Completion::Accepted { flow } => flow,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_flow_access() {
        assert_eq!(Completion::Eof { flow: FlowId(9) }.flow(), FlowId(9));
        assert_eq!(Completion::Acked { flow: FlowId(3), upto: SeqNum(1) }.flow(), FlowId(3));
    }
}
