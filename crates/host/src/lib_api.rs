//! The F4T library: the POSIX-socket shim.
//!
//! "F4T library allows applications to utilize F4T without any
//! modifications by providing the same functionality as POSIX socket
//! API... socket API calls are linked to the F4T library [and run] as the
//! same thread as the application thread, changing the socket API from
//! system calls to function calls. Only a handful amount of metadata,
//! such as TCP window pointers, are stored and managed in the software"
//! (§4.1.1).
//!
//! [`F4tLib`] is that metadata plus the command queue: `send()` checks
//! send-buffer space against the ACKed pointer and enqueues a 16 B
//! command carrying the new REQ pointer; completions flow back as pointer
//! updates. Blocking/non-blocking semantics fall out naturally: when the
//! buffer is full the call returns [`SendError::BufferFull`] and the
//! caller retries (or sleeps, §4.6).

use crate::command::{Command, Completion};
use crate::queues::{CommandQueue, Doorbell};
use f4t_sim::FlowSlab;
use f4t_tcp::{FlowId, SeqNum, TCP_BUFFER};

/// Why a `send()` could not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The 512 KB send buffer is full (unACKed data): blocking sockets
    /// wait, non-blocking return EAGAIN (§4.1.1).
    BufferFull,
    /// The command queue is full (doorbell backpressure).
    QueueFull,
    /// The connection is not established.
    NotConnected,
    /// Unknown flow (no such socket).
    UnknownFlow,
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::BufferFull => write!(f, "send buffer full (EAGAIN)"),
            SendError::QueueFull => write!(f, "command queue full"),
            SendError::NotConnected => write!(f, "socket not connected"),
            SendError::UnknownFlow => write!(f, "no such socket"),
        }
    }
}

impl std::error::Error for SendError {}

/// Per-socket metadata the library keeps in software.
#[derive(Debug, Clone, Copy)]
pub struct SocketState {
    /// Peer-ACKed pointer: send-buffer space frees up to here.
    pub acked: SeqNum,
    /// User request pointer (data the app asked to send).
    pub req: SeqNum,
    /// In-order received pointer (data available to `recv()`).
    pub received: SeqNum,
    /// Consumed pointer (data the app has read).
    pub consumed: SeqNum,
    /// Established?
    pub connected: bool,
    /// Peer sent FIN.
    pub eof: bool,
    /// Fully closed.
    pub closed: bool,
}

impl SocketState {
    fn new(isn: SeqNum, connected: bool) -> SocketState {
        SocketState {
            acked: isn,
            req: isn,
            received: isn,
            consumed: isn,
            connected,
            eof: false,
            closed: false,
        }
    }

    /// Unread bytes available to `recv()`.
    pub fn readable(&self) -> u32 {
        self.received.since(self.consumed)
    }

    /// Free send-buffer space.
    pub fn send_space(&self) -> u32 {
        TCP_BUFFER.saturating_sub(self.req.since(self.acked))
    }
}

/// One application thread's view of the F4T library.
#[derive(Debug)]
pub struct F4tLib {
    /// Socket metadata indexed by flow id (this thread's share of the id
    /// space: 4 B per foreign id, a full record only per owned socket).
    sockets: FlowSlab<SocketState>,
    /// Software→hardware command ring.
    pub commands: CommandQueue,
    /// The MMIO doorbell (batched).
    pub doorbell: Doorbell,
    sends: u64,
    completions: u64,
    eagain: u64,
}

impl F4tLib {
    /// Creates a library instance with 16 B commands.
    pub fn new() -> F4tLib {
        F4tLib::with_queue(CommandQueue::new16())
    }

    /// Creates a library instance with the compact 8 B commands (§6).
    pub fn new_compact() -> F4tLib {
        F4tLib::with_queue(CommandQueue::new8())
    }

    fn with_queue(commands: CommandQueue) -> F4tLib {
        F4tLib {
            sockets: FlowSlab::with_capacity(0),
            commands,
            doorbell: Doorbell::new(),
            sends: 0,
            completions: 0,
            eagain: 0,
        }
    }

    /// Switches this library instance to the compact 8 B command format
    /// (§6's scaling experiment). Must be called while the command ring
    /// is empty.
    ///
    /// # Panics
    ///
    /// Panics if commands are queued.
    pub fn switch_to_compact(&mut self) {
        assert!(self.commands.is_empty(), "drain the command ring first");
        self.commands = CommandQueue::new8();
    }

    /// Registers a socket (post-`socket()`/`accept()`); `connected` is
    /// true when the handshake is already complete (pre-established test
    /// flows).
    pub fn register(&mut self, flow: FlowId, isn: SeqNum, connected: bool) {
        self.sockets.insert(flow.0, SocketState::new(isn, connected));
    }

    /// The socket state, if any.
    pub fn socket(&self, flow: FlowId) -> Option<&SocketState> {
        self.sockets.get(flow.0)
    }

    /// `connect()`: enqueue the handshake command.
    ///
    /// # Errors
    ///
    /// [`SendError::UnknownFlow`] or [`SendError::QueueFull`].
    pub fn connect(&mut self, flow: FlowId) -> Result<(), SendError> {
        if !self.sockets.contains(flow.0) {
            return Err(SendError::UnknownFlow);
        }
        if !self.commands.push(Command::Connect { flow }) {
            return Err(SendError::QueueFull);
        }
        self.doorbell.ring(1);
        Ok(())
    }

    /// `close()`: enqueue the teardown command.
    ///
    /// # Errors
    ///
    /// [`SendError::UnknownFlow`] or [`SendError::QueueFull`].
    pub fn close(&mut self, flow: FlowId) -> Result<(), SendError> {
        if !self.sockets.contains(flow.0) {
            return Err(SendError::UnknownFlow);
        }
        if !self.commands.push(Command::Close { flow }) {
            return Err(SendError::QueueFull);
        }
        self.doorbell.ring(1);
        Ok(())
    }

    /// `send(len)`: advance the REQ pointer by `len` bytes and enqueue
    /// the command carrying the absolute pointer (§4.2.1).
    ///
    /// # Errors
    ///
    /// Any [`SendError`]; on error no state changes.
    pub fn send(&mut self, flow: FlowId, len: u32) -> Result<SeqNum, SendError> {
        let sock = self.sockets.get_mut(flow.0).ok_or(SendError::UnknownFlow)?;
        if !sock.connected || sock.closed {
            return Err(SendError::NotConnected);
        }
        if sock.send_space() < len {
            self.eagain += 1;
            return Err(SendError::BufferFull);
        }
        let new_req = sock.req.add(len);
        if !self.commands.push(Command::Send { flow, req: new_req }) {
            self.eagain += 1;
            return Err(SendError::QueueFull);
        }
        sock.req = new_req;
        self.sends += 1;
        self.doorbell.ring(1);
        Ok(new_req)
    }

    /// `recv(len)`: consume up to `len` readable bytes, returning the
    /// number consumed; enqueues the window-opening pointer update when
    /// data was taken.
    pub fn recv(&mut self, flow: FlowId, len: u32) -> u32 {
        let Some(sock) = self.sockets.get_mut(flow.0) else { return 0 };
        let take = sock.readable().min(len);
        if take == 0 {
            return 0;
        }
        let new_consumed = sock.consumed.add(take);
        if !self.commands.push(Command::RecvConsumed { flow, consumed: new_consumed }) {
            return 0; // queue full: the app retries the recv()
        }
        sock.consumed = new_consumed;
        self.doorbell.ring(1);
        take
    }

    /// Processes one hardware completion (a 16 B command the runtime
    /// polled from the DMA buffer).
    pub fn on_completion(&mut self, c: Completion) {
        self.completions += 1;
        match c {
            Completion::Connected { flow } => {
                if let Some(s) = self.sockets.get_mut(flow.0) {
                    s.connected = true;
                }
            }
            Completion::Acked { flow, upto } => {
                if let Some(s) = self.sockets.get_mut(flow.0) {
                    s.acked = s.acked.max_seq(upto);
                }
            }
            Completion::Received { flow, upto } => {
                if let Some(s) = self.sockets.get_mut(flow.0) {
                    s.received = s.received.max_seq(upto);
                }
            }
            Completion::Eof { flow } => {
                if let Some(s) = self.sockets.get_mut(flow.0) {
                    s.eof = true;
                }
            }
            Completion::Closed { flow } => {
                if let Some(s) = self.sockets.get_mut(flow.0) {
                    s.closed = true;
                    s.connected = false;
                }
            }
            Completion::Accepted { flow } => {
                // A new server-side socket: ISN pointers arrive with the
                // first Received/Acked completions; register lazily.
                self.sockets.get_or_insert_with(flow.0, || SocketState::new(SeqNum::ZERO, false));
            }
        }
    }

    /// Seeds the server-side socket pointers once the engine reports the
    /// connection's sequence base (used by `accept()` paths in the system
    /// layer).
    pub fn seed_pointers(&mut self, flow: FlowId, isn: SeqNum) {
        if let Some(s) = self.sockets.get_mut(flow.0) {
            *s = SocketState { connected: s.connected, ..SocketState::new(isn, s.connected) };
        }
    }

    /// Registers an accepted server-side socket with asymmetric sequence
    /// bases: our transmit direction starts at `snd_isn`, the peer's at
    /// `rcv_isn` (the directions pick independent ISNs, so a single-ISN
    /// [`Self::register`] cannot represent an accepted flow).
    pub fn register_accepted(&mut self, flow: FlowId, snd_isn: SeqNum, rcv_isn: SeqNum) {
        self.sockets.insert(
            flow.0,
            SocketState {
                acked: snd_isn,
                req: snd_isn,
                received: rcv_isn,
                consumed: rcv_isn,
                connected: true,
                eof: false,
                closed: false,
            },
        );
    }

    /// Forgets a socket entirely (post-close reclamation, so flow-id
    /// reuse under churn cannot alias stale pointers).
    pub fn deregister(&mut self, flow: FlowId) {
        self.sockets.remove(flow.0);
    }

    /// Re-seeds both directions once the engine reports the handshake
    /// complete: `snd` is our first data byte, `rcv` the peer's (the
    /// SYN and SYN|ACK each consume one sequence number, so bases
    /// registered before Established are provisional). A direction
    /// with in-flight progress is left alone — re-basing would orphan
    /// the outstanding transfer.
    pub fn seed_handshake(&mut self, flow: FlowId, snd: SeqNum, rcv: SeqNum) {
        if let Some(s) = self.sockets.get_mut(flow.0) {
            if s.req == s.acked {
                s.req = snd;
                s.acked = snd;
            }
            if s.received == s.consumed {
                s.received = rcv;
                s.consumed = rcv;
            }
        }
    }

    /// Peeks the oldest outgoing command (the runtime's DMA view).
    pub fn commands_front(&self) -> Option<&Command> {
        self.commands.front()
    }

    /// Pops the oldest outgoing command (DMA fetch complete).
    pub fn commands_pop(&mut self) -> Option<Command> {
        self.commands.pop()
    }

    /// Bytes one command entry occupies on PCIe (16 or 8).
    pub fn entry_bytes(&self) -> usize {
        self.commands.entry_bytes()
    }

    /// `send()` calls completed.
    pub fn sends(&self) -> u64 {
        self.sends
    }

    /// Completions processed.
    pub fn completions(&self) -> u64 {
        self.completions
    }

    /// EAGAIN-style rejections (buffer or queue full).
    pub fn eagain(&self) -> u64 {
        self.eagain
    }
}

impl Default for F4tLib {
    fn default() -> F4tLib {
        F4tLib::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_with_flow() -> (F4tLib, FlowId) {
        let mut lib = F4tLib::new();
        let flow = FlowId(1);
        lib.register(flow, SeqNum(1000), true);
        (lib, flow)
    }

    #[test]
    fn send_advances_pointer_and_enqueues() {
        let (mut lib, flow) = lib_with_flow();
        let req = lib.send(flow, 300).unwrap();
        assert_eq!(req, SeqNum(1300));
        let Some(Command::Send { req, .. }) = lib.commands.pop() else { panic!() };
        assert_eq!(req, SeqNum(1300), "absolute pointer, not a length");
        assert_eq!(lib.sends(), 1);
        assert_eq!(lib.doorbell.published(), 1);
    }

    #[test]
    fn buffer_full_returns_eagain_until_acked() {
        let (mut lib, flow) = lib_with_flow();
        // Fill the 512 KB buffer.
        for _ in 0..8 {
            lib.send(flow, TCP_BUFFER / 8).unwrap();
        }
        assert_eq!(lib.send(flow, 1), Err(SendError::BufferFull));
        assert_eq!(lib.eagain(), 1);
        // The peer ACKs half: space frees.
        lib.on_completion(Completion::Acked { flow, upto: SeqNum(1000).add(TCP_BUFFER / 2) });
        assert!(lib.send(flow, TCP_BUFFER / 4).is_ok());
    }

    #[test]
    fn recv_consumes_and_opens_window() {
        let (mut lib, flow) = lib_with_flow();
        assert_eq!(lib.recv(flow, 100), 0, "nothing received yet");
        lib.on_completion(Completion::Received { flow, upto: SeqNum(1000).add(500) });
        assert_eq!(lib.socket(flow).unwrap().readable(), 500);
        assert_eq!(lib.recv(flow, 300), 300);
        assert_eq!(lib.socket(flow).unwrap().readable(), 200);
        // Drain the Send-free queue: first command should be the pointer
        // update.
        let Some(Command::RecvConsumed { consumed, .. }) = lib.commands.pop() else { panic!() };
        assert_eq!(consumed, SeqNum(1300));
    }

    #[test]
    fn recv_caps_at_available() {
        let (mut lib, flow) = lib_with_flow();
        lib.on_completion(Completion::Received { flow, upto: SeqNum(1000).add(50) });
        assert_eq!(lib.recv(flow, 1000), 50);
    }

    #[test]
    fn not_connected_rejected() {
        let mut lib = F4tLib::new();
        lib.register(FlowId(2), SeqNum(0), false);
        assert_eq!(lib.send(FlowId(2), 10), Err(SendError::NotConnected));
        assert_eq!(lib.send(FlowId(3), 10), Err(SendError::UnknownFlow));
        lib.on_completion(Completion::Connected { flow: FlowId(2) });
        assert!(lib.send(FlowId(2), 10).is_ok());
    }

    #[test]
    fn close_and_eof_lifecycle() {
        let (mut lib, flow) = lib_with_flow();
        lib.on_completion(Completion::Eof { flow });
        assert!(lib.socket(flow).unwrap().eof);
        lib.close(flow).unwrap();
        lib.on_completion(Completion::Closed { flow });
        assert!(lib.socket(flow).unwrap().closed);
        assert_eq!(lib.send(flow, 1), Err(SendError::NotConnected));
    }

    #[test]
    fn stale_completions_do_not_regress_pointers() {
        let (mut lib, flow) = lib_with_flow();
        lib.on_completion(Completion::Received { flow, upto: SeqNum(1500) });
        lib.on_completion(Completion::Received { flow, upto: SeqNum(1200) });
        assert_eq!(lib.socket(flow).unwrap().received, SeqNum(1500));
        lib.on_completion(Completion::Acked { flow, upto: SeqNum(1100) });
        lib.on_completion(Completion::Acked { flow, upto: SeqNum(1050) });
        assert_eq!(lib.socket(flow).unwrap().acked, SeqNum(1100));
    }

    #[test]
    fn accepted_registration_uses_asymmetric_bases() {
        let mut lib = F4tLib::new();
        let flow = FlowId(7);
        lib.register_accepted(flow, SeqNum(5000), SeqNum(9000));
        let s = *lib.socket(flow).unwrap();
        assert!(s.connected);
        assert_eq!(s.req, SeqNum(5000));
        assert_eq!(s.consumed, SeqNum(9000));
        lib.on_completion(Completion::Received { flow, upto: SeqNum(9100) });
        assert_eq!(lib.socket(flow).unwrap().readable(), 100);
        assert!(lib.send(flow, 64).is_ok(), "send side uses its own base");
        lib.deregister(flow);
        assert!(lib.socket(flow).is_none());
        assert_eq!(lib.send(flow, 1), Err(SendError::UnknownFlow));
    }

    #[test]
    fn error_display() {
        assert!(SendError::BufferFull.to_string().contains("EAGAIN"));
        assert!(SendError::UnknownFlow.to_string().contains("socket"));
    }
}
