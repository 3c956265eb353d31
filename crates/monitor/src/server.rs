//! The TCP front-end: many wire-protocol clients multiplexed onto one
//! monitor's bounded queue.
//!
//! # Threading (DESIGN.md §16)
//!
//! ```text
//! acceptor ──► per-connection reader ──► Monitor::submit ──► queue
//!                      │ (rejects)                             │
//!                      ▼                                    worker
//!              per-connection writer ◄── dispatcher ◄── Monitor::recv_outcome
//! ```
//!
//! * One **acceptor** thread takes connections and spawns a
//!   reader/writer pair per client.
//! * Each **reader** decodes frames and calls [`Monitor::submit`]
//!   directly, so the monitor's [`OverloadPolicy`](crate::OverloadPolicy)
//!   becomes per-connection backpressure: `Block` parks the reader (the
//!   client's TCP window fills — natural flow control), `Shed` turns
//!   [`SubmitError::Overloaded`](crate::SubmitError) into an immediate
//!   reject frame echoing the caller's correlation id.
//! * One **dispatcher** thread drains [`Monitor::recv_outcome`] and routes
//!   each verdict, or the `Internal` reject of a request whose micro-batch
//!   faulted, to the connection that submitted it (admission ids are
//!   unique across connections because the queue assigns them under its
//!   lock). Verdicts that arrive before the submitting reader has
//!   registered its route are parked in an orphan buffer and handed over
//!   on registration.
//! * Each **writer** serializes outbound frames for one client, so slow
//!   clients never block the dispatcher.
//!
//! Requests are shape-checked against the served model before admission
//! (a mismatch is a typed `BadRequest` reject, never a worker panic),
//! control frames are gated by [`ControlAccess`] (loopback-only by
//! default), and a disconnected client's socket and writer are released
//! the moment its reader exits — a long-running server holds resources
//! proportional to its live clients, not its connection history.

use std::collections::HashMap;
use std::io::{self, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use advhunter_wire::{
    read_frame, write_frame, ControlOp, Frame, MonitorRequest, Reject, RejectCode, WireError,
    WireStats, WireVerdict,
};

use crate::service::{Monitor, MonitorVerdict, SubmitError};
use crate::stats::StatsSnapshot;

/// Who may issue [`ControlOp`] frames (pause/resume/shutdown) over the
/// wire. Request and stats frames are always allowed — this only gates
/// the operations that affect *every* client of the shared monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ControlAccess {
    /// Control frames are honored only for loopback peers (the default):
    /// a co-located operator keeps pause/shutdown, remote tenants cannot
    /// stall or stop the service.
    #[default]
    Loopback,
    /// Any connected client may issue control frames. Only safe when
    /// every peer is trusted.
    Any,
    /// All control frames are refused, even from loopback.
    Deny,
}

/// Maps admission ids to the submitting connection's outbound channel.
/// `orphans` parks verdicts that outran their route registration;
/// `closed` refuses late registrations once shutdown has cleared the
/// table (a re-inserted Sender would keep its writer alive forever).
#[derive(Default)]
struct RouteTable {
    routes: HashMap<u64, Sender<Frame>>,
    orphans: HashMap<u64, Frame>,
    closed: bool,
}

/// One tracked client connection. The reader releases the stream and
/// writer itself on disconnect (see [`release_conn`]); its own join
/// handle stays until the acceptor's next sweep or [`WireServer::stop`]
/// reaps it.
struct Conn {
    stream: Option<TcpStream>,
    reader: Option<JoinHandle<()>>,
    writer: Option<JoinHandle<()>>,
}

struct ServerState {
    stopping: AtomicBool,
    control: ControlAccess,
    table: Mutex<RouteTable>,
    conns: Mutex<HashMap<u64, Conn>>,
    shutdown_flag: Mutex<bool>,
    shutdown_cv: Condvar,
}

fn wire_verdict(v: MonitorVerdict) -> WireVerdict {
    WireVerdict {
        request_id: v.request_id,
        correlation_id: v.correlation_id,
        tenant: v.tenant,
        config_epoch: v.config_epoch,
        verdict: v.verdict,
        hpc_anomalous: v.hpc_anomalous,
        query_correlated: v.query_correlated,
        fingerprint: v.fingerprint,
        flagged: v.flagged,
    }
}

fn wire_stats(s: &StatsSnapshot) -> WireStats {
    WireStats {
        submitted: s.submitted,
        completed: s.completed,
        shed: s.shed,
        blocked: s.blocked,
        drained: s.drained,
        batches: s.batches,
        config_epoch: s.config_epoch,
        detector_swaps: s.detector_swaps,
        drift_events: s.drift_events,
    }
}

/// A TCP server speaking the `AHP2` wire protocol on behalf of one
/// [`Monitor`].
///
/// Bind with [`WireServer::bind`], read the bound address via
/// [`local_addr`](Self::local_addr) (bind to port 0 for an ephemeral
/// port), and tear everything down with [`stop`](Self::stop) — which
/// drains the monitor gracefully and returns its final counters. The
/// wire path reuses [`Monitor::submit`] verbatim, so remote verdicts are
/// bit-identical to in-process ones.
pub struct WireServer {
    monitor: Option<Arc<Monitor>>,
    addr: SocketAddr,
    state: Arc<ServerState>,
    acceptor: Option<JoinHandle<()>>,
    dispatcher: Option<JoinHandle<()>>,
}

impl WireServer {
    /// Binds `addr` and starts serving `monitor` over it, honoring
    /// control frames only from loopback peers
    /// ([`ControlAccess::Loopback`]).
    ///
    /// # Errors
    ///
    /// [`io::Error`] when the address cannot be bound.
    pub fn bind(monitor: Monitor, addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::bind_with(monitor, addr, ControlAccess::default())
    }

    /// Binds `addr` with an explicit [`ControlAccess`] policy for
    /// pause/resume/shutdown frames.
    ///
    /// # Errors
    ///
    /// [`io::Error`] when the address cannot be bound.
    pub fn bind_with(
        monitor: Monitor,
        addr: impl ToSocketAddrs,
        control: ControlAccess,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let monitor = Arc::new(monitor);
        let state = Arc::new(ServerState {
            stopping: AtomicBool::new(false),
            control,
            table: Mutex::new(RouteTable::default()),
            conns: Mutex::new(HashMap::new()),
            shutdown_flag: Mutex::new(false),
            shutdown_cv: Condvar::new(),
        });
        let acceptor = {
            let monitor = Arc::clone(&monitor);
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("advhunter-acceptor".into())
                .spawn(move || acceptor_loop(&listener, &monitor, &state))
                .expect("failed to spawn acceptor thread")
        };
        let dispatcher = {
            let monitor = Arc::clone(&monitor);
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("advhunter-dispatcher".into())
                .spawn(move || dispatcher_loop(&monitor, &state))
                .expect("failed to spawn dispatcher thread")
        };
        Ok(Self {
            monitor: Some(monitor),
            addr,
            state,
            acceptor: Some(acceptor),
            dispatcher: Some(dispatcher),
        })
    }

    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The monitor being served — for operational access (hot-swap,
    /// stats, metrics) from the owning process.
    pub fn monitor(&self) -> &Monitor {
        self.monitor
            .as_deref()
            .expect("monitor present until stop()")
    }

    /// Number of tracked client connections: the live ones, plus any
    /// that disconnected since the acceptor's last sweep (each sweep
    /// happens on accept; disconnected clients release their socket
    /// immediately either way).
    pub fn connections(&self) -> usize {
        self.state.conns.lock().expect("conns poisoned").len()
    }

    /// Blocks until some client sends
    /// [`ControlOp::Shutdown`](advhunter_wire::ControlOp) (or the server
    /// stops). The serve CLI parks here, then calls
    /// [`stop`](Self::stop).
    pub fn wait_for_shutdown(&self) {
        let mut flag = self
            .state
            .shutdown_flag
            .lock()
            .expect("shutdown flag poisoned");
        while !*flag {
            flag = self
                .state
                .shutdown_cv
                .wait(flag)
                .expect("shutdown flag poisoned");
        }
    }

    /// Stops accepting, disconnects every client, drains the monitor
    /// gracefully (every admitted request is still scored and delivered
    /// to its submitter where the connection is still up), and returns
    /// the final counters.
    pub fn stop(mut self) -> StatsSnapshot {
        self.halt()
            .expect("stop() is the only consumer of the monitor")
    }

    fn halt(&mut self) -> Option<StatsSnapshot> {
        let monitor = self.monitor.take()?;
        self.state.stopping.store(true, Ordering::SeqCst);
        // Wake anyone parked in wait_for_shutdown.
        *self
            .state
            .shutdown_flag
            .lock()
            .expect("shutdown flag poisoned") = true;
        self.state.shutdown_cv.notify_all();
        // Unblock the acceptor with a throwaway connection; it re-checks
        // the stopping flag after every accept.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Close admissions and let the worker drain; the dispatcher
        // delivers every remaining verdict, then sees the end of the
        // stream and exits.
        monitor.close();
        if let Some(dispatcher) = self.dispatcher.take() {
            let _ = dispatcher.join();
        }
        // Close the route table before joining anything: dropping the
        // registered senders lets the writers exit, and the `closed` flag
        // stops a racing reader (whose submit returned Ok just before
        // close) from re-inserting a sender that would keep its writer —
        // and therefore this join below — alive forever.
        {
            let mut table = self.state.table.lock().expect("route table poisoned");
            table.closed = true;
            table.routes.clear();
            table.orphans.clear();
        }
        // Disconnect the clients: readers unblock out of read_frame and
        // exit, then join their own writers.
        let conns: Vec<Conn> = {
            let mut conns = self.state.conns.lock().expect("conns poisoned");
            conns.drain().map(|(_, conn)| conn).collect()
        };
        for conn in &conns {
            if let Some(stream) = &conn.stream {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        for mut conn in conns {
            if let Some(reader) = conn.reader.take() {
                let _ = reader.join();
            }
            if let Some(writer) = conn.writer.take() {
                let _ = writer.join();
            }
        }
        let monitor = Arc::into_inner(monitor)
            .expect("all per-connection threads joined, so this is the last monitor handle");
        Some(monitor.shutdown())
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        let _ = self.halt();
    }
}

fn acceptor_loop(listener: &TcpListener, monitor: &Arc<Monitor>, state: &Arc<ServerState>) {
    let mut next_conn_id: u64 = 0;
    for stream in listener.incoming() {
        if state.stopping.load(Ordering::SeqCst) {
            break;
        }
        reap_finished(state);
        let Ok(stream) = stream else { continue };
        if stream.set_nodelay(true).is_err() {
            continue;
        }
        let allow_control = match state.control {
            ControlAccess::Any => true,
            ControlAccess::Deny => false,
            ControlAccess::Loopback => stream.peer_addr().is_ok_and(|peer| peer.ip().is_loopback()),
        };
        let Ok(read_half) = stream.try_clone() else {
            continue;
        };
        let Ok(write_half) = stream.try_clone() else {
            continue;
        };
        let conn_id = next_conn_id;
        next_conn_id += 1;
        let (out_tx, out_rx) = std::sync::mpsc::channel::<Frame>();
        let reader = {
            let monitor = Arc::clone(monitor);
            let state = Arc::clone(state);
            std::thread::Builder::new()
                .name("advhunter-conn-reader".into())
                .spawn(move || {
                    reader_loop(read_half, &monitor, &state, &out_tx, allow_control);
                    // The route table may still hold this connection's
                    // senders for in-flight verdicts; our own must go
                    // before release_conn waits on the writer.
                    drop(out_tx);
                    release_conn(&state, conn_id);
                })
        };
        let writer = std::thread::Builder::new()
            .name("advhunter-conn-writer".into())
            .spawn(move || writer_loop(write_half, &out_rx));
        state.conns.lock().expect("conns poisoned").insert(
            conn_id,
            Conn {
                stream: Some(stream),
                reader: reader.ok(),
                writer: writer.ok(),
            },
        );
    }
}

/// Called by a connection's reader as it exits: close the socket and
/// wait out the writer so the file descriptors are released the moment
/// the client disconnects, not at server stop. The writer drains once
/// the dispatcher has delivered this connection's in-flight verdicts
/// (each delivery drops a route-table sender) — then its receiver
/// disconnects and it exits.
fn release_conn(state: &ServerState, conn_id: u64) {
    let (stream, writer) = {
        let mut conns = state.conns.lock().expect("conns poisoned");
        match conns.get_mut(&conn_id) {
            Some(conn) => (conn.stream.take(), conn.writer.take()),
            None => (None, None),
        }
    };
    if let Some(stream) = stream {
        let _ = stream.shutdown(Shutdown::Both);
    }
    if let Some(writer) = writer {
        let _ = writer.join();
    }
}

/// Drops the bookkeeping of connections whose reader has exited (their
/// sockets and writers were already released by [`release_conn`]).
/// Swept on every accept, so a long-running server's tracking stays
/// proportional to its *live* clients.
fn reap_finished(state: &ServerState) {
    let finished: Vec<Conn> = {
        let mut conns = state.conns.lock().expect("conns poisoned");
        let done: Vec<u64> = conns
            .iter()
            .filter(|(_, conn)| conn.reader.as_ref().is_none_or(JoinHandle::is_finished))
            .map(|(&id, _)| id)
            .collect();
        done.iter().filter_map(|id| conns.remove(id)).collect()
    };
    for mut conn in finished {
        if let Some(stream) = conn.stream.take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        if let Some(reader) = conn.reader.take() {
            let _ = reader.join();
        }
        if let Some(writer) = conn.writer.take() {
            let _ = writer.join();
        }
    }
}

/// Routes every outcome the monitor produces to its submitter: a verdict,
/// or an `Internal` reject for a request whose micro-batch faulted.
fn dispatcher_loop(monitor: &Arc<Monitor>, state: &Arc<ServerState>) {
    while let Some(outcome) = monitor.recv_outcome() {
        let (id, frame) = match outcome {
            Ok(verdict) => (verdict.request_id, Frame::Verdict(wire_verdict(verdict))),
            Err(fault) => (
                fault.request_id,
                Frame::Reject(Reject {
                    code: RejectCode::Internal,
                    correlation_id: fault.correlation_id,
                    message: fault.message,
                }),
            ),
        };
        let mut table = state.table.lock().expect("route table poisoned");
        match table.routes.remove(&id) {
            // A dead connection just means nobody hears this verdict.
            Some(tx) => {
                let _ = tx.send(frame);
            }
            None => {
                table.orphans.insert(id, frame);
            }
        }
    }
}

fn reader_loop(
    mut stream: TcpStream,
    monitor: &Arc<Monitor>,
    state: &Arc<ServerState>,
    out_tx: &Sender<Frame>,
    allow_control: bool,
) {
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(Some(frame)) => frame,
            // Clean disconnect between frames.
            Ok(None) => break,
            Err(WireError::Io(_)) => break,
            Err(e) => {
                // Protocol violation: tell the client (best effort) and
                // hang up rather than guess at resynchronization.
                let _ = out_tx.send(Frame::Reject(Reject {
                    code: RejectCode::Protocol,
                    correlation_id: None,
                    message: e.to_string(),
                }));
                break;
            }
        };
        match frame {
            Frame::Request(request) => handle_request(request, monitor, state, out_tx),
            Frame::StatsRequest => {
                let stats = wire_stats(&monitor.stats());
                if out_tx.send(Frame::Stats(stats)).is_err() {
                    break;
                }
            }
            Frame::Control(op) => {
                if !allow_control {
                    // Denied, not a protocol violation: the client may
                    // keep submitting, it just cannot steer the shared
                    // service (see ControlAccess).
                    if out_tx
                        .send(Frame::Reject(Reject {
                            code: RejectCode::Denied,
                            correlation_id: None,
                            message: format!(
                                "control op {op:?} denied by the server's access policy"
                            ),
                        }))
                        .is_err()
                    {
                        break;
                    }
                    continue;
                }
                match op {
                    ControlOp::Pause => monitor.pause(),
                    ControlOp::Resume => monitor.resume(),
                    ControlOp::Shutdown => {
                        *state.shutdown_flag.lock().expect("shutdown flag poisoned") = true;
                        state.shutdown_cv.notify_all();
                    }
                }
                let ack = Frame::ControlAck {
                    op,
                    config_epoch: monitor.config_epoch(),
                };
                if out_tx.send(ack).is_err() {
                    break;
                }
            }
            // Server-to-client frames arriving at the server are a
            // protocol violation.
            Frame::Verdict(_) | Frame::Stats(_) | Frame::ControlAck { .. } | Frame::Reject(_) => {
                let _ = out_tx.send(Frame::Reject(Reject {
                    code: RejectCode::Protocol,
                    correlation_id: None,
                    message: "client sent a server-to-client frame".into(),
                }));
                break;
            }
        }
    }
}

fn handle_request(
    request: MonitorRequest,
    monitor: &Arc<Monitor>,
    state: &Arc<ServerState>,
    out_tx: &Sender<Frame>,
) {
    let correlation = request.request_id;
    // Validate the shape before admission: the wire codec accepts any
    // rank-1..8 tensor, but the engine asserts the model's input shape —
    // one mismatched frame must become a typed reject, never a panic in
    // the shared worker. (`Monitor::submit` re-checks; this pre-check
    // only exists to word the reject with the expected dims.)
    if request.image.shape().dims() != monitor.input_dims() {
        let _ = out_tx.send(Frame::Reject(Reject {
            code: RejectCode::BadRequest,
            correlation_id: correlation,
            message: format!(
                "image shape {:?} does not match the model input {:?}",
                request.image.shape().dims(),
                monitor.input_dims()
            ),
        }));
        return;
    }
    match monitor.submit(request) {
        Ok(id) => {
            let mut table = state.table.lock().expect("route table poisoned");
            // The dispatcher may already have parked this verdict.
            if let Some(frame) = table.orphans.remove(&id) {
                let _ = out_tx.send(frame);
            } else if !table.closed {
                // After close() the table stays closed: registering here
                // would strand a Sender nothing ever removes. The verdict
                // (if any) was already delivered or dropped with the
                // orphan buffer — this connection is being torn down.
                table.routes.insert(id, out_tx.clone());
            }
        }
        Err(err) => {
            let code = match err {
                SubmitError::Overloaded => RejectCode::Overloaded,
                SubmitError::Closed => RejectCode::Closed,
                SubmitError::ShapeMismatch | SubmitError::NonFinite => RejectCode::BadRequest,
            };
            let _ = out_tx.send(Frame::Reject(Reject {
                code,
                correlation_id: correlation,
                message: err.to_string(),
            }));
        }
    }
}

fn writer_loop(stream: TcpStream, out_rx: &Receiver<Frame>) {
    let mut writer = BufWriter::new(stream);
    while let Ok(frame) = out_rx.recv() {
        if write_frame(&mut writer, &frame).is_err() || writer.flush().is_err() {
            break;
        }
    }
}
