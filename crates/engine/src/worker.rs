//! Per-shard worker threads: the in-process [`crate::protocol::ShardLink`].
//!
//! Each shard owns one [`ContinuousMonitor`] living on a dedicated thread.
//! The engine talks to it over a pair of mpsc channels with the strict
//! request/response discipline of the [`crate::protocol`] module, so the
//! channels never hold more than one message per worker. The per-tick
//! shard logic itself (delta reassembly, shipping the monitor's change
//! list) lives in [`ShardTickState`], shared with the cluster's
//! out-of-process shard service; the loop here keeps no state of its own
//! beside the monitor, so a restore is the monitor's restore and nothing
//! else.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use rnn_core::ContinuousMonitor;

use crate::protocol::{Request, Response, ShardLink};
use crate::shard::ShardTickState;

/// Handle to one shard thread.
pub struct ShardWorker {
    tx: Sender<Request>,
    rx: Receiver<Response>,
    handle: Option<JoinHandle<()>>,
}

impl ShardWorker {
    /// Moves `monitor` onto a fresh worker thread.
    pub fn spawn(shard: usize, monitor: Box<dyn ContinuousMonitor>) -> Self {
        let (tx, req_rx) = channel();
        let (resp_tx, rx) = channel();
        let handle = std::thread::Builder::new()
            .name(format!("rnn-shard-{shard}"))
            .spawn(move || worker_loop(monitor, req_rx, resp_tx))
            .expect("failed to spawn shard worker thread");
        Self {
            tx,
            rx,
            handle: Some(handle),
        }
    }
}

impl ShardLink for ShardWorker {
    /// Sends a request (never blocks).
    fn send(&self, req: Request) {
        self.tx.send(req).expect("shard worker thread is gone");
    }

    /// Blocks for the next response.
    fn recv(&self) -> Response {
        self.rx.recv().expect("shard worker thread panicked")
    }
}

impl Drop for ShardWorker {
    fn drop(&mut self) {
        // The worker may already be gone (e.g. it panicked); both the send
        // and the join error are then irrelevant during teardown.
        let _ = self.tx.send(Request::Shutdown);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn worker_loop(
    mut monitor: Box<dyn ContinuousMonitor>,
    rx: Receiver<Request>,
    tx: Sender<Response>,
) {
    let mut state = ShardTickState::new();
    while let Ok(req) = rx.recv() {
        match req {
            Request::Tick(delta) => {
                let outcome = state.run_tick(&mut *monitor, delta);
                if tx.send(Response::Tick(outcome)).is_err() {
                    break; // engine dropped mid-flight
                }
            }
            Request::Memory => {
                if tx.send(Response::Memory(monitor.memory())).is_err() {
                    break;
                }
            }
            Request::Shutdown => break,
        }
    }
}
