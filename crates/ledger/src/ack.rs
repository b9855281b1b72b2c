//! Input → ack latency of one `ClientSession`, from the outside.
//!
//! The session keeps unacked inputs in a FIFO and exposes only its length
//! (`pending_inputs()`). An input is acked by the `tick` after which the
//! queue no longer holds it; because acks are cumulative and in order, the
//! number of inputs that left the queue during a tick is
//! `in flight before + sent this tick − pending after`.

use crate::stats::Strided;
use std::collections::VecDeque;

/// Tracks send times of the inputs one client has in flight.
#[derive(Debug, Default)]
pub struct AckTracker {
    in_flight: VecDeque<u64>,
    /// Inputs that left the queue.
    pub acked: u64,
}

impl AckTracker {
    /// Accounts for one `ClientSession::tick` call.
    ///
    /// * `tick_start_ns` — clock read just before the call;
    /// * `sent` — whether the call sent an input (`inputs_sent` grew);
    /// * `pending_after` — `pending_inputs()` once it returned;
    /// * `tick_end_ns` — clock read just after.
    ///
    /// Pushes the latency of every input acked by this call onto
    /// `latencies_ns`.
    pub fn on_tick(
        &mut self,
        tick_start_ns: u64,
        sent: bool,
        pending_after: usize,
        tick_end_ns: u64,
        latencies_ns: &mut Strided,
    ) {
        if sent {
            self.in_flight.push_back(tick_start_ns);
        }
        while self.in_flight.len() > pending_after {
            if let Some(sent_at) = self.in_flight.pop_front() {
                latencies_ns.push(tick_end_ns.saturating_sub(sent_at));
                self.acked += 1;
            }
        }
    }

    /// Inputs sent and not yet acked.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }
}
