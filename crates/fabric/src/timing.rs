//! The timing cost model shared by the threaded fabric (for accounting) and
//! the discrete-event models (for scheduling).
//!
//! All constants are nanoseconds unless noted. Defaults are calibrated
//! against published microbenchmarks of ConnectX-5 class hardware on a
//! 100 Gb/s network and against the *shapes* reported in the Flock paper
//! (see DESIGN.md §5): per-verb NIC processing of tens of ns across a small
//! number of processing units, a connection-state cache whose misses cost a
//! PCIe round trip, per-message MMIO doorbells of a few hundred cycles, and
//! per-packet wire overheads.

use flock_sim::Ns;

/// Timing constants for one experiment. Construct via [`CostModel::default`]
/// and override fields as needed.
#[derive(Debug, Clone)]
pub struct CostModel {
    // ---- NIC ----
    /// Number of NIC processing units (QPs are hashed across them).
    pub nic_processing_units: usize,
    /// Base NIC processing time per verb (WQE fetch, protocol state update).
    pub nic_verb_ns: u64,
    /// Additional NIC processing per WQE when the connection state hits in
    /// the NIC cache.
    pub nic_cached_state_ns: u64,
    /// Penalty for a NIC connection-cache miss (state fetched over PCIe).
    pub nic_cache_miss_ns: u64,
    /// Extra NIC processing for one-sided read responder/requester work
    /// (RDMA reads are heavier than ring writes per WQE).
    pub nic_read_extra_ns: u64,
    /// Extra NIC processing for remote atomics (FetchAdd/CmpSwap). The
    /// responder NIC serializes atomics through a single locked PCIe
    /// read-modify-write unit, making them the slowest verb per WQE —
    /// the reason ALock keeps contended handoffs local and only touches
    /// the remote word once per cohort burst.
    pub nic_atomic_extra_ns: u64,
    /// Number of connection-state entries the NIC cache holds.
    pub nic_cache_entries: usize,
    /// DMA engine cost per byte moved host<->NIC (PCIe payload).
    pub nic_dma_ns_per_kb: u64,
    /// Cost for the NIC to DMA a completion entry to host memory.
    pub nic_cqe_dma_ns: u64,

    // ---- Wire ----
    /// Serialization cost per byte (100 Gb/s = 0.08 ns/byte → per KB).
    pub wire_ns_per_kb: u64,
    /// One-way propagation through cable + switch.
    pub wire_propagation_ns: u64,
    /// Per-packet framing overhead in bytes (Ethernet+IB headers).
    pub packet_overhead_bytes: usize,
    /// Wire MTU for packetization (distinct from transport message limits).
    pub wire_mtu: usize,

    // ---- Host CPU ----
    /// CPU cost of one MMIO doorbell (posting work to the NIC).
    pub cpu_doorbell_ns: u64,
    /// CPU cost of polling a completion queue entry (hit).
    pub cpu_poll_cqe_ns: u64,
    /// CPU cost of an empty completion-queue poll.
    pub cpu_poll_empty_ns: u64,
    /// CPU cost of posting (recycling) one receive buffer — the UD server
    /// overhead the paper highlights in §2.2 / Figure 2(b).
    pub cpu_post_recv_ns: u64,
    /// CPU cost to inspect a ring buffer slot when polling host memory
    /// (Flock's RC-write detection path).
    pub cpu_ring_poll_ns: u64,
    /// Amortized CPU per dispatcher sweep that detects work: walking the
    /// other (empty) rings between hits. Shared across the messages a
    /// sweep picks up — a major coalescing win (paper §8.3.1).
    pub cpu_ring_sweep_ns: u64,
    /// Mean delay before the client response dispatcher notices a landed
    /// response message (poll sweep latency).
    pub cpu_dispatcher_poll_ns: u64,
    /// CPU cost per byte for copying payloads (per KB).
    pub cpu_memcpy_ns_per_kb: u64,
    /// Fixed per-request CPU for encode/decode of message metadata.
    pub cpu_codec_ns: u64,
    /// Extra per-request CPU for UD RPC session bookkeeping (window
    /// management, software reliability timers — the eRPC overhead).
    pub cpu_erpc_session_ns: u64,
    /// CPU cost for a thread to enqueue on the TCQ / acquire a lock
    /// (uncontended atomic RMW).
    pub cpu_sync_ns: u64,
    /// Extra CPU when a lock is contended (spin + cacheline transfer).
    pub cpu_lock_contended_ns: u64,

    // ---- Control plane ----
    // Verbs control operations are orders of magnitude slower than the
    // data path (Swift, PAPERS.md): QP creation allocates NIC state over
    // PCIe config cycles, MR registration pins pages and installs MTT
    // entries. These price the elastic control plane (QP pool, MR cache).
    /// Full `ibv_create_qp` + INIT/RTR/RTS bring-up of a fresh QP.
    pub ctrl_create_qp_ns: u64,
    /// Recycling a pooled QP: modify-to-RESET plus re-transition to RTS
    /// (no allocation, no PCIe config cycles).
    pub ctrl_reset_qp_ns: u64,
    /// Fixed cost of `ibv_reg_mr`: syscall, pinning setup, MPT entry.
    pub ctrl_reg_mr_base_ns: u64,
    /// Per-KB cost of registration (page pinning + MTT installation).
    pub ctrl_reg_mr_ns_per_kb: u64,
    /// Cost of `ibv_dereg_mr` (unpinning, MTT teardown).
    pub ctrl_dereg_mr_ns: u64,
    /// Host CPU cost per KB to zero a recycled buffer (streaming stores;
    /// cheaper than a copy, which reads and writes).
    pub cpu_memset_ns_per_kb: u64,

    // ---- Application ----
    /// Baseline RPC handler execution cost.
    pub app_handler_ns: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            nic_processing_units: 6,
            nic_verb_ns: 50,
            nic_cached_state_ns: 15,
            nic_cache_miss_ns: 1_450,
            nic_read_extra_ns: 15,
            nic_atomic_extra_ns: 60,
            nic_cache_entries: 1024,
            nic_dma_ns_per_kb: 60,
            nic_cqe_dma_ns: 40,

            wire_ns_per_kb: 82, // ~100 Gb/s
            wire_propagation_ns: 350,
            packet_overhead_bytes: 66,
            wire_mtu: 4096,

            cpu_doorbell_ns: 400,
            cpu_poll_cqe_ns: 150,
            cpu_poll_empty_ns: 25,
            cpu_post_recv_ns: 450,
            cpu_ring_poll_ns: 30,
            cpu_ring_sweep_ns: 400,
            cpu_dispatcher_poll_ns: 250,
            cpu_memcpy_ns_per_kb: 300,
            cpu_codec_ns: 35,
            cpu_erpc_session_ns: 600,
            cpu_sync_ns: 24,
            cpu_lock_contended_ns: 160,

            ctrl_create_qp_ns: 80_000,
            ctrl_reset_qp_ns: 2_500,
            ctrl_reg_mr_base_ns: 30_000,
            ctrl_reg_mr_ns_per_kb: 800,
            ctrl_dereg_mr_ns: 8_000,
            cpu_memset_ns_per_kb: 60,

            app_handler_ns: 260,
        }
    }
}

impl CostModel {
    /// Number of wire packets needed for a message of `bytes`.
    pub fn packets(&self, bytes: usize) -> usize {
        bytes.div_ceil(self.wire_mtu).max(1)
    }

    /// NIC service time for processing one verb touching `bytes`,
    /// given whether the connection state was cached.
    pub fn nic_service(&self, bytes: usize, cache_hit: bool) -> Ns {
        let state = if cache_hit {
            self.nic_cached_state_ns
        } else {
            self.nic_cache_miss_ns
        };
        Ns(self.nic_verb_ns + state + (bytes as u64 * self.nic_dma_ns_per_kb) / 1024)
    }

    /// Host CPU time to memcpy `bytes`.
    pub fn memcpy_time(&self, bytes: usize) -> Ns {
        Ns((bytes as u64 * self.cpu_memcpy_ns_per_kb) / 1024)
    }

    /// Host CPU cost for the UD receive path of one packet:
    /// poll CQE + recycle the consumed receive buffer.
    pub fn ud_rx_cpu(&self) -> Ns {
        Ns(self.cpu_poll_cqe_ns + self.cpu_post_recv_ns)
    }

    /// Host CPU cost for detecting one coalesced message by polling a ring.
    pub fn ring_detect_cpu(&self) -> Ns {
        Ns(self.cpu_ring_poll_ns)
    }

    /// Control-plane cost of registering a fresh memory region of `bytes`
    /// (`ibv_reg_mr`: base syscall/MPT cost plus per-page pinning).
    pub(crate) fn reg_mr_time(&self, bytes: usize) -> Ns {
        Ns(self.ctrl_reg_mr_base_ns + (bytes as u64 * self.ctrl_reg_mr_ns_per_kb) / 1024)
    }

    /// Host CPU cost to zero `bytes` of a recycled buffer.
    pub(crate) fn memset_time(&self, bytes: usize) -> Ns {
        Ns((bytes as u64 * self.cpu_memset_ns_per_kb) / 1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packetization_at_mtu() {
        let m = CostModel::default();
        assert_eq!(m.packets(0), 1);
        assert_eq!(m.packets(1), 1);
        assert_eq!(m.packets(4096), 1);
        assert_eq!(m.packets(4097), 2);
        assert_eq!(m.packets(12_288), 3);
    }

    #[test]
    fn cache_miss_dominates_nic_service() {
        let m = CostModel::default();
        let hit = m.nic_service(64, true);
        let miss = m.nic_service(64, false);
        assert!(miss.as_nanos() > hit.as_nanos() + 1_000);
    }

    #[test]
    fn ud_rx_is_expensive_relative_to_ring_poll() {
        // The motivation for Flock's RC-write + memory-polling design:
        // per-packet UD receive CPU far exceeds a ring-buffer probe.
        let m = CostModel::default();
        assert!(m.ud_rx_cpu().as_nanos() > 4 * m.ring_detect_cpu().as_nanos());
    }

    #[test]
    fn warm_control_path_is_at_least_10x_cheaper() {
        // The elasticity story (Swift, PAPERS.md): a pooled-QP lease plus
        // a cached-MR reuse (reset + memset) must beat cold QP creation
        // plus registration by an order of magnitude, for the buffer
        // sizes the connection handle actually registers.
        let m = CostModel::default();
        for kb in [4usize, 16, 64] {
            let bytes = kb * 1024;
            let cold = m.ctrl_create_qp_ns + m.reg_mr_time(bytes).as_nanos();
            let warm = m.ctrl_reset_qp_ns + m.memset_time(bytes).as_nanos();
            assert!(cold >= 10 * warm, "kb={kb} cold={cold} warm={warm}");
        }
    }

    #[test]
    fn atomics_are_the_slowest_small_verb() {
        // The one-sided cost ladder for an 8-byte payload: ring write <
        // read < atomic. ALock's cohort rule (hand off locally, CAS
        // remotely once per burst) only pays off if the model agrees.
        let m = CostModel::default();
        let base = m.nic_service(8, true).as_nanos();
        assert!(m.nic_atomic_extra_ns > m.nic_read_extra_ns);
        assert!(base + m.nic_atomic_extra_ns > base + m.nic_read_extra_ns);
    }

    #[test]
    fn memcpy_is_linear() {
        let m = CostModel::default();
        let a = m.memcpy_time(1024).as_nanos();
        let b = m.memcpy_time(4096).as_nanos();
        assert_eq!(b, a * 4);
    }
}
