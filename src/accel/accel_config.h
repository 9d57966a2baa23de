/**
 * @file
 * Configuration for the pulse accelerator model.
 *
 * Defaults reproduce the paper's prototype (sections 6 and 7.2 / Fig. 9):
 * two cores per memory node (one per memory channel), eta = 1 (one logic
 * pipeline and two workspaces per memory pipeline), 430 ns network-stack
 * processing, 4 ns scheduler dispatch, ~120 ns memory-pipeline latency
 * per aggregated load, and ~1.17 ns per logic instruction (a 6-
 * instruction hash-table iteration costs the paper's 7 ns).
 */
#ifndef PULSE_ACCEL_ACCEL_CONFIG_H
#define PULSE_ACCEL_ACCEL_CONFIG_H

#include <cstdint>

#include "common/units.h"

namespace pulse::accel {

/**
 * Admission policy of the accelerator scheduler (the supplementary
 * material's multi-tenancy extension: the section 4.2.3 scheduler is
 * deliberately signal-driven so richer policies can slot in).
 */
enum class SchedPolicy : std::uint8_t {
    /** Arrival order, regardless of who sent the request (paper). */
    kFifo,
    /**
     * Round-robin across origin clients: a tenant flooding the node
     * cannot starve another tenant's requests (supp. section B's
     * fairness-and-isolation proposal).
     */
    kFairShare,
    /**
     * Weighted deficit round-robin across *tenants* (serving plane,
     * src/serve): each tenant's queued requests are served in
     * proportion to its configured QoS weight. Falls back to weight 1
     * per tenant — i.e. per-tenant kFairShare — when no QosController
     * is attached.
     */
    kWeightedDrr,
};

/** Tunable parameters of one memory node's accelerator. */
struct AccelConfig
{
    /** Cores per accelerator (paper: one per memory channel). */
    std::uint32_t num_cores = 2;

    /**
     * eta: logic pipelines per memory pipeline (paper sets 1 after
     * measuring t_c <= t_d for all surveyed data structures).
     */
    std::uint32_t eta_pipelines = 1;

    /**
     * Workspaces per logic pipeline. The paper's core multiplexes two
     * iterators per logic pipeline (Fig. 3c) — enough to saturate the
     * memory pipeline when loads are latency-bound. Because the real
     * board pipelines AXI bursts (2 cores saturate 25 GB/s, supp.
     * Fig. 1b), throughput-oriented runs raise this so enough loads are
     * in flight to cover the 120 ns latency; see DESIGN.md.
     */
    std::uint32_t workspaces_per_logic = 2;

    /** Hardware network stack parse/deparse latency per packet. */
    Time net_stack_latency = nanos(430.0);

    /** Scheduler dispatch latency per request. */
    Time scheduler_latency = nanos(4.0);

    /**
     * Memory-pipeline latency per aggregated load: TCAM translation +
     * protection + DRAM access (t_d). Bandwidth occupancy is modelled
     * by the node's memory channels on top of this.
     */
    Time mem_pipeline_latency = nanos(120.0);

    /** Logic-pipeline time per executed instruction (t_i). */
    Time logic_time_per_insn = nanos(7.0 / 6.0);

    /**
     * Pipelining depth of the logic datapath: t_c is the *latency* one
     * iterator observes, but the FPGA pipeline admits a new iterator
     * every t_c / depth (initiation interval). Without this, a single
     * eta=1 logic pipeline could never keep the memory channels >90%
     * utilized for compute-heavier programs (TSV's eta ~ 0.9), which
     * the paper's Fig. 6 shows it does.
     */
    std::uint32_t logic_pipeline_depth = 8;

    /** TCAM capacity (range entries) for local translations. */
    std::uint32_t tcam_entries = 64;

    /** Pending-request queue bound; beyond this, requests are dropped
     *  (the offload engine's retransmission recovers them). */
    std::uint32_t max_pending = 1u << 16;

    /** Admission policy for queued requests. */
    SchedPolicy sched_policy = SchedPolicy::kFifo;

    /**
     * Duplicate-suppression window per client (entries in the dedup
     * SRAM): retransmitted or fault-duplicated packets for a visit
     * that already executed get the recorded response replayed instead
     * of re-executing — required for exactly-once semantics of
     * traversals with stores/CAS. 0 disables the window (pre-reliable
     * behaviour: duplicates re-execute).
     */
    std::uint32_t replay_window_entries = 1u << 12;

    /** Hard cap on iterations per visit, independent of program caps. */
    std::uint32_t max_iters_cap = 1u << 20;

    /** Total workspaces per core. */
    std::uint32_t
    workspaces_per_core() const
    {
        return eta_pipelines * workspaces_per_logic;
    }
};

}  // namespace pulse::accel

#endif  // PULSE_ACCEL_ACCEL_CONFIG_H
