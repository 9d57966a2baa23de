/**
 * @file
 * The Cache-based baseline (Fastswap-representative, paper section 7).
 *
 * Traversals execute on the client CPU; every aggregated load goes
 * through a 4 KB-page LRU cache. A miss is a remote page fault: it
 * occupies one of a bounded pool of fault handlers for the swap
 * software path (fault entry + exit) and moves a whole page across the
 * network. This reproduces both failure modes the paper measures:
 *   - latency: pointer chasing faults on ~every hop, paying RTT + swap
 *     software per hop (Fig. 4);
 *   - throughput: the network moves a page per miss while the fault
 *     handlers serialize, so the client network stack saturates far
 *     below the memory nodes' bandwidth (Figs. 5-6).
 */
#ifndef PULSE_BASELINES_CACHE_CLIENT_H
#define PULSE_BASELINES_CACHE_CLIENT_H

#include <memory>
#include <vector>

#include "baselines/page_cache.h"
#include "common/stats.h"
#include "mem/global_memory.h"
#include "mem/memory_channel.h"
#include "net/network.h"
#include "offload/offload_engine.h"
#include "sim/event_queue.h"

namespace pulse::baselines {

/** Cache-based client tunables. */
struct CacheClientConfig
{
    /** Cache size; benches scale this with the data-set size. */
    Bytes cache_bytes = 64 * kMiB;

    Bytes page_bytes = 4 * kKiB;

    /** Swap software cost per fault (entry half, before the fetch). */
    Time fault_entry_latency = micros(1.6);

    /** Swap software cost per fault (exit half, after the fetch). */
    Time fault_exit_latency = micros(1.6);

    /** Parallel fault-handling capacity (kernel threads/cores). */
    std::uint32_t fault_handlers = 8;

    /** Cache-hit access cost (page mapped: ~DRAM + bookkeeping). */
    Time hit_latency = nanos(80.0);

    /** Per-instruction cost of the traversal logic on the client. */
    Time cpu_time_per_insn = nanos(1.0 / 2.6);

    /** Per-operation issue overhead. */
    Time op_software_overhead = nanos(150.0);
};

/** Statistics. */
struct CacheClientStats
{
    Counter operations;
    Counter faults;
    Counter hits;
    Accumulator fault_wait_time;  ///< queueing for a fault handler (ps)
};

/** The Cache-based execution engine at one client. */
class CacheClient
{
  public:
    /**
     * @param node_channels per-node memory channels; page fetches are
     *        charged against them so Fig. 6's "cache network bandwidth
     *        equals its memory bandwidth" accounting holds. May be
     *        empty (no charging) for unit tests.
     */
    CacheClient(sim::EventQueue& queue, net::Network& network,
                mem::GlobalMemory& memory, ClientId client,
                const CacheClientConfig& config,
                std::vector<mem::ChannelSet*> node_channels = {});

    /** Run a traversal through the page cache; op.done fires at end. */
    void submit(offload::Operation&& op);

    const CacheClientStats& stats() const { return stats_; }
    void reset_stats();
    const CacheClientConfig& config() const { return config_; }

    /** Operations still in flight. */
    std::size_t inflight() const { return inflight_; }

  private:
    struct OpState;

    void step(const std::shared_ptr<OpState>& state);
    void fetch_pages(const std::shared_ptr<OpState>& state,
                     std::vector<VirtAddr> pages);
    void run_logic(const std::shared_ptr<OpState>& state);

    sim::EventQueue& queue_;
    net::Network& network_;
    mem::GlobalMemory& memory_;
    ClientId client_;
    CacheClientConfig config_;
    std::vector<mem::ChannelSet*> node_channels_;
    PageCache cache_;  ///< page-aligned VAs, page_bytes each
    std::vector<Time> handler_free_;
    CacheClientStats stats_;
    std::size_t inflight_ = 0;
};

}  // namespace pulse::baselines

#endif  // PULSE_BASELINES_CACHE_CLIENT_H
