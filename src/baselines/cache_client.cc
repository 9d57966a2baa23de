#include "baselines/cache_client.h"

#include <algorithm>

#include "common/logging.h"
#include "isa/interpreter.h"
#include "isa/traversal.h"

namespace pulse::baselines {

using isa::TraversalStatus;

namespace {

constexpr Bytes kPageRequestBytes = net::kNetHeaderBytes + 16;

}  // namespace

struct CacheClient::OpState
{
    offload::Operation op;
    isa::Workspace workspace;
    Time submit_time = 0;
    std::uint64_t iterations = 0;
};

CacheClient::CacheClient(sim::EventQueue& queue, net::Network& network,
                         mem::GlobalMemory& memory, ClientId client,
                         const CacheClientConfig& config,
                         std::vector<mem::ChannelSet*> node_channels)
    : queue_(queue), network_(network), memory_(memory),
      client_(client), config_(config),
      node_channels_(std::move(node_channels)),
      cache_(config.cache_bytes),
      handler_free_(config.fault_handlers, 0)
{
    PULSE_ASSERT(config.fault_handlers > 0, "need a fault handler");
    PULSE_ASSERT(config.page_bytes > 0 &&
                     (config.page_bytes & (config.page_bytes - 1)) == 0,
                 "page size must be a power of two");
    PULSE_ASSERT(config.cache_bytes >= config.page_bytes,
                 "cache smaller than one page");
}

void
CacheClient::reset_stats()
{
    stats_ = CacheClientStats{};
    cache_.reset_stats();
}

void
CacheClient::submit(offload::Operation&& op)
{
    stats_.operations.increment();
    inflight_++;
    auto state = std::make_shared<OpState>();
    state->op = std::move(op);
    state->submit_time = queue_.now();
    state->workspace.configure(*state->op.program);
    state->workspace.cur_ptr = state->op.start_ptr;
    std::copy_n(state->op.init_scratch.begin(),
                std::min(state->op.init_scratch.size(),
                         state->workspace.scratch.size()),
                state->workspace.scratch.begin());
    queue_.schedule_after(
        state->op.init_cpu_time + config_.op_software_overhead,
        [this, state] { step(state); });
}

void
CacheClient::step(const std::shared_ptr<OpState>& state)
{
    const std::uint32_t load_bytes = state->op.program->load_bytes();
    const VirtAddr ptr = state->workspace.cur_ptr;

    if (load_bytes == 0 || ptr == kNullAddr) {
        if (load_bytes > 0) {
            std::fill_n(state->workspace.data.begin(), load_bytes, 0);
        }
        run_logic(state);
        return;
    }

    // Collect the pages this aggregated load touches (node alignment
    // keeps this to one page except for unaligned slot loads).
    std::vector<VirtAddr> missing;
    for (VirtAddr page = page_of(ptr, config_.page_bytes);
         page < ptr + load_bytes; page += config_.page_bytes) {
        if (!cache_.access(page)) {
            missing.push_back(page);
        }
    }
    if (missing.empty()) {
        stats_.hits.increment();
        queue_.schedule_after(config_.hit_latency, [this, state] {
            memory_.read(state->workspace.cur_ptr,
                         state->workspace.data.data(),
                         state->op.program->load_bytes());
            run_logic(state);
        });
        return;
    }
    fetch_pages(state, std::move(missing));
}

void
CacheClient::fetch_pages(const std::shared_ptr<OpState>& state,
                         std::vector<VirtAddr> pages)
{
    // Fault on the first missing page; chained faults handle the rest.
    const VirtAddr page = pages.back();
    pages.pop_back();
    stats_.faults.increment();

    // Acquire the earliest-free fault handler for the entry half.
    auto handler = std::min_element(handler_free_.begin(),
                                    handler_free_.end());
    const std::size_t handler_index =
        static_cast<std::size_t>(handler - handler_free_.begin());
    const Time start = std::max(queue_.now(), *handler);
    stats_.fault_wait_time.add(
        static_cast<double>(start - queue_.now()));
    const Time request_at = start + config_.fault_entry_latency;
    handler_free_[handler_index] = request_at;

    const auto node = memory_.address_map().node_for(page);
    if (!node.has_value()) {
        // Unmapped pointer: surface a memory fault to the caller.
        offload::Completion completion;
        completion.status = TraversalStatus::kMemFault;
        completion.iterations = state->iterations;
        completion.latency = queue_.now() - state->submit_time;
        inflight_--;
        if (state->op.done) {
            state->op.done(std::move(completion));
        }
        return;
    }

    queue_.schedule_at(request_at, [this, state, page, node = *node,
                                    handler_index,
                                    pages = std::move(pages)]() mutable {
        network_.send_message(
            net::EndpointAddr::client(client_),
            net::EndpointAddr::mem_node(node), kPageRequestBytes,
            [this, state, page, node, handler_index,
             pages = std::move(pages)]() mutable {
                // One-sided page read at the memory node (no CPU, but
                // it consumes the node's memory bandwidth).
                if (node < node_channels_.size() &&
                    node_channels_[node] != nullptr) {
                    node_channels_[node]->access(queue_.now(),
                                                 config_.page_bytes);
                }
                network_.send_message(
                    net::EndpointAddr::mem_node(node),
                    net::EndpointAddr::client(client_),
                    net::kNetHeaderBytes + config_.page_bytes,
                    [this, state, page, handler_index,
                     pages = std::move(pages)]() mutable {
                        // Fault exit half on the same handler.
                        const Time exit_start = std::max(
                            queue_.now(), handler_free_[handler_index]);
                        const Time done =
                            exit_start + config_.fault_exit_latency;
                        handler_free_[handler_index] = done;
                        cache_.fill(page, config_.page_bytes);
                        queue_.schedule_at(
                            done,
                            [this, state,
                             pages = std::move(pages)]() mutable {
                                if (pages.empty()) {
                                    step(state);  // re-check the cache
                                } else {
                                    fetch_pages(state, std::move(pages));
                                }
                            });
                    });
            });
    });
}

void
CacheClient::run_logic(const std::shared_ptr<OpState>& state)
{
    // CAS at the client is safe in this model: measured workloads are
    // single-client, and event-level execution is atomic.
    const VirtAddr cas_base = state->workspace.cur_ptr;
    isa::CasFn cas = [this, cas_base](std::uint64_t mem_off,
                                      std::uint64_t expected,
                                      std::uint64_t desired) {
        const VirtAddr addr = cas_base + mem_off;
        if (!memory_.address_map().node_for(addr)) {
            return false;
        }
        if (memory_.read_as<std::uint64_t>(addr) != expected) {
            return false;
        }
        memory_.write_as<std::uint64_t>(addr, desired);
        return true;
    };
    isa::IterationResult iter =
        run_iteration(*state->op.program, state->workspace, cas);
    state->iterations++;
    const Time logic_time =
        static_cast<Time>(iter.instructions_executed) *
        config_.cpu_time_per_insn;

    // Client-resident execution applies stores directly (write-through
    // happens on eviction in real swap systems; measured workloads are
    // read-only, so presence-only caching stays coherent).
    const VirtAddr iter_ptr = state->workspace.cur_ptr;
    for (const isa::PendingStore& st : iter.stores) {
        memory_.write(iter_ptr + st.mem_offset,
                      state->workspace.data.data() + st.data_offset,
                      st.length);
    }

    // No fork coordinator here: the chain ends as on the RPC runtime.
    const isa::ChainEnd end = isa::chain_end(iter);
    const bool resume =
        !end.ended && state->iterations < offload::kGlobalIterationGuard;
    queue_.schedule_after(logic_time, [this, state, resume, end] {
        if (resume) {
            step(state);
            return;
        }
        offload::Completion completion;
        completion.status =
            end.ended ? end.status : TraversalStatus::kMaxIter;
        completion.fault = end.fault;
        completion.final_ptr = state->workspace.cur_ptr;
        completion.scratch = state->workspace.scratch;
        completion.iterations = state->iterations;
        completion.latency = queue_.now() - state->submit_time;
        inflight_--;
        if (state->op.done) {
            state->op.done(std::move(completion));
        }
    });
}

}  // namespace pulse::baselines
