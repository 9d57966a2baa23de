#include "core/cluster.h"

#include <algorithm>
#include <string>

#include "common/knobs.h"
#include "common/logging.h"
#include "faults/nemesis.h"

namespace pulse::core {

const char*
system_name(SystemKind kind)
{
    switch (kind) {
      case SystemKind::kPulse: return "pulse";
      case SystemKind::kCache: return "Cache";
      case SystemKind::kRpc: return "RPC";
      case SystemKind::kRpcWimpy: return "RPC-W";
      case SystemKind::kCacheRpc: return "Cache+RPC";
    }
    return "?";
}

ClusterConfig::ClusterConfig()
{
    // RPC-W: the paper emulates wimpy SmartNIC cores by down-clocking
    // server cores to 1.0 GHz; being 2.6x slower per instruction, more
    // of them are needed to saturate the node's memory bandwidth, and
    // the per-request RPC software path slows with the clock.
    rpc_wimpy.clock_ghz = 1.0;
    rpc_wimpy.workers_per_node = 24;
    rpc_wimpy.server_overhead = nanos(850.0 * 2.6);
}

bool
ClusterConfig::apply_env_knobs(std::string* error)
{
    using knobs::Knob;
    knobs::Value checks, placed, replicas, serving;
    if (!knobs::read(Knob::kCheck, &checks, error) ||
        !knobs::read(Knob::kPlacement, &placed, error) ||
        !knobs::read(Knob::kReplication, &replicas, error) ||
        !knobs::read(Knob::kServing, &serving, error)) {
        return false;
    }
    check.oracle = checks.modes & knobs::kCheckOracle;
    check.invariants = checks.modes & knobs::kCheckInvariants;
    check.fail_fast = checks.modes & knobs::kCheckFailFast;
    placement.mode = placed.modes == knobs::kPlacementElastic
                         ? placement::PlacementMode::kElastic
                     : placed.modes == knobs::kPlacementStatic
                         ? placement::PlacementMode::kStatic
                         : placement::PlacementMode::kOff;
    replication.replication_factor =
        replicas.modes == knobs::kReplicationK3 ? 3
        : replicas.modes == knobs::kReplicationK2 ? 2 : 1;
    serve.on = serving.modes == knobs::kServingOn;
    return true;
}

Cluster::Cluster(const ClusterConfig& config)
    : config_(config), tracer_(config.trace)
{
    PULSE_ASSERT(config.num_mem_nodes >= 1, "need a memory node");
    PULSE_ASSERT(config.num_clients >= 1, "need a client");

    memory_ = std::make_unique<mem::GlobalMemory>(config.num_mem_nodes,
                                                  config.node_capacity);
    allocator_ = std::make_unique<mem::ClusterAllocator>(
        memory_->address_map(), config.alloc_policy, config.seed,
        config.uniform_chunk_bytes);

    net::NetworkConfig net_config = config.network;
    net_config.num_clients = config.num_clients;
    net_config.num_mem_nodes = config.num_mem_nodes;
    network_ = std::make_unique<net::Network>(queue_, net_config);
    network_->set_tracer(&tracer_);

    if (config.faults.enabled()) {
        fault_plane_ =
            std::make_unique<faults::FaultPlane>(config.faults);
        network_->attach_fault_plane(fault_plane_.get());
    }

    std::vector<mem::ChannelSet*> channel_ptrs;
    for (NodeId node = 0; node < config.num_mem_nodes; node++) {
        channels_.push_back(std::make_unique<mem::ChannelSet>(
            config.channels_per_node, config.channel_raw_bw,
            config.interconnect_efficiency));
        channels_.back()->set_tracer(&tracer_, node);
        channel_ptrs.push_back(channels_.back().get());

        accelerators_.push_back(std::make_unique<accel::Accelerator>(
            queue_, *network_, *memory_, *channels_.back(), node,
            config.accel));
        accelerators_.back()->set_fault_plane(fault_plane_.get());
        accelerators_.back()->set_tracer(&tracer_);

        // Hierarchical address translation (section 5): one cur_ptr
        // rule per node at the switch; the node's full region in its
        // accelerator TCAM (identity-mapped, read-write).
        const mem::NodeRegion& region =
            memory_->address_map().region(node);
        network_->switch_table().add_rule(
            net::SwitchRule{region.base, region.size, node});
        const bool installed = accelerators_.back()->tcam().insert(
            mem::RangeEntry{region.base, region.size, 0,
                            mem::Perm::kReadWrite});
        PULSE_ASSERT(installed, "TCAM rejected the node region");
    }

    if (config.placement.enabled()) {
        std::vector<mem::RangeTcam*> tcams;
        tcams.reserve(accelerators_.size());
        for (auto& accelerator : accelerators_) {
            tcams.push_back(&accelerator->tcam());
        }
        placement_plane_ = std::make_unique<placement::PlacementPlane>(
            queue_, *network_, *memory_, *allocator_, std::move(tcams),
            channel_ptrs, config.placement);
        for (auto& accelerator : accelerators_) {
            accelerator->set_placement(placement_plane_.get());
        }
        // Cutovers hand the source accelerator's dedup window to the
        // destination so exactly-once survives the responder change.
        std::vector<accel::ReplayWindow*> replays;
        replays.reserve(accelerators_.size());
        for (auto& accelerator : accelerators_) {
            replays.push_back(&accelerator->replay_window());
        }
        placement_plane_->attach_replay_windows(std::move(replays));
    }

    if (config.replication.enabled()) {
        std::vector<mem::RangeTcam*> tcams;
        std::vector<accel::ReplayWindow*> replays;
        tcams.reserve(accelerators_.size());
        replays.reserve(accelerators_.size());
        for (auto& accelerator : accelerators_) {
            tcams.push_back(&accelerator->tcam());
            replays.push_back(&accelerator->replay_window());
        }
        replication_plane_ =
            std::make_unique<replication::ReplicationPlane>(
                queue_, *network_, *memory_, *allocator_,
                std::move(tcams), channel_ptrs, config.replication,
                config.placement);
        replication_plane_->attach_replay_windows(std::move(replays));
        for (auto& accelerator : accelerators_) {
            accelerator->set_replication(replication_plane_.get());
        }
        // A migration cutover changes the authoritative owner of a
        // span; the plane must know so its mirrors skip the owner.
        if (placement_plane_) {
            placement_plane_->set_cutover_observer(
                [plane = replication_plane_.get()] {
                    plane->notify_cutover();
                });
        }
        // Scripted crash windows heal at their end: resume probing the
        // node and let the scan rebuild redundancy involving it.
        faults::schedule_recoveries(
            queue_, config.faults.timeline,
            [plane = replication_plane_.get()](NodeId node) {
                plane->notify_recovered(node);
            });
    }

    if (config.serve.enabled()) {
        serve_plane_ = std::make_unique<serve::QosController>(
            queue_, network_->packets(), config.serve);
        for (NodeId node = 0; node < accelerators_.size(); node++) {
            accel::Accelerator* accelerator = accelerators_[node].get();
            accelerator->set_serving(serve_plane_.get());
            // Released (previously quota-throttled) packets re-enter
            // at placement: net-stack and scheduler stages were
            // already paid on the way in.
            serve_plane_->attach_node(
                node, [accelerator](net::PacketHandle packet) {
                    accelerator->readmit(packet);
                });
        }
    }

    for (ClientId client = 0; client < config.num_clients; client++) {
        offload_.push_back(std::make_unique<offload::OffloadEngine>(
            queue_, *network_, *memory_, client, config.offload,
            config.accel.logic_time_per_insn,
            config.accel.mem_pipeline_latency));
        offload_.back()->set_tracer(&tracer_);
    }
    cache_ = std::make_unique<baselines::CacheClient>(
        queue_, *network_, *memory_, /*client=*/0, config.cache,
        channel_ptrs);
    rpc_ = std::make_unique<baselines::RpcRuntime>(
        queue_, *network_, *memory_, channel_ptrs, /*client=*/0,
        config.rpc);
    rpc_wimpy_ = std::make_unique<baselines::RpcRuntime>(
        queue_, *network_, *memory_, channel_ptrs, /*client=*/0,
        config.rpc_wimpy);

    // Cache+RPC rides a TCP-like transport (AIFM's stack, section 7.1).
    baselines::RpcConfig tcp_rpc = config.rpc;
    tcp_rpc.transport_overhead_factor = 3.0;
    rpc_tcp_ = std::make_unique<baselines::RpcRuntime>(
        queue_, *network_, *memory_, channel_ptrs, /*client=*/0,
        tcp_rpc);
    aifm_ = std::make_unique<baselines::AifmClient>(queue_, *rpc_tcp_,
                                                    config.aifm);

    if (config.check.enabled()) {
        checker_ = std::make_unique<check::Checker>(
            config.check, queue_, *network_, *memory_,
            config.accel.max_iters_cap, offload::kGlobalIterationGuard);
        if (config.check.invariants) {
            queue_.set_invariants(&checker_->registry());
        }
        for (auto& accelerator : accelerators_) {
            if (config.check.invariants) {
                accelerator->set_invariants(&checker_->registry());
            }
            checker_->attach_accelerator(accelerator.get());
        }
        for (auto& engine : offload_) {
            checker_->attach_engine(engine.get());
        }
    }
}

accel::Accelerator&
Cluster::accelerator(NodeId node)
{
    PULSE_ASSERT(node < accelerators_.size(), "bad node id %u", node);
    return *accelerators_[node];
}

mem::ChannelSet&
Cluster::channels(NodeId node)
{
    PULSE_ASSERT(node < channels_.size(), "bad node id %u", node);
    return *channels_[node];
}

baselines::RpcRuntime&
Cluster::rpc(bool wimpy)
{
    return wimpy ? *rpc_wimpy_ : *rpc_;
}

offload::OffloadEngine&
Cluster::offload_engine(ClientId client)
{
    PULSE_ASSERT(client < offload_.size(), "bad client id %u", client);
    return *offload_[client];
}

std::uint64_t
Cluster::verify_quiesce()
{
    if (!checker_) {
        return 0;
    }
    // Drain leftovers (quenched retransmit timers are harmless no-op
    // events) so the structural audit sees the settled state.
    queue_.run();
    return checker_->verify_quiesce();
}

workloads::SubmitFn
Cluster::submitter(SystemKind kind, ClientId client)
{
    PULSE_ASSERT(kind == SystemKind::kPulse || client == 0,
                 "baseline systems are single-client");
    switch (kind) {
      case SystemKind::kPulse:
        if (checker_ && checker_->oracle() != nullptr) {
            return [this, client](offload::Operation&& op) {
                offload::OffloadEngine& engine = *offload_[client];
                const isa::ProgramAnalysis& analysis =
                    op.program->analysis();
                checker_->oracle()->arm(op, analysis.valid,
                                        engine.should_offload(analysis));
                if (replication_plane_) {
                    replication_plane_->note_activity();
                }
                engine.submit(std::move(op));
            };
        }
        return [this, client](offload::Operation&& op) {
            if (replication_plane_) {
                replication_plane_->note_activity();
            }
            offload_[client]->submit(std::move(op));
        };
      case SystemKind::kCache:
        return [this](offload::Operation&& op) {
            cache_->submit(std::move(op));
        };
      case SystemKind::kRpc:
        return [this](offload::Operation&& op) {
            rpc_->submit(std::move(op));
        };
      case SystemKind::kRpcWimpy:
        return [this](offload::Operation&& op) {
            rpc_wimpy_->submit(std::move(op));
        };
      case SystemKind::kCacheRpc:
        return [this](offload::Operation&& op) {
            aifm_->submit(std::move(op));
        };
    }
    panic("unknown system kind");
}

void
Cluster::reset_stats()
{
    tracer_.clear();
    network_->reset_stats();
    if (fault_plane_) {
        fault_plane_->reset_stats();
    }
    if (placement_plane_) {
        placement_plane_->reset_stats();
    }
    if (replication_plane_) {
        replication_plane_->reset_stats();
    }
    for (auto& channels : channels_) {
        channels->reset_stats();
    }
    for (auto& accelerator : accelerators_) {
        accelerator->reset_stats();
    }
    for (auto& engine : offload_) {
        engine->reset_stats();
    }
    cache_->reset_stats();
    rpc_->reset_stats();
    rpc_wimpy_->reset_stats();
    rpc_tcp_->reset_stats();
    aifm_->reset_stats();
}

std::vector<std::uint64_t>
Cluster::node_request_counts() const
{
    std::vector<std::uint64_t> counts;
    counts.reserve(accelerators_.size());
    for (const auto& accelerator : accelerators_) {
        counts.push_back(
            accelerator->stats().requests_received.value());
    }
    return counts;
}

double
Cluster::node_load_imbalance() const
{
    const std::vector<std::uint64_t> counts = node_request_counts();
    std::uint64_t max = 0;
    std::uint64_t sum = 0;
    for (const std::uint64_t count : counts) {
        max = std::max(max, count);
        sum += count;
    }
    if (sum == 0 || counts.empty()) {
        return 1.0;
    }
    const double mean =
        static_cast<double>(sum) / static_cast<double>(counts.size());
    return static_cast<double>(max) / mean;
}

Rate
Cluster::memory_bandwidth(Time window) const
{
    Rate total = 0;
    for (const auto& channels : channels_) {
        total += channels->achieved_bandwidth(window);
    }
    return total;
}

Rate
Cluster::memory_bandwidth_capacity() const
{
    Rate total = 0;
    for (const auto& channels : channels_) {
        total += channels->total_effective_bandwidth();
    }
    return total;
}

Bytes
Cluster::client_network_bytes() const
{
    const auto addr = net::EndpointAddr::client(0);
    return network_->bytes_sent_by(addr) +
           network_->bytes_received_by(addr);
}

void
Cluster::register_stats(StatRegistry& registry)
{
    for (NodeId node = 0; node < accelerators_.size(); node++) {
        accelerators_[node]->register_stats(
            "node" + std::to_string(node) + ".accel", registry);
    }
    for (ClientId client = 0; client < offload_.size(); client++) {
        const auto& stats = offload_[client]->stats();
        const std::string prefix =
            "client" + std::to_string(client) + ".offload.";
        registry.register_counter(prefix + "submitted",
                                  &stats.submitted);
        registry.register_counter(prefix + "offloaded",
                                  &stats.offloaded);
        registry.register_counter(prefix + "fallback",
                                  &stats.fallback);
        registry.register_counter(prefix + "retransmits",
                                  &stats.retransmits);
        registry.register_counter(prefix + "client_bounces",
                                  &stats.client_bounces);
        registry.register_counter(prefix + "continuations",
                                  &stats.continuations);
        registry.register_counter(prefix + "failures",
                                  &stats.failures);
        registry.register_counter(prefix + "stale_responses",
                                  &stats.stale_responses);
    }
    if (fault_plane_) {
        fault_plane_->register_stats("faults", registry);
    }
    if (placement_plane_) {
        placement_plane_->register_stats("placement", registry);
    }
    if (replication_plane_) {
        replication_plane_->register_stats("replication", registry);
    }
    if (serve_plane_) {
        serve_plane_->register_stats("serve", registry);
    }
    {
        const auto& stats = cache_->stats();
        registry.register_counter("client0.cache.operations",
                                  &stats.operations);
        registry.register_counter("client0.cache.faults",
                                  &stats.faults);
        registry.register_counter("client0.cache.hits", &stats.hits);
        registry.register_accumulator("client0.cache.fault_wait_ps",
                                      &stats.fault_wait_time);
    }
    for (const auto& [name, runtime] :
         {std::pair<const char*, baselines::RpcRuntime*>{
              "rpc", rpc_.get()},
          {"rpc_wimpy", rpc_wimpy_.get()},
          {"rpc_tcp", rpc_tcp_.get()}}) {
        const auto& stats = runtime->stats();
        const std::string prefix = std::string(name) + ".";
        registry.register_counter(prefix + "requests",
                                  &stats.requests);
        registry.register_counter(prefix + "responses",
                                  &stats.responses);
        registry.register_counter(prefix + "node_bounces",
                                  &stats.node_bounces);
        registry.register_counter(prefix + "iterations",
                                  &stats.iterations);
        registry.register_counter(prefix + "retransmits",
                                  &stats.retransmits);
        registry.register_counter(prefix + "replays",
                                  &stats.replays);
        registry.register_counter(prefix + "failures",
                                  &stats.failures);
        registry.register_accumulator(prefix + "worker_busy_ps",
                                      &stats.worker_busy_time);
    }
    {
        const auto& stats = aifm_->stats();
        registry.register_counter("client0.aifm.operations",
                                  &stats.operations);
        registry.register_counter("client0.aifm.hits", &stats.hits);
        registry.register_counter("client0.aifm.misses",
                                  &stats.misses);
        registry.register_counter("client0.aifm.evictions",
                                  &stats.evictions);
    }
}

void
Cluster::export_metrics(trace::MetricsExporter& exporter,
                        const std::string& prefix)
{
    StatRegistry registry;
    register_stats(registry);
    exporter.add_registry(prefix, registry);
    exporter.set(prefix + "trace.spans_recorded",
                 static_cast<double>(tracer_.recorded()));
    exporter.set(prefix + "trace.spans_dropped",
                 static_cast<double>(tracer_.dropped()));
    if (replication_plane_) {
        exporter.set(
            prefix + "replication.backlog_bytes",
            static_cast<double>(
                replication_plane_->rereplication_backlog_bytes()));
        exporter.set(prefix + "replication.failovers",
                     static_cast<double>(
                         replication_plane_->failovers().size()));
        for (NodeId node = 0; node < accelerators_.size(); node++) {
            exporter.set(prefix + "replication.node" +
                             std::to_string(node) + ".suspicion",
                         replication_plane_->suspicion(node));
        }
    }
    if (serve_plane_) {
        for (const auto& [tenant, counters] :
             serve_plane_->tenant_counters()) {
            const std::string base =
                prefix + "serve.tenant" + std::to_string(tenant);
            exporter.set(base + ".admitted",
                         static_cast<double>(counters.admitted));
            exporter.set(base + ".shed",
                         static_cast<double>(counters.shed));
            exporter.set(base + ".throttled",
                         static_cast<double>(counters.throttled));
        }
    }
}

}  // namespace pulse::core
