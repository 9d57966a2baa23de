/**
 * @file
 * Cluster-level checkpoint/restore (see Cluster::save_checkpoint).
 *
 * A checkpoint is a single tagged binary blob (common/serial.h), laid
 * out by one function, Cluster::checkpoint, that both saves and
 * restores:
 *
 *   "PLSC" magic + format version
 *   config fingerprint        — topology/policy/seed scalars that must
 *                               equal the live config, so a snapshot
 *                               can only be applied to an identically-
 *                               built rack
 *   event queue               — clock + schedule/execute counters
 *   network                   — switch tables, ports, flow counters
 *   global memory             — committed chunks of every node
 *   allocator                 — bump frontiers, free lists, RNG
 *   per-node channel sets     — busy-until + bandwidth counters
 *   per-node accelerators     — TCAMs, pipeline clocks, counters
 *   per-client offload engines— sequence numbers, RTO, code-send cache
 *
 * Only a *quiesced* cluster can be captured: pending events and
 * in-flight traversals are type-erased closures over live component
 * state and are deliberately not serializable. Quiesce is cheap to
 * reach (drain the queue between driver phases) and is exactly the
 * boundary long scenarios want to fork from.
 */
#include <cstdio>
#include <fstream>
#include <iterator>
#include <vector>

#include "common/logging.h"
#include "common/serial.h"
#include "core/cluster.h"

namespace pulse::core {
namespace {

constexpr std::uint32_t kCheckpointVersion = 3;

}  // namespace

void
Cluster::checkpoint(StateIo& io)
{
    PULSE_ASSERT(queue_.empty(),
                 "checkpoint requires a quiesced event queue "
                 "(%zu events pending)",
                 queue_.pending());
    PULSE_ASSERT(!fault_plane_ && !checker_ && !placement_plane_ &&
                     !replication_plane_ && !serve_plane_,
                 "checkpoint does not cover the optional planes; build "
                 "the cluster with faults/check/placement/replication/"
                 "serving off");
    PULSE_ASSERT(!tracer_.enabled(),
                 "checkpoint does not cover live trace spans; disable "
                 "tracing first");
    PULSE_ASSERT(memory_->address_map().remaps().empty(),
                 "checkpoint does not cover migration remap overlays");
    for (const auto& engine : offload_) {
        PULSE_ASSERT(engine->inflight() == 0,
                     "checkpoint requires no in-flight traversals");
    }
    PULSE_ASSERT(packets().live() == 0,
                 "checkpoint requires no live traversal packets (%zu)",
                 packets().live());

    io.tag("PLSC");
    io.expect(kCheckpointVersion, "checkpoint version");
    const ClusterConfig& c = config_;
    io.expect(c.num_mem_nodes, "fingerprint num_mem_nodes");
    io.expect(c.num_clients, "fingerprint num_clients");
    io.expect(c.node_capacity, "fingerprint node_capacity");
    io.expect(static_cast<std::uint8_t>(c.alloc_policy),
              "fingerprint alloc_policy");
    io.expect(c.uniform_chunk_bytes, "fingerprint uniform_chunk_bytes");
    io.expect(c.seed, "fingerprint seed");
    io.expect(c.channels_per_node, "fingerprint channels_per_node");
    io.expect(c.accel.num_cores, "fingerprint accel.num_cores");
    io.expect(c.accel.eta_pipelines, "fingerprint accel.eta_pipelines");
    io.expect(c.accel.workspaces_per_logic,
              "fingerprint accel.workspaces_per_logic");
    io.expect(c.accel.tcam_entries, "fingerprint accel.tcam_entries");
    io.expect(c.accel.replay_window_entries,
              "fingerprint accel.replay_window_entries");
    io.expect(c.offload.switch_continuation,
              "fingerprint offload.switch_continuation");
    io.expect(c.offload.max_retransmits,
              "fingerprint offload.max_retransmits");

    queue_.checkpoint(io);
    network_->checkpoint(io);
    memory_->checkpoint(io);
    allocator_->checkpoint(io);
    for (auto& channels : channels_) {
        channels->checkpoint(io);
    }
    for (auto& accelerator : accelerators_) {
        accelerator->checkpoint(io);
    }
    for (auto& engine : offload_) {
        engine->checkpoint(io);
    }
}

std::vector<std::uint8_t>
Cluster::save_checkpoint()
{
    StateIo io;
    checkpoint(io);
    return io.take();
}

bool
Cluster::restore_checkpoint(const std::vector<std::uint8_t>& bytes,
                            std::string* error)
{
    StateIo io(bytes);
    checkpoint(io);
    if (io.finish()) {
        return true;
    }
    if (error != nullptr) {
        *error = io.error();
    }
    return false;
}

void
Cluster::save_checkpoint_file(const std::string& path)
{
    const std::vector<std::uint8_t> blob = save_checkpoint();
    std::FILE* file = std::fopen(path.c_str(), "wb");
    PULSE_ASSERT(file != nullptr, "cannot open checkpoint file %s",
                 path.c_str());
    const std::size_t written =
        std::fwrite(blob.data(), 1, blob.size(), file);
    std::fclose(file);
    PULSE_ASSERT(written == blob.size(),
                 "short write to checkpoint file %s", path.c_str());
}

bool
Cluster::restore_checkpoint_file(const std::string& path,
                                 std::string* error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error != nullptr) {
            *error = "cannot open checkpoint file " + path;
        }
        return false;
    }
    const std::vector<std::uint8_t> blob{std::istreambuf_iterator<char>(in),
                                         std::istreambuf_iterator<char>()};
    return restore_checkpoint(blob, error);
}

}  // namespace pulse::core
