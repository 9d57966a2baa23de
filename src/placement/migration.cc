#include "placement/migration.h"

namespace pulse::placement {

namespace {
/** Slab backing keeps data-structure node alignment. */
constexpr Bytes kBackingAlign = 256;
}  // namespace

MigrationEngine::MigrationEngine(sim::EventQueue& queue,
                                 net::Network& network,
                                 mem::GlobalMemory& memory,
                                 mem::ClusterAllocator& allocator,
                                 std::vector<mem::RangeTcam*> tcams,
                                 std::vector<mem::ChannelSet*> channels,
                                 const PlacementConfig& config)
    : network_(network), memory_(memory), allocator_(allocator),
      tcams_(std::move(tcams)),
      copier_(queue, network, memory, allocator, std::move(channels),
              config, stats_)
{
}

bool
MigrationEngine::start(VirtAddr va_base, Bytes length, NodeId dst,
                       std::function<void(bool)> on_done)
{
    const mem::AddressMap& map = memory_.address_map();
    if (active() || length == 0 || dst >= tcams_.size() ||
        !map.node_for(va_base).has_value()) {
        return false;
    }
    // PLAN: the span must be contiguously placed on one (other) node
    // and fully backed. In its home frame that means below the node's
    // application frontier: a partly filled tail slab's frame can also
    // hold backing reserved for other slabs past that frontier, and
    // freeing the whole frame at cutover would free their live bytes.
    // A span already in migration backing owns its whole reservation.
    const mem::Placement p = map.placement_for(va_base);
    const bool home_frame = p.node == *map.home_node_for(va_base) &&
                            p.phys == map.offset_in_region(va_base);
    const Bytes backed = home_frame ? allocator_.app_allocated_on(p.node)
                                    : allocator_.allocated_on(p.node);
    if (p.node == dst || p.contiguous < length ||
        p.phys + length > backed) {
        return false;
    }
    // Both TCAM updates must be guaranteed before anything moves, so
    // cutover can never half-fail.
    if (!route_flip_possible(tcams_, p.node, dst, va_base, length)) {
        return false;
    }
    const Bytes dst_phys =
        allocator_.alloc_backing(dst, length, kBackingAlign);
    if (dst_phys == mem::ClusterAllocator::kNoBacking) {
        return false;
    }

    stats_.started.increment();
    copier_.start(va_base, length, p.node, dst, dst_phys,
                  [this, va_base, length, src = p.node,
                   src_phys = p.phys, dst, dst_phys,
                   on_done = std::move(on_done)](bool copied) {
                      const bool moved =
                          copied && cutover(va_base, length, src,
                                            src_phys, dst, dst_phys);
                      if (!moved) {
                          stats_.aborted.increment();
                      }
                      on_done(moved);
                  });
    return true;
}

bool
MigrationEngine::cutover(VirtAddr va_base, Bytes length, NodeId src,
                         Bytes src_phys, NodeId dst, Bytes dst_phys)
{
    // The copier has just landed the authoritative bytes; flip
    // ownership in the same event.
    const RouteFlip flip =
        flip_route(memory_.mutable_address_map(),
                   network_.switch_table(), tcams_, src, dst, va_base,
                   length, dst_phys);
    if (flip == RouteFlip::kRefused) {
        // PLAN's pre-check no longer holds: a TCAM changed during the
        // copy (a replica or another span took the destination's last
        // entry). Nothing moved, so the source keeps serving the slab
        // and the destination copy is dropped, as after a failed copy.
        allocator_.free_backing(dst, dst_phys, length);
        return false;
    }
    if (flip == RouteFlip::kRemapped) {
        stats_.remaps_installed.increment();
    }

    // The reconfiguration message also carries the source's replay
    // digest: retransmitted requests now route to the destination, so
    // its dedup window must recognise visits the source already
    // executed — otherwise a lost response plus a retransmit chasing
    // the migrated slab would re-execute a store/CAS.
    if (on_cutover_) {
        on_cutover_(src, dst);
    }

    // RETIRE the vacated backing into the allocator's free list so a
    // later migration (possibly back here) reuses the address range.
    allocator_.free_backing(src, src_phys, length);
    stats_.completed.increment();
    return true;
}

}  // namespace pulse::placement
