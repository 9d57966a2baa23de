/**
 * @file
 * Quickstart: the smallest end-to-end pulse program.
 *
 * Builds a simulated disaggregated rack (1 client, 1 switch, 1 memory
 * node with a pulse accelerator), places a linked list in remote
 * memory, and offloads a find() traversal: the offload engine analyzes
 * the iterator's ISA program, ships it to the accelerator, and the
 * whole pointer chase executes next to the memory — one network round
 * trip instead of one per hop.
 *
 *   $ ./quickstart
 */
#include <cstdio>
#include <cstring>

#include "core/cluster.h"
#include "ds/linked_list.h"
#include "isa/analysis.h"

using namespace pulse;

int
main()
{
    // 1. Assemble the rack. Defaults mirror the paper's testbed:
    //    100 Gb/s links, a Tofino-class switch, a 2-core accelerator
    //    with 25 GB/s of memory bandwidth per node.
    core::ClusterConfig config;
    core::Cluster cluster(config);

    // 2. Build a linked list in disaggregated memory.
    ds::LinkedList list(cluster.memory(), cluster.allocator());
    std::vector<std::uint64_t> values;
    for (std::uint64_t v = 0; v < 200; v++) {
        values.push_back(1000 + v * 10);
    }
    list.build(values, /*node=*/0);
    std::printf("built a %llu-node linked list at 0x%llx\n",
                (unsigned long long)list.size(),
                (unsigned long long)list.head());

    // 3. Inspect what the offload engine will ship: the find()
    //    iterator compiled to pulse ISA.
    auto program = list.find_program();
    std::printf("\nfind() as pulse ISA (%u instructions):\n%s",
                program->size(), program->disassemble().c_str());
    const isa::ProgramAnalysis& analysis = program->analysis();
    std::printf("worst-case logic path: %u instructions, "
                "load footprint: %u bytes\n",
                analysis.worst_path_instructions, analysis.load_bytes);

    // 4. Offload a lookup and wait for the completion.
    const std::uint64_t needle = 1000 + 137 * 10;
    offload::Operation op = list.make_find(needle, {});
    op.done = [&](offload::Completion&& completion) {
        std::uint64_t node_addr = 0;
        std::memcpy(&node_addr,
                    completion.scratch.data() + ds::LinkedList::kSpResult,
                    8);
        std::printf("\nfind(%llu): %s\n", (unsigned long long)needle,
                    node_addr == ds::kKeyNotFound ? "not found"
                                                  : "found");
        std::printf("  executed on    : %s\n",
                    completion.offloaded ? "pulse accelerator"
                                         : "client (fallback)");
        std::printf("  iterations     : %llu pointer hops\n",
                    (unsigned long long)completion.iterations);
        std::printf("  end-to-end     : %s\n",
                    format_time(completion.latency).c_str());
        std::printf("  network trips  : 1 (vs %llu for per-hop "
                    "remote reads)\n",
                    (unsigned long long)completion.iterations);
    };
    cluster.submitter(core::SystemKind::kPulse)(std::move(op));
    cluster.queue().run();

    // 5. The same bytes, read by the host reference: results agree.
    const auto reference = list.find_reference(needle);
    std::printf("\nhost reference agrees: %s\n",
                reference.has_value() ? "yes" : "no (miss)");
    return 0;
}
