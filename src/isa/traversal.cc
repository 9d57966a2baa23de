#include "isa/traversal.h"

#include <algorithm>

#include "common/logging.h"

namespace pulse::isa {

ChainEnd
chain_end(const IterationResult& iter)
{
    if (!iter.spawns.empty()) {
        // No fork path here (the engine offloads forking programs; the
        // client fallback cannot coordinate a join). Same convention
        // as kCas without a hook.
        return {true, TraversalStatus::kExecFault,
                ExecFault::kIllegalInstruction};
    }
    switch (iter.end) {
      case IterEnd::kFault:
        return {true, TraversalStatus::kExecFault, iter.fault};
      case IterEnd::kReturn:
      case IterEnd::kJoin:  // a JOIN that spawned nothing completes
        return {true, TraversalStatus::kDone, ExecFault::kNone};
      case IterEnd::kNextIter:
        break;
    }
    return {};
}

void
Walk::seed(const Program& program, VirtAddr start_ptr,
           const std::uint8_t* init, std::size_t init_len)
{
    workspace.configure(program);
    workspace.cur_ptr = start_ptr;
    std::copy_n(init, std::min(init_len, workspace.scratch.size()),
                workspace.scratch.begin());
    iterations = 0;
}

bool
Walk::null_page_load(std::uint32_t load_bytes)
{
    if (load_bytes == 0) {
        return true;
    }
    if (workspace.cur_ptr != kNullAddr) {
        return false;
    }
    std::fill_n(workspace.data.begin(), load_bytes, 0);
    return true;
}

ChainEnd
Walk::advance(const IterationResult& iter, std::uint64_t guard)
{
    iterations++;
    const ChainEnd end = chain_end(iter);
    if (!end.ended && iterations >= guard) {
        // The CPU node can resume from final_ptr + scratch_pad
        // (section 3.1).
        return {true, TraversalStatus::kMaxIter, ExecFault::kNone};
    }
    return end;
}

namespace {

TraversalOutcome
run_traversal_impl(const Program& program, VirtAddr start_ptr,
                   const std::uint8_t* init_scratch,
                   std::size_t init_len, const MemoryHooks& hooks,
                   std::uint32_t max_iters)
{
    PULSE_ASSERT(program.load_bytes() == 0 ||
                     static_cast<bool>(hooks.load),
                 "program LOADs but no load hook supplied");
    const std::uint64_t guard =
        max_iters == 0 ? program.max_iters() : max_iters;
    Walk walk;
    walk.seed(program, start_ptr, init_scratch, init_len);
    Workspace& workspace = walk.workspace;

    TraversalOutcome outcome;
    const std::uint32_t load_bytes = program.load_bytes();
    while (walk.iterations < guard) {
        const VirtAddr iter_ptr = workspace.cur_ptr;
        if (!walk.null_page_load(load_bytes) &&
            !hooks.load(iter_ptr, load_bytes, workspace.data.data())) {
            outcome.status = TraversalStatus::kMemFault;
            break;
        }
        CasFn cas;
        if (hooks.cas) {
            cas = [&hooks, iter_ptr](std::uint64_t mem_off,
                                     std::uint64_t expected,
                                     std::uint64_t desired) {
                return hooks.cas(iter_ptr + mem_off, expected,
                                 desired);
            };
        }
        const IterationResult iter = run_iteration(program, workspace, cas);
        outcome.instructions += iter.instructions_executed;
        const ChainEnd end = walk.advance(iter, guard);

        bool store_fault = false;
        for (const PendingStore& st : iter.stores) {
            PULSE_ASSERT(static_cast<bool>(hooks.store),
                         "program STOREs but no store hook");
            if (!hooks.store(iter_ptr + st.mem_offset, st.length,
                             workspace.data.data() + st.data_offset)) {
                store_fault = true;
                break;
            }
        }
        if (store_fault) {
            outcome.status = TraversalStatus::kMemFault;
            break;
        }
        if (end.ended) {
            outcome.status = end.status;
            outcome.fault = end.fault;
            break;
        }
    }
    outcome.iterations = walk.iterations;
    outcome.final_ptr = workspace.cur_ptr;
    outcome.scratch = std::move(workspace.scratch);
    return outcome;
}

}  // namespace

TraversalOutcome
run_traversal(const Program& program, VirtAddr start_ptr,
              const std::vector<std::uint8_t>& init_scratch,
              const MemoryHooks& hooks, std::uint32_t max_iters)
{
    return run_traversal_impl(program, start_ptr, init_scratch.data(),
                              init_scratch.size(), hooks, max_iters);
}

TraversalOutcome
run_traversal(const Program& program, VirtAddr start_ptr,
              const ScratchBuffer& init_scratch,
              const MemoryHooks& hooks, std::uint32_t max_iters)
{
    return run_traversal_impl(program, start_ptr, init_scratch.data(),
                              init_scratch.size(), hooks, max_iters);
}

}  // namespace pulse::isa
