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
    if (max_iters == 0) {
        max_iters = program.max_iters();
    }

    Workspace workspace;
    workspace.configure(program);
    workspace.cur_ptr = start_ptr;
    std::copy_n(init_scratch,
                std::min(init_len, workspace.scratch.size()),
                workspace.scratch.begin());

    TraversalOutcome outcome;
    const std::uint32_t load_bytes = program.load_bytes();

    while (outcome.iterations < max_iters) {
        const VirtAddr iter_ptr = workspace.cur_ptr;
        if (load_bytes > 0) {
            if (iter_ptr == kNullAddr) {
                // Null-page semantics: loading at the null pointer
                // yields zeros so programs can test cur_ptr == 0 as a
                // termination condition (e.g. map lower_bound).
                std::fill_n(workspace.data.begin(), load_bytes, 0);
            } else if (!hooks.load(iter_ptr, load_bytes,
                                   workspace.data.data())) {
                outcome.status = TraversalStatus::kMemFault;
                break;
            }
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
        IterationResult iter = run_iteration(program, workspace, cas);
        outcome.iterations++;
        outcome.instructions += iter.instructions_executed;

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
        const ChainEnd end = chain_end(iter);
        if (end.ended) {
            outcome.status = end.status;
            outcome.fault = end.fault;
            break;
        }
        // NEXT_ITER: follow cur_ptr into the next iteration, unless the
        // iteration budget is exhausted (section 3.1: the CPU node can
        // resume from final_ptr + scratch_pad).
        if (outcome.iterations == max_iters) {
            outcome.status = TraversalStatus::kMaxIter;
            break;
        }
    }
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
